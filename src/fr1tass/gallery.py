"""Worked machines: small deciders that exercise every corner of the model.

Each builder returns a fresh valid Machine.
"""

from __future__ import annotations

from .model import Machine, Mode, make_machine


def power_of_two() -> Machine:
    """Accepts a^n exactly when n is a power of two.

    Each sweep halves the block: every second a is erased, with the marker
    A tracking parity.  Odd blocks longer than one strand the run in state
    4; a lone a reaches the accepting state 5 via the marker.
    """
    return make_machine(
        sigma=("a",),
        tape=("A", "a"),
        start="1",
        accepting=("5",),
        transitions={
            ("1", "a"): ("2", "A"),
            ("2", "a"): ("3", None),
            ("2", "A"): ("5", "A"),
            ("3", "a"): ("4", "a"),
            ("3", "A"): ("2", "A"),
            ("4", "a"): ("3", None),
        },
        mode=Mode.AS,
    )


def marked_copy() -> Machine:
    """Accepts # w # w for w over {a, b}.

    The first # is downgraded to the anchor $.  States A/B remember the
    erased front letter of the first block and check it against the front
    of the second block, one matched pair per round trip.
    """
    transitions = {
        ("I", "#"): ("S", "$"),
        ("S", "a"): ("A", None),
        ("S", "b"): ("B", None),
        ("S", "#"): ("4", "#"),  # first block already empty
        ("A", "a"): ("A", "a"),
        ("A", "b"): ("A", "b"),
        ("A", "#"): ("1", "#"),
        ("B", "a"): ("B", "a"),
        ("B", "b"): ("B", "b"),
        ("B", "#"): ("2", "#"),
        ("1", "a"): ("M", None),
        ("2", "b"): ("M", None),
        ("M", "a"): ("M", "a"),
        ("M", "b"): ("M", "b"),
        ("M", "$"): ("3", "$"),
        ("3", "a"): ("A", None),
        ("3", "b"): ("B", None),
        ("3", "#"): ("4", "#"),
        ("4", "$"): ("Halt", "$"),
    }
    return make_machine(
        sigma=("#", "a", "b"),
        tape=("$", "#", "a", "b"),
        start="I",
        accepting=("Halt",),
        transitions=transitions,
        mode=Mode.AS,
    )


def balance_ab_et() -> Machine:
    """Empties the tape exactly on words w with |w|_b <= |w|_a <= |w|_b + 1.

    State 1 erases an a and owes a b; state 2 erases the owed b.  Letters
    of the wrong kind are carried to the next sweep unchanged, so an
    unmatchable surplus leaves the tape cycling forever.
    """
    return make_machine(
        sigma=("a", "b"),
        tape=("a", "b"),
        start="1",
        accepting=(),
        transitions={
            ("1", "a"): ("2", None),
            ("1", "b"): ("1", "b"),
            ("2", "a"): ("2", "a"),
            ("2", "b"): ("1", None),
        },
        mode=Mode.ET,
    )


def center_language() -> Machine:
    """Accepts words of odd length whose middle letter is a.

    The run marks letters from both ends toward the middle: the first
    sweep overlines every second letter, then each round moves one
    overline into the growing settled prefix (overline removed as a
    prime, a fresh overline added at the first clean letter).  When the
    whole first half is settled the scan state reads the letter just
    past it, which is the middle, and accepts on a.
    """
    over = {x: x + "~" for x in ("a", "b", "a'", "b'")}
    tape = []
    for x in ("a", "b"):
        tape += [x + "'~", x + "'", x + "~", "^" + x + "~", "^" + x, x]
    plain = ("a", "b", "a'", "b'")  # unoverlined, not the anchor
    lined = ("a~", "b~", "a'~", "b'~")

    t = {
        ("m0", "a"): ("m1", "^a"),
        ("m0", "b"): ("m1", "^b"),
    }
    for x in ("a", "b"):
        t[("m1", x)] = ("m2", over[x])
        t[("m2", x)] = ("m1", x)
        t[("m1", "^" + x)] = ("seek1_od", "^" + x)
        t[("m2", "^" + x)] = ("seek1_ev", "^" + x)
    for p in ("od", "ev"):
        seek0, seek1 = "seek0_" + p, "seek1_" + p
        tail, add = "tail_" + p, "add_" + p
        for x in plain:
            t[(seek0, x)] = (seek1, x)
            t[(seek1, x)] = (seek1, x)
            t[(tail, x)] = (tail, x)
            t[(add, x)] = (seek0, over[x])
        for x in lined:
            t[(seek0, x)] = (seek0, x)
            t[(tail, x)] = (tail, x)
            t[(add, x)] = (add, x)
        t[(seek1, "a~")] = (tail, "a'")
        t[(seek1, "b~")] = (tail, "b'")
        for x in ("a", "b"):
            t[(tail, "^" + x)] = (seek0, "^" + x + "~")
            t[(tail, "^" + x + "~")] = (add, "^" + x + "~")
    # crossing the anchor while hunting an overline means the first half
    # is fully settled; the parity of the crossing state decides the word
    t[("seek1_od", "^a")] = ("f_acc", "^a")  # length 1, middle is the anchor
    t[("seek1_od", "^a~")] = ("scan_od", "^a~")
    t[("seek1_od", "^b~")] = ("scan_od", "^b~")
    for x in lined:
        t[("scan_od", x)] = ("scan_od", x)
    t[("scan_od", "a")] = ("f_acc", "a")
    t[("scan_od", "a'")] = ("f_acc", "a'")

    return make_machine(
        sigma=("a", "b"),
        tape=tape,
        start="m0",
        accepting=("f_acc",),
        transitions=t,
        mode=Mode.AS,
    )


GALLERY = {
    "power_of_two": power_of_two,
    "marked_copy": marked_copy,
    "center_language": center_language,
    "balance_ab_et": balance_ab_et,
}
