"""Worked machines: small deciders that exercise every corner of the model.

Each builder returns a fresh valid Machine.  The module also houses the
correspondence-instance reduction (a machine whose accepted words are
exactly the encodings of matching index sequences) and a seeded generator
of random unary machines for cross-checking the classifier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exceptions import IndexOutOfRangeError, PcpInstanceError
from .model import (COMMENT_MARK, Machine, Mode, ParseError, Word,
                    make_machine)


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


# --- correspondence instances ------------------------------------------------


@dataclass(frozen=True)
class PcpInstance:
    """Matched word pairs (u_i, v_i) over a base alphabet.

    A solution is a nonempty index sequence whose u- and v-concatenations
    agree.  Words may be given as strings of single-letter symbols or as
    tuples of letter tokens.
    """

    u_words: tuple
    v_words: tuple
    base_alphabet: tuple

    def __post_init__(self):
        object.__setattr__(self, "u_words", tuple(map(tuple, self.u_words)))
        object.__setattr__(self, "v_words", tuple(map(tuple, self.v_words)))
        object.__setattr__(self, "base_alphabet", tuple(self.base_alphabet))
        if not self.u_words or len(self.u_words) != len(self.v_words):
            raise PcpInstanceError("need equally many nonempty u- and v-words")
        base = set(self.base_alphabet)
        if len(base) != len(self.base_alphabet):
            raise PcpInstanceError("duplicate base letters")
        index_names = {str(i) for i in range(1, len(self.u_words) + 1)}
        for letter in self.base_alphabet:
            if letter == "#" or "~" in letter or letter in index_names:
                raise PcpInstanceError(
                    f"base letter {letter!r} collides with encoding symbols")
        for side in (self.u_words, self.v_words):
            for word in side:
                if not word:
                    raise PcpInstanceError("empty word in instance")
                for letter in word:
                    if letter not in base:
                        raise PcpInstanceError(
                            f"word letter {letter!r} outside base alphabet")

    @property
    def size(self) -> int:
        return len(self.u_words)


def encode_pcp_candidate(p: PcpInstance, indices) -> Word:
    """Tape encoding of an index sequence: # marked-indices # marked-u # marked-v."""
    indices = tuple(indices)
    if not indices:
        raise IndexOutOfRangeError("index sequence must be nonempty")
    for i in indices:
        if not 1 <= i <= p.size:
            raise IndexOutOfRangeError(f"index {i} outside 1..{p.size}")
    word = ["#"] + [f"{i}~" for i in indices] + ["#"]
    for i in indices:
        word += [x + "~" for x in p.u_words[i - 1]]
    word.append("#")
    for i in indices:
        word += [x + "~" for x in p.v_words[i - 1]]
    return tuple(word)


def parse_pcp_instance(text: str) -> PcpInstance:
    """Parse an instance from one alphabet: line plus paired u:/v: lines."""
    base = None
    us: list = []
    vs: list = []
    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split(COMMENT_MARK, 1)[0].split()
        if not tokens:
            continue
        head, body = tokens[0], tokens[1:]
        if head == "alphabet:":
            if base is not None:
                raise ParseError(number, "duplicate alphabet: line")
            base = tuple(body)
        elif head == "u:":
            us.append(tuple(body))
        elif head == "v:":
            vs.append(tuple(body))
        else:
            raise ParseError(number,
                             f"expected alphabet:, u: or v:, got {head!r}")
    if base is None:
        raise ParseError(1, "missing alphabet: line")
    return PcpInstance(u_words=tuple(us), v_words=tuple(vs),
                       base_alphabet=base)


def pcp_machine(p: PcpInstance) -> Machine:
    """Machine accepting exactly the encodings of solutions of p.

    Marked letters stand for unprocessed content.  The run unmarks one
    index per round, checking that the u- and v-segments continue with
    the words that index demands, then verifies letter by letter that
    the two unmarked segments agree, erasing as it matches.
    """
    idx = [str(i) for i in range(1, p.size + 1)]
    base = list(p.base_alphabet)
    plain = idx + base
    tape = ["#"] + plain + [x + "~" for x in plain]

    t = {}
    t[("s0", "#")] = ("r0", "#")
    for i in idx:
        t[("r0", i + "~")] = ("f_pick_" + i, i)
        t[("seek", i)] = ("seek", i)
        t[("seek", i + "~")] = ("pick_" + i, i)
        for j in idx:  # later indices are still marked while i is handled
            t[("f_pick_" + i, j + "~")] = ("f_pick_" + i, j + "~")
            t[("pick_" + i, j + "~")] = ("pick_" + i, j + "~")
    t[("seek", "#")] = ("m_read", "#")

    def chain(i, word, prefix, after, skip_unmarked):
        # match the marked copy of word and skip marked leftovers after it;
        # only rounds past the first may also skip letters unmarked earlier
        names = [f"{prefix}{i}_{j}" for j in range(len(word))] + [after]
        for x in base:
            if skip_unmarked:
                t[(names[0], x)] = (names[0], x)
            t[(after, x + "~")] = (after, x + "~")
        for j, x in enumerate(word):
            t[(names[j], x + "~")] = (names[j + 1], x)
        return names[0]

    for i, (u, v) in enumerate(zip(p.u_words, p.v_words), start=1):
        # first round insists both segments are still fully marked, which
        # pins down the input shape; later rounds tolerate their own work
        fu = chain(str(i), u, "fu", f"fud{i}", skip_unmarked=False)
        fv = chain(str(i), v, "fv", f"fvd{i}", skip_unmarked=False)
        t[("f_pick_" + str(i), "#")] = (fu, "#")
        t[(f"fud{i}", "#")] = (fv, "#")
        t[(f"fvd{i}", "#")] = ("seek", "#")
        u_entry = chain(str(i), u, "u", f"ud{i}", skip_unmarked=True)
        v_entry = chain(str(i), v, "v", f"vd{i}", skip_unmarked=True)
        t[("pick_" + str(i), "#")] = (u_entry, "#")
        t[(f"ud{i}", "#")] = (v_entry, "#")
        t[(f"vd{i}", "#")] = ("seek", "#")

    # all indices consumed: compare the two unmarked segments by erasure
    for x in base:
        t[("m_read", x)] = (f"m_skip_{x}", None)
        t[(f"m_skip_{x}", "#")] = (f"m_find_{x}", "#")
        t[(f"m_find_{x}", x)] = ("m_rest", None)
        for y in base:
            t[(f"m_skip_{x}", y)] = (f"m_skip_{x}", y)
            t[("m_rest", y)] = ("m_rest", y)
    t[("m_read", "#")] = ("m_final", "#")
    t[("m_rest", "#")] = ("m_back", "#")
    for i in idx:
        t[("m_back", i)] = ("m_back", i)
    t[("m_back", "#")] = ("m_read", "#")
    t[("m_final", "#")] = ("accept", "#")

    return make_machine(
        sigma=tape,
        tape=tape,
        start="s0",
        accepting=("accept",),
        transitions=t,
        mode=Mode.AS,
    )


def random_unary_noaux(seed: int, n_states: int) -> Machine:
    """Seeded random unary machine with one a-transition per state.

    Half the transitions erase; the mode and accepting set are drawn from
    the same stream, so equal seeds rebuild the identical machine.
    """
    if n_states < 1:
        raise ValueError("need at least one state")
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(n_states)]
    transitions = {}
    for q in states:
        target = rng.choice(states)
        out = None if rng.random() < 0.5 else "a"
        transitions[(q, "a")] = (target, out)
    mode = Mode.AS if rng.random() < 0.5 else Mode.ET
    accepting = tuple(q for q in states if rng.random() < 0.3)
    return make_machine(
        sigma=("a",),
        tape=("a",),
        start="q0",
        accepting=accepting if mode is Mode.AS else (),
        transitions=transitions,
        mode=mode,
        extra_states=states,
    )


GALLERY = {
    "power_of_two": power_of_two,
    "marked_copy": marked_copy,
    "center_language": center_language,
    "balance_ab_et": balance_ab_et,
}
