"""Constructions that combine or normalize machines.

All constructions return fresh valid machines and leave their inputs
untouched.  Binary constructions require both operands to read the same
input alphabet and, where the underlying simulation needs it, normalize
erasing machines via remove_erasing first (recorded in the result's
metadata).  et_to_as, complement and the four products are each a step
rule that works out one transition on demand from the operands' own
rows; one pruning tail, _reachable_as, asks it only about the states and
tape letters a run can touch and keeps just those.  remove_erasing,
as_to_et and from_dfa keep everything.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .exceptions import AlphabetMismatchError, ErasingInputError, ModeError
from .model import (RESERVED_TOKENS, Machine, Mode, ParseError, _letters_of,
                    _read_directives, fresh_name, make_machine)


def _reachable_as(sigma, tape, start: str, accepting, move,
                  accepts_empty: bool, metadata=None) -> Machine:
    """AS machine of what runs from start can touch.

    move maps a (state, letter) key to (state, output) or None.  It is
    asked once for each key in the least sets of states and letters that
    hold start and sigma and are closed under its answers; accepting
    states other than start are not expanded, because a run halts on
    entering one.  The tape keeps its order, restricted to the letters
    reached, and the transitions keep the order they were found in.
    Nothing else is ever read by a run, so the result is exact.
    """
    accepting = frozenset(accepting)
    letters = [x for x in tape if x in sigma]
    known = set(letters)
    expanded = [start]
    seen = {start}
    todo = [(start, x) for x in letters]
    transitions = {}
    for key in todo:  # todo grows while it is walked
        hit = move(key)
        if hit is None:
            continue
        transitions[key] = hit
        q2, out = hit
        if out is not None and out not in known:
            known.add(out)
            letters.append(out)
            todo += [(q, out) for q in expanded]
        if q2 not in seen:
            seen.add(q2)
            if q2 not in accepting:
                expanded.append(q2)
                todo += [(q2, x) for x in letters]
    return make_machine(sigma, [x for x in tape if x in known], start,
                        accepting & seen, transitions, Mode.AS, accepts_empty,
                        metadata=metadata)


def _marked_names(letters) -> dict:
    """Map each letter to a fresh marked twin (suffixed copy)."""
    taken = set(letters)
    suffix = "*"
    while any(x + suffix in taken for x in letters):
        suffix += "*"
    return {x: x + suffix for x in letters}


def _require_as(m: Machine, what: str):
    if m.mode is not Mode.AS:
        raise ModeError(f"{what} needs an AS machine (apply et_to_as first)")


def remove_erasing(a: Machine) -> Machine:
    """Equivalent machine that writes a new bottom letter instead of erasing.

    The fresh letter becomes the smallest tape letter and every state skips
    over it in place, so runs agree with the original step for step apart
    from carrying the placeholder cells along.
    """
    _require_as(a, "remove_erasing")
    box = fresh_name("BOX", set(a.tape.letters) | a.input_alphabet)
    transitions = {}
    for (q, x), (q2, out) in a.transitions.items():
        transitions[(q, x)] = (q2, box if out is None else out)
    for q in sorted(a.states):
        transitions[(q, box)] = (q, box)
    return make_machine(
        sigma=a.input_alphabet,
        tape=(box,) + a.tape.letters,
        start=a.start,
        accepting=a.accepting,
        transitions=transitions,
        mode=Mode.AS,
        accepts_empty=a.accepts_empty,
    )


def _split_accepting_start(m: Machine) -> Machine:
    """Fresh non-accepting start with the original start's behavior.

    Acceptance is only checked after a transition, so a machine may sit in
    an accepting start without halting; constructions that rewrite accepting
    rows must not touch the row the start actually uses.
    """
    if m.start not in m.accepting:
        return m
    fresh = fresh_name(m.start, m.states)
    transitions = dict(m.transitions)
    for (q, x), target in m.transitions.items():
        if q == m.start:
            transitions[(fresh, x)] = target
    return replace(m, start=fresh, transitions=transitions)


def as_to_et(a: Machine) -> Machine:
    """Recast an AS machine as an ET machine over the same inputs.

    Once the original would accept, the new machine erases whatever is
    left, so the tape empties exactly on accepted words.  The empty word
    is the one exception: ET machines accept it unconditionally.
    """
    _require_as(a, "as_to_et")
    b = remove_erasing(_split_accepting_start(a))
    transitions = {k: v for k, v in b.transitions.items()
                   if k[0] not in b.accepting}
    for f in sorted(b.accepting):
        for x in b.tape.letters:
            transitions[(f, x)] = (f, None)
    # the accepting set is inert in ET mode, kept for reference
    return replace(b, transitions=transitions, mode=Mode.ET,
                   accepts_empty=False)


def et_to_as(a: Machine) -> Machine:
    """Recast an ET machine as an AS machine.

    The first step marks the tape's front cell.  Erased cells become a
    bottom placeholder that every state skips; a clean/seen flag tracks
    whether the current lap saw any real letter, and reading the marked
    placeholder on a clean lap means the simulated tape is empty.
    """
    if a.mode is not Mode.ET:
        raise ModeError("et_to_as needs an ET machine (apply as_to_et first)")
    box = fresh_name("BOX", set(a.tape.letters) | a.input_alphabet)
    plain = (box,) + a.tape.letters
    mark = _marked_names(plain)
    unmark = {mark[x]: x for x in plain}
    tape = []
    for x in plain:
        tape += [mark[x], x]

    def move(key):
        """One step, worked out from a's rows on demand.  A state q has
        the copies q@c, on a clean lap, and q@s; init and acc carry no @
        suffix, so they never clash with a copy.  init reads the input
        as if it were marked."""
        state, letter = key
        if state == "init":
            if letter not in a.input_alphabet:
                return None
            q, y, marked = a.start, letter, True
        else:
            q, y = state[:-2], unmark.get(letter, letter)
            marked = y != letter
            if y == box and not marked:
                return state, box
            if y == box:
                return ("acc" if state.endswith("@c") else q + "@c"), letter
        hit = a.transitions.get((q, y))
        if hit is None:
            return None
        q2, out = hit
        out = box if out is None else out
        return (q2 + "@c", mark[out]) if marked else (q2 + "@s", out)

    return _reachable_as(a.input_alphabet, tape, "init", ("acc",), move,
                         accepts_empty=True)


def _fresh_names(keys, show, taken) -> dict:
    """Injective names show(key, tick) for keys, avoiding the taken set.

    The tick grows until the names are distinct and free.  show puts it
    after each separator and at the end, so a long enough tick always
    separates a key's parts unambiguously.
    """
    tick = ""
    while True:
        names = {k: show(k, tick) for k in keys}
        values = set(names.values())
        if len(values) == len(names) and not (values & set(taken)):
            return names
        tick += "'"


def _joint_names(parts, taken) -> dict:
    """Readable names (p,q) for tuples, avoiding the taken set."""
    return _fresh_names(
        parts, lambda p, tick: "(" + ("," + tick).join(p) + ")" + tick, taken)


def _operands(a: Machine, b: Machine, keep_one: bool, what: str):
    """Erasure-free copies of two AS operands that read one input alphabet,
    and the empty-word flag of their union (keep_one) or intersection."""
    if a.input_alphabet != b.input_alphabet:
        raise AlphabetMismatchError("operands read different input alphabets")
    _require_as(a, what)
    _require_as(b, what)
    flags = (a.accepts_empty, b.accepts_empty)
    return (remove_erasing(a), remove_erasing(b),
            any(flags) if keep_one else all(flags))


def _product(a: Machine, b: Machine, keep_one: bool) -> Machine:
    a2, b2, accepts_empty = _operands(a, b, keep_one, "product")
    a2, b2 = _split_accepting_start(a2), _split_accepting_start(b2)
    sigma = sorted(a.input_alphabet, key=a2.tape.rank)

    # pairs in rank order already extend the componentwise order, and
    # every pair sits below every raw letter
    pairs = [(x, y) for x in a2.tape.letters for y in b2.tape.letters]
    letter = _joint_names(pairs, sigma)
    reads = {x: (x, x) for x in sigma}
    reads.update((name, p) for p, name in letter.items())

    bot = fresh_name("_", a2.states | b2.states)
    combos = [(p, q) for p in sorted(a2.states) for q in sorted(b2.states)]
    if keep_one:
        combos += [(p, bot) for p in sorted(a2.states)]
        combos += [(bot, q) for q in sorted(b2.states)]
    state = _joint_names(combos, ())
    combo = {name: c for c, name in state.items()}

    def step(m, p, x):
        if p == bot:
            return None
        return (p, x) if p in m.accepting else m.transitions.get((p, x))

    def move(key):
        """One product step, worked out from the components on demand.

        A component at bot is stuck and repeats its track's letters.  A
        component in an accepting state idles on its letter: in a
        lockstep product one component may accept long before the other,
        and the idling lets the finished one wait without going missing.
        The component language is unchanged, because acceptance halts
        the component the moment such a state is entered.
        """
        (p, q), (xa, xb) = combo[key[0]], reads[key[1]]
        hit_a, hit_b = step(a2, p, xa), step(b2, q, xb)
        if hit_a and hit_b:
            return state[(hit_a[0], hit_b[0])], letter[(hit_a[1], hit_b[1])]
        if keep_one and hit_a:
            return state[(hit_a[0], bot)], letter[(hit_a[1], xb)]
        if keep_one and hit_b:
            return state[(bot, hit_b[0])], letter[(xa, hit_b[1])]
        return None

    accepting = []
    for p, q in combos:
        p_acc = p != bot and p in a2.accepting
        q_acc = q != bot and q in b2.accepting
        if (p_acc or q_acc) if keep_one else (p_acc and q_acc):
            accepting.append(state[(p, q)])
    return _reachable_as(a.input_alphabet, list(letter.values()) + sigma,
                         state[(a2.start, b2.start)], accepting, move,
                         accepts_empty,
                         metadata={"normalized": "remove_erasing"})


def intersect(a: Machine, b: Machine) -> Machine:
    """Lockstep product accepting words both operands accept."""
    return _product(a, b, keep_one=False)


def union(a: Machine, b: Machine) -> Machine:
    """Lockstep product accepting words either operand accepts.

    When exactly one component gets stuck the other keeps running on its
    own track, the dead track repeating its letters unchanged.
    """
    return _product(a, b, keep_one=True)


def complement(a: Machine) -> Machine:
    """Machine accepting exactly the words a non-erasing AS machine rejects.

    The first step marks the tape's front cell; indexed state copies count
    crossings of the mark since the last tape change.  Rejection by a
    missing transition routes to the accepting sink right away, and enough
    change-free crossings prove the original run cycles, which also routes
    to the sink.  Entering a state the original accepts in strands the run.
    """
    _require_as(a, "complement")
    if a.has_erasing():
        raise ErasingInputError(
            "complement needs a non-erasing machine (apply remove_erasing first)")
    mark = _marked_names(a.tape.letters)
    unmark = {mark[x]: x for x in a.tape.letters}
    tape = []
    for x in a.tape.letters:
        tape += [mark[x], x]
    rounds = len(a.states) + 1

    def move(key):
        """One step, worked out from a's rows on demand.  The copy q.i of
        q has seen i - 1 change-free crossings; start and sink carry no
        dot, so they never clash with a copy."""
        state, letter = key
        if state == "start":
            if letter not in a.input_alphabet:
                return None
            hit = a.transitions.get((a.start, letter))
            if hit is None:
                return "sink", mark[letter]
            return f"{hit[0]}.1", mark[hit[1]]
        q, i = state.rsplit(".", 1)
        if q in a.accepting:
            return None
        y = unmark.get(letter, letter)
        marked = letter != y
        hit = a.transitions.get((q, y))
        if hit is None:
            return "sink", letter
        q2, out = hit
        if out != y:
            return f"{q2}.1", (mark[out] if marked else out)
        if not marked:
            return f"{q2}.{i}", out
        if int(i) <= rounds:
            return f"{q2}.{int(i) + 1}", letter
        return "sink", letter

    return _reachable_as(a.input_alphabet, tape, "start", ("sink",), move,
                         accepts_empty=not a.accepts_empty)


def _sequential(a: Machine, b: Machine, keep_one: bool) -> Machine:
    """Run a's program to a verdict, then b's, sharing one state pool.

    The input survives a's phase on a second track; a freeze pass then
    drops a's track and hands b the preserved word starting from the
    marked front cell.  For the union flavor, a rejecting by a missing
    transition falls through to b, but a run of a that cycles forever
    keeps the combined machine cycling.  a's phase runs remove_erasing(a),
    in which a run that empties its tape cycles over placeholders, so the
    union is exact on the words where remove_erasing(a) halts; the
    intersection flavor has no such caveat.
    """
    a2, b2, accepts_empty = _operands(a, b, keep_one, "sequential product")
    sigma = sorted(a.input_alphabet, key=a2.tape.rank)

    # letters: [t2] frozen track, [t1/t2] a-phase pairs, raw input; the m
    # variants mark the tape's front cell
    keys = [(y, marked) for y in b2.tape.letters for marked in (False, True)]
    keys += [(x1, x2, marked) for x2 in sigma for x1 in a2.tape.letters
             for marked in (False, True)]
    name = _fresh_names(
        keys, lambda k, tick: ("[" + ("/" + tick).join(k[:-1]) + "]"
                               + ("m" if k[-1] else "") + tick), sigma)
    tape = list(name.values()) + sigma

    slot_a = {q: f"s{i}" for i, q in enumerate(sorted(a2.states))}
    slot_b = {q: f"s{i}" for i, q in enumerate(sorted(b2.states))}
    # a slot runs a's rows on a-phase letters and b's on frozen ones;
    # accepting states have no rows
    of_a = {s: q for q, s in slot_a.items() if q not in a2.accepting}
    of_b = {s: q for q, s in slot_b.items() if q not in b2.accepting}
    start, freezer, goal = "c0", "c1", "fin"
    reads = {v: k for k, v in name.items()}
    reads.update((x, (x, x, False)) for x in sigma)  # raw x reads as [x/x]

    def move(key):
        """One step, worked out from the operands' rows on demand; the
        letter's shape tells a's phase from b's."""
        state, letter = key
        *track, marked = reads[letter]
        if state == freezer and (len(track) == 2 or not marked):
            # the freeze pass drops a's track, then seeks the marked
            # front cell and feeds it to b's start
            return freezer, name[(track[-1], marked)]
        if len(track) == 2:
            (x1, x2), q = track, of_a.get(state)
            if state == start and letter in a.input_alphabet:
                q, marked = a2.start, True
            if q is None:
                return None
            hit = a2.transitions.get((q, x1))
            if hit is None:
                return (freezer, name[(x2, marked)]) if keep_one else None
            q2, out = hit
            if q2 in a2.accepting:
                return (goal if keep_one else freezer), name[(x2, marked)]
            return slot_a[q2], name[(out, x2, marked)]
        q = b2.start if state == freezer else of_b.get(state)
        hit = b2.transitions.get((q, track[0]))
        if hit is None:
            return None
        q2, out = hit
        return (goal if q2 in b2.accepting else slot_b[q2]), name[(out, marked)]

    return _reachable_as(
        a.input_alphabet, tape, start, (goal,), move, accepts_empty,
        metadata={"normalized": "remove_erasing", "extra_states": "3"})


def intersect_sequential(a: Machine, b: Machine) -> Machine:
    """Intersection within max(|Qa|, |Qb|) + 3 states."""
    return _sequential(a, b, keep_one=False)


def union_sequential(a: Machine, b: Machine) -> Machine:
    """Union within max(|Qa|, |Qb|) + 3 states.

    Exact on every word on which remove_erasing(a) halts; see
    _sequential for the caveat on cycling first operands.
    """
    return _sequential(a, b, keep_one=True)


# --- deterministic finite automata -------------------------------------------


@dataclass(frozen=True)
class DfaSpec:
    """A complete or partial DFA: transitions map (state, letter) to state."""

    alphabet: tuple
    states: frozenset
    start: str
    accepting: frozenset
    transitions: dict

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet letters")
        if self.start not in self.states:
            raise ValueError("start is not a state")
        if not self.accepting <= self.states:
            raise ValueError("accepting set contains non-states")
        for (q, x), q2 in self.transitions.items():
            if q not in self.states or q2 not in self.states:
                raise ValueError(f"transition ({q}, {x}) touches non-states")
            if x not in self.alphabet:
                raise ValueError(f"transition letter {x!r} not in alphabet")


def parse_dfa(text: str) -> DfaSpec:
    """Parse a DFA from alphabet:, start:, accept: and trans: lines.

    States are whatever the other lines mention; trans lines have the
    shape 'trans: state letter -> state'.
    """
    expect, body = _read_directives(text)
    alphabet_line, alphabet_tokens = expect("alphabet")
    alphabet = _letters_of(alphabet_tokens, alphabet_line, "alphabet letter")
    start_line, start_tokens = expect("start")
    if len(start_tokens) != 1:
        raise ParseError(start_line, "start takes exactly one state")
    start = _letters_of(start_tokens, start_line, "state")[0]
    accept_line, accept_tokens = expect("accept")
    accepting = _letters_of(accept_tokens, accept_line, "accepting state")
    transitions: dict = {}
    for number, tokens in body():
        if tokens[0] != "trans:":
            raise ParseError(number, f"expected 'trans:', got {tokens[0]!r}")
        if len(tokens) != 5 or tokens[3] != "->":
            raise ParseError(number,
                             "trans needs the shape: state letter -> state")
        _, q, x, _, q2 = tokens
        for token in (q, q2):
            if token in RESERVED_TOKENS:
                raise ParseError(number, f"reserved token {token!r} in transition")
        if x not in alphabet:
            raise ParseError(number, f"transition letter {x!r} not in alphabet")
        if (q, x) in transitions:
            raise ParseError(number, f"duplicate transition for ({q}, {x})")
        transitions[(q, x)] = q2

    states = {start, *accepting}
    for (q, _), q2 in transitions.items():
        states.update((q, q2))
    return DfaSpec(alphabet=tuple(alphabet), states=frozenset(states),
                   start=start, accepting=frozenset(accepting),
                   transitions=transitions)


def dfa_accepts(d: DfaSpec, word) -> bool:
    q = d.start
    for x in word:
        hit = d.transitions.get((q, x))
        if hit is None:
            return False
        q = hit
    return q in d.accepting


def from_dfa(d: DfaSpec) -> Machine:
    """Machine with the DFA's language.

    The first sweep runs the DFA, overwriting every cell with a bottom
    placeholder; accepting DFA states then erase one placeholder into a
    fresh accepting state on the second sweep.
    """
    box = fresh_name("BOX", d.alphabet)
    acc = fresh_name("acc", d.states)
    t: dict = {}
    for (q, x), q2 in sorted(d.transitions.items()):
        t[(q, x)] = (q2, box)
    for f in sorted(d.accepting):
        t[(f, box)] = (acc, None)
    return make_machine(
        sigma=d.alphabet,
        tape=(box,) + tuple(d.alphabet),
        start=d.start,
        accepting=(acc,),
        transitions=t,
        mode=Mode.AS,
        accepts_empty=d.start in d.accepting,
        extra_states=d.states,
    )
