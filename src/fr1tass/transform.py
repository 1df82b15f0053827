"""Constructions that combine or normalize machines.

All constructions return fresh valid machines and leave their inputs
untouched.  Binary constructions require both operands to read the same
input alphabet and, where the underlying simulation needs it, normalize
erasing machines via remove_erasing first (recorded in the result's
metadata).  et_to_as, complement and the four products end in one
pruning tail, _reachable_as, that keeps only the states, tape letters and
transitions a run can touch; the products work out only those
transitions.  remove_erasing, as_to_et and from_dfa keep everything.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from .exceptions import (AlphabetMismatchError, CycleError, ErasingInputError,
                         ModeError)
from .model import (RESERVED_TOKENS, Machine, Mode, ParseError, _letters_of,
                    _read_directives, fresh_name, make_machine)


@dataclass(frozen=True)
class PartialOrderSpec:
    """Elements plus (lo, hi) pairs meaning lo is at or below hi."""

    elements: tuple
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "pairs", tuple(map(tuple, self.pairs)))


def linear_extension(spec: PartialOrderSpec) -> tuple:
    """Total order refining the given partial order.

    Ties are broken by element input order, so the result is deterministic.
    Raises CycleError when the pairs relate distinct elements cyclically.
    """
    elements = list(spec.elements)
    pos = {e: i for i, e in enumerate(elements)}
    if len(pos) != len(elements):
        raise ValueError("duplicate elements")
    succs = {e: [] for e in elements}
    indegree = {e: 0 for e in elements}
    seen = set()
    for lo, hi in spec.pairs:
        if lo not in pos or hi not in pos:
            raise ValueError(f"pair ({lo}, {hi}) mentions unknown elements")
        if lo == hi or (lo, hi) in seen:
            continue
        seen.add((lo, hi))
        succs[lo].append(hi)
        indegree[hi] += 1
    ready = [pos[e] for e in elements if indegree[e] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        e = elements[heapq.heappop(ready)]
        out.append(e)
        for s in succs[e]:
            indegree[s] -= 1
            if indegree[s] == 0:
                heapq.heappush(ready, pos[s])
    if len(out) != len(elements):
        raise CycleError("order relates elements cyclically")
    return tuple(out)


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
                        extra_states=seen, metadata=metadata)


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
        extra_states=a.states,
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
    return replace(m, states=m.states | {fresh}, start=fresh,
                   transitions=transitions)


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
    tape = []
    for x in plain:
        tape += [mark[x], x]

    def clean(q):
        return q + "@c"

    def seen(q):
        return q + "@s"

    copies = {clean(q) for q in a.states} | {seen(q) for q in a.states}
    init = fresh_name("init", copies)
    acc = fresh_name("acc", copies | {init})

    t: dict = {}
    for x in sorted(a.input_alphabet, key=a.tape.rank):
        hit = a.transitions.get((a.start, x))
        if hit is not None:
            q2, out = hit
            t[(init, x)] = (clean(q2), mark[out if out is not None else box])
    for q in sorted(a.states):
        t[(clean(q), box)] = (clean(q), box)
        t[(seen(q), box)] = (seen(q), box)
        t[(clean(q), mark[box])] = (acc, mark[box])
        t[(seen(q), mark[box])] = (clean(q), mark[box])
        for y in a.tape.letters:
            hit = a.transitions.get((q, y))
            if hit is None:
                continue
            q2, out = hit
            out = out if out is not None else box
            t[(clean(q), y)] = (seen(q2), out)
            t[(seen(q), y)] = (seen(q2), out)
            t[(clean(q), mark[y])] = (clean(q2), mark[out])
            t[(seen(q), mark[y])] = (clean(q2), mark[out])

    return _reachable_as(a.input_alphabet, tape, init, (acc,), t.get,
                         accepts_empty=True)


def _sticky(m: Machine) -> Machine:
    """Park accepting states on same-letter loops.

    In a lockstep product one component may accept long before the other;
    the loops let the finished component idle without going missing.  The
    component language is unchanged because acceptance halts the machine
    the moment such a state is entered.
    """
    m = _split_accepting_start(m)
    transitions = {k: v for k, v in m.transitions.items()
                   if k[0] not in m.accepting}
    for f in sorted(m.accepting):
        for x in m.tape.letters:
            transitions[(f, x)] = (f, x)
    return replace(m, transitions=transitions)


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
    a2, b2 = _sticky(a2), _sticky(b2)
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

    def move(key):
        """One product step, worked out from the components on demand; a
        component at bot is stuck and repeats its track's letters."""
        (p, q), (xa, xb) = combo[key[0]], reads[key[1]]
        hit_a = p != bot and a2.transitions.get((p, xa))
        hit_b = q != bot and b2.transitions.get((q, xb))
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
    tape = []
    for x in a.tape.letters:
        tape += [mark[x], x]
    rounds = len(a.states) + 1

    def copy(q, i):
        return f"{q}.{i}"

    names = {copy(q, i) for q in a.states for i in range(1, rounds + 2)}
    start = fresh_name("start", names)
    sink = fresh_name("sink", names | {start})

    t: dict = {}
    for x in sorted(a.input_alphabet, key=a.tape.rank):
        hit = a.transitions.get((a.start, x))
        if hit is not None:
            t[(start, x)] = (copy(hit[0], 1), mark[hit[1]])
        else:
            t[(start, x)] = (sink, mark[x])
    for q in sorted(a.states - a.accepting):
        for i in range(1, rounds + 2):
            here = copy(q, i)
            for y in a.tape.letters:
                hit = a.transitions.get((q, y))
                if hit is None:
                    t[(here, y)] = (sink, y)
                    t[(here, mark[y])] = (sink, mark[y])
                    continue
                q2, out = hit
                t[(here, y)] = (copy(q2, i if out == y else 1), out)
                if out != y:
                    t[(here, mark[y])] = (copy(q2, 1), mark[out])
                elif i <= rounds:
                    t[(here, mark[y])] = (copy(q2, i + 1), mark[y])
                else:
                    t[(here, mark[y])] = (sink, mark[y])

    return _reachable_as(a.input_alphabet, tape, start, (sink,), t.get,
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
    start, freezer, goal = "c0", "c1", "fin"

    def a_move(source, hit, x2, marked):
        """Route one step of a's program from the given letter context."""
        if hit is None:
            if keep_one:
                t[source] = (freezer, name[(x2, marked)])
            return
        q2, out = hit
        if q2 in a2.accepting:
            after = goal if keep_one else freezer
            t[source] = (after, name[(x2, marked)])
        else:
            t[source] = (slot_a[q2], name[(out, x2, marked)])

    def b_move(source, hit, marked):
        if hit is None:
            return
        q2, out = hit
        after = goal if q2 in b2.accepting else slot_b[q2]
        t[source] = (after, name[(out, marked)])

    t: dict = {}
    for x in sigma:
        a_move((start, x), a2.transitions.get((a2.start, x)), x, True)
    for q in sorted(a2.states - a2.accepting):
        for x in sigma:
            a_move((slot_a[q], x), a2.transitions.get((q, x)), x, False)
            for x1 in a2.tape.letters:
                for marked in (False, True):
                    a_move((slot_a[q], name[(x1, x, marked)]),
                           a2.transitions.get((q, x1)), x, marked)
    # the freeze pass drops a's track, then seeks the marked front cell
    # and feeds it to b's start
    for x in sigma:
        t[(freezer, x)] = (freezer, name[(x, False)])
        for x1 in a2.tape.letters:
            for marked in (False, True):
                t[(freezer, name[(x1, x, marked)])] = (
                    freezer, name[(x, marked)])
    for y in b2.tape.letters:
        t[(freezer, name[(y, False)])] = (freezer, name[(y, False)])
        b_move((freezer, name[(y, True)]),
               b2.transitions.get((b2.start, y)), True)
    for q in sorted(b2.states - b2.accepting):
        for y in b2.tape.letters:
            for marked in (False, True):
                b_move((slot_b[q], name[(y, marked)]),
                       b2.transitions.get((q, y)), marked)

    return _reachable_as(
        a.input_alphabet, tape, start, (goal,), t.get, accepts_empty,
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
