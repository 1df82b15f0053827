"""Machines, DFAs and helpers shared across the test modules."""

import itertools
import random

from fr1tass.model import Machine, Mode, OrderedAlphabet, make_machine
from fr1tass.oracle import Counterexample, enumerate_accepted
from fr1tass.simulate import (Halted, HaltReason, RunResult, SweepCase,
                              SweepRecord, Verdict, accepts,
                              initial_configuration, step)
from fr1tass.transform import DfaSpec, from_dfa


def all_a():
    """Nonempty blocks of a."""
    return make_machine(
        sigma=("a",), tape=("a",), start="s0", accepting=("hit",),
        transitions={("s0", "a"): ("hit", "a")}, mode=Mode.AS)


def pure_loop():
    """Spins forever on any nonempty input."""
    return make_machine(
        sigma=("a",), tape=("a",), start="spin", accepting=(),
        transitions={("spin", "a"): ("spin", "a")}, mode=Mode.AS)


def parity_dfa(accept_even: bool) -> DfaSpec:
    return DfaSpec(
        alphabet=("a", "b"), states=frozenset({"e", "o"}), start="e",
        accepting=frozenset({"e" if accept_even else "o"}),
        transitions={(q, x): ("o" if q == "e" else "e")
                     for q in "eo" for x in "ab"})


def even_length():
    return from_dfa(parity_dfa(True))


def odd_length():
    return from_dfa(parity_dfa(False))


def starts_a_dfa() -> DfaSpec:
    """a followed by anything; no way to read a leading b."""
    return DfaSpec(
        alphabet=("a", "b"), states=frozenset({"s", "in"}), start="s",
        accepting=frozenset({"in"}),
        transitions={("s", "a"): "in", ("in", "a"): "in", ("in", "b"): "in"})


def two_hash_dfa() -> DfaSpec:
    """Words over #, a, b with exactly two #."""
    t = {}
    for i in range(3):
        for x in "ab":
            t[(f"h{i}", x)] = f"h{i}"
    t[("h0", "#")] = "h1"
    t[("h1", "#")] = "h2"
    return DfaSpec(
        alphabet=("#", "a", "b"), states=frozenset({"h0", "h1", "h2"}),
        start="h0", accepting=frozenset({"h2"}), transitions=t)


def words(sigma, max_len: int):
    """Every word over sigma up to max_len, shortest first."""
    for r in range(max_len + 1):
        yield from itertools.product(tuple(sigma), repeat=r)


def run_language(m, max_len: int) -> set:
    """Accepted words up to max_len, one full run per word."""
    return {w for w in words(sorted(m.input_alphabet), max_len)
            if accepts(m, w)}


def equivalent_by_sets(a, b, max_len: int):
    """The slow mirror of equivalent_up_to, by its definition: both
    languages up to max_len in full, and the first word of their symmetric
    difference by length, then letter by letter in a's tape order."""
    in_a = enumerate_accepted(a, max_len)
    in_b = enumerate_accepted(b, max_len)
    diff = in_a ^ in_b
    if not diff:
        return None
    w = min(diff, key=lambda w: (len(w), *map(a.tape.rank, w)))
    return Counterexample(word=w, in_first=w in in_a, in_second=w in in_b)


def random_machine(seed: int):
    """Seeded random freezing machine over up to three input letters, with
    up to two working letters, erasures, and either acceptance mode."""
    rng = random.Random(seed)
    sigma = ("a", "b", "c")[:rng.randint(1, 3)]
    tape = list(sigma) + ["X", "Y"][:rng.randint(0, 2)]
    rng.shuffle(tape)
    states = [f"q{i}" for i in range(rng.randint(1, 4))]
    transitions = {}
    for q in states:
        for rank, x in enumerate(tape):
            if rng.random() < 0.8:
                out = None if rng.random() < 0.3 else tape[rng.randint(0, rank)]
                transitions[(q, x)] = (rng.choice(states), out)
    mode = rng.choice((Mode.AS, Mode.ET))
    as_mode = mode is Mode.AS
    accepting = [q for q in states if as_mode and rng.random() < 0.3]
    return make_machine(sigma=sigma, tape=tape, start="q0",
                        accepting=accepting, transitions=transitions,
                        mode=mode, extra_states=states,
                        accepts_empty=as_mode and rng.random() < 0.3)


def census_machines():
    """Every machine over input and tape {a < b} with states {q0, q1} and
    start q0 whose cells are each empty, an erasure or a (state, output)
    pair with output at or below the letter read: 1,225 transition tables,
    each in ET mode and in AS mode with every nonempty accepting set, for
    4,900 machines."""
    states = ("q0", "q1")
    cells = {x: [None, *((q, out) for q in states for out in (None, *"ab"[:r]))]
             for r, x in enumerate("ab", 1)}
    keys = [(q, x) for q in states for x in "ab"]
    modes = [(Mode.ET, ())] + [(Mode.AS, acc)
                               for acc in (("q0",), ("q1",), states)]
    for choice in itertools.product(*(cells[x] for _, x in keys)):
        transitions = {k: v for k, v in zip(keys, choice) if v is not None}
        for mode, accepting in modes:
            yield make_machine(sigma="ab", tape="ab", start="q0",
                               accepting=accepting, transitions=transitions,
                               mode=mode, extra_states=states)


def undeclared_chain(k: int, loops: bool):
    """A machine built declaring only its start state s, which Machine
    completes with the states below.  On a, s steps through q1 .. qk,
    writing a back each time; qk then goes to the accepting state acc, or
    back to s when loops is set.  So a run on a nonempty word accepts
    after k + 1 steps or circles forever."""
    chain = ["s", *(f"q{i}" for i in range(1, k + 1)), "s" if loops else "acc"]
    return Machine(input_alphabet=frozenset("a"), tape=OrderedAlphabet(("a",)),
                   states=frozenset({"s"}), start="s",
                   accepting=frozenset({"acc"}), mode=Mode.AS,
                   transitions={(q, "a"): (q2, "a")
                                for q, q2 in zip(chain, chain[1:])})


def undeclared_et_pair():
    """An ET machine built declaring only its start state s.  On a, s goes
    to q1, writing a back, and q1 erases the a it reads on its way back to
    s.  So every word empties its tape."""
    return Machine(input_alphabet=frozenset("a"), tape=OrderedAlphabet(("a",)),
                   states=frozenset({"s"}), start="s", accepting=frozenset(),
                   mode=Mode.ET, transitions={("s", "a"): ("q1", "a"),
                                              ("q1", "a"): ("s", None)})


def flip_flop():
    """An ET machine that is not freezing: s erases a and swaps b and the
    working letter c above it.  So once a word's a's are gone its tape
    flips between two words for good.  Runs refuse it; step steps it."""
    return make_machine(sigma="ab", tape="abc", start="s", accepting=(),
                        transitions={("s", "a"): ("s", None),
                                     ("s", "b"): ("s", "c"),
                                     ("s", "c"): ("s", "b")},
                        mode=Mode.ET)


def rotating_countdown(sigma=None):
    """An ET machine over L0 < ... < L11 with no self-loop cell: p copies a
    letter and q counts the next one down a rank, erasing L0.  So every
    row steps long tapes by the chunk memo, and a seeded word over all
    twelve letters (the default sigma) files a new chunk almost every
    time."""
    tape = [f"L{i}" for i in range(12)]
    transitions = {("p", x): ("q", x) for x in tape}
    transitions.update({("q", x): ("p", tape[i - 1] if i else None)
                        for i, x in enumerate(tape)})
    return make_machine(sigma=tape if sigma is None else sigma, tape=tape,
                        start="p", accepting=(), transitions=transitions,
                        mode=Mode.ET)


def stepped_verdict(m, word) -> Verdict:
    """The verdict of m on word by single steps; a configuration met twice
    is a loop.  It counts no states, so it also holds for machines whose
    transitions name states they do not declare."""
    c = initial_configuration(m, word)
    seen = set()
    while (c.state, c.tape) not in seen:
        seen.add((c.state, c.tape))
        nxt = step(m, c)
        if isinstance(nxt, Halted):
            if nxt.reason is HaltReason.STUCK:
                return Verdict.REJECTED_STUCK
            if m.mode is Mode.AS and not (c.steps_taken == 0
                                          and m.accepts_empty):
                return Verdict.REJECTED_EMPTY_TAPE
            return Verdict.ACCEPTED
        if m.mode is Mode.AS and nxt.state in m.accepting:
            return Verdict.ACCEPTED
        c = nxt
    return Verdict.REJECTED_LOOP


def reference_run(m, word, max_steps: int = 10**6) -> RunResult:
    """The traced run of m on word, one step at a time.

    Loops are cut by the engine's rule: more unchanged sweep-start tapes in
    a row than m has states.  Each
    cut is certified against the sweep-start configurations already
    visited, and its loop_start is the sweep index and state of the first
    one the run met again.
    """
    state_count = len(m.states)
    c = initial_configuration(m, word)
    records, visited, loop_start = [], {}, None
    prev, unchanged = None, 0
    while c.steps_taken < max_steps:
        if c.steps_into_sweep == 0 and c.tape:
            if c.sweep_index == 1:
                case = None
            elif len(c.tape) < len(prev):
                case = SweepCase.SHRUNK
            elif c.tape == prev:
                case = SweepCase.UNCHANGED
            else:
                case = SweepCase.REWROTE
            unchanged = unchanged + 1 if case is SweepCase.UNCHANGED else 0
            records.append(SweepRecord(index=c.sweep_index, start_state=c.state,
                                       start_tape=c.tape, length=len(c.tape),
                                       case=case))
            key = c.state, c.tape
            if loop_start is None and key in visited:
                loop_start = visited[key], c.state
            if unchanged > state_count:
                assert key in visited, "loop cut without a repeat"
                return RunResult(Verdict.REJECTED_LOOP, c.state, records,
                                 c.steps_taken, c.sweep_index, loop_start)
            visited.setdefault(key, c.sweep_index)
            prev = c.tape
        nxt = step(m, c)
        if isinstance(nxt, Halted):
            if nxt.reason is HaltReason.STUCK:
                verdict, sweeps = Verdict.REJECTED_STUCK, c.sweep_index
            else:
                sweeps = c.sweep_index - 1
                verdict = Verdict.ACCEPTED
                if m.mode is Mode.AS and not (c.steps_taken == 0
                                              and m.accepts_empty):
                    verdict = Verdict.REJECTED_EMPTY_TAPE
            return RunResult(verdict, c.state, records, c.steps_taken, sweeps)
        if m.mode is Mode.AS and nxt.state in m.accepting:
            return RunResult(Verdict.ACCEPTED, nxt.state, records,
                             nxt.steps_taken, c.sweep_index)
        c = nxt
    raise AssertionError(f"no verdict within {max_steps} steps")
