"""Run semantics: verdicts, sweeps, step limits, traces."""

import itertools
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import (all_a, census_machines, flip_flop, pure_loop,
                    random_machine, random_unary_noaux, reference_run,
                    rotating_countdown, run_language, stepped_verdict,
                    undeclared_chain, words)
from fr1tass import simulate
from fr1tass.exceptions import LimitExceededError, PreconditionError
from fr1tass.gallery import (GALLERY, balance_ab_et, center_language,
                             marked_copy, power_of_two)
from fr1tass.model import Mode, make_machine, validate
from fr1tass.simulate import (Configuration, Halted, HaltReason, RunLimits,
                              RunResult, SweepCase, Verdict, accepts,
                              flatten_trace, initial_configuration, run, step,
                              sweep_bound)


def test_reference_run_accepts_four():
    result = run(power_of_two(), "aaaa", RunLimits(trace=True))
    assert result.verdict is Verdict.ACCEPTED
    assert result.accepted
    assert result.total_steps == 8
    assert result.total_sweeps == 4
    assert result.halting_state == "5"
    got = [(r.index, r.start_state, r.length, r.case, r.start_tape)
           for r in result.sweeps]
    assert got == [
        (1, "1", 4, None, ("a", "a", "a", "a")),
        (2, "3", 2, SweepCase.SHRUNK, ("A", "a")),
        (3, "3", 1, SweepCase.SHRUNK, ("A",)),
        (4, "2", 1, SweepCase.UNCHANGED, ("A",)),
    ]


def test_reference_run_sticks_on_three():
    result = run(power_of_two(), "aaa")
    assert result.verdict is Verdict.REJECTED_STUCK
    assert not result.accepted
    assert result.total_steps == 3
    assert result.total_sweeps == 2
    assert result.halting_state == "4"
    assert result.sweeps is None  # no trace requested


def test_empty_word_verdicts():
    assert run(power_of_two(), ()).verdict is Verdict.REJECTED_EMPTY_TAPE
    assert run(power_of_two(), ()).total_sweeps == 0
    flagged = make_machine(sigma=("a",), tape=("a",), start="s", accepting=(),
                           transitions={}, mode=Mode.AS, accepts_empty=True)
    assert run(flagged, ()).verdict is Verdict.ACCEPTED
    assert run(balance_ab_et(), ()).verdict is Verdict.ACCEPTED


def test_emptied_tape_rejects_in_halting_mode():
    eraser = make_machine(sigma=("a",), tape=("a",), start="s", accepting=("z",),
                          transitions={("s", "a"): ("s", None)}, mode=Mode.AS,
                          extra_states=("z",))
    result = run(eraser, "aaa")
    assert result.verdict is Verdict.REJECTED_EMPTY_TAPE
    assert result.total_steps == 3
    assert result.total_sweeps == 1


def test_emptied_tape_accepts_in_emptying_mode():
    eraser = make_machine(sigma=("a",), tape=("a",), start="s", accepting=(),
                          transitions={("s", "a"): ("s", None)}, mode=Mode.ET)
    assert accepts(eraser, "aaaa")


def test_loop_is_cut_off():
    result = run(pure_loop(), "a", RunLimits(trace=True))
    assert result.verdict is Verdict.REJECTED_LOOP
    # one state: two identical sweeps prove the cycle, cut at the third
    assert result.total_sweeps <= 3
    cases = [r.case for r in result.sweeps]
    assert cases[0] is None
    assert all(c is SweepCase.UNCHANGED for c in cases[1:])


def test_rewriting_forever_is_also_cut_off():
    # two letters of equal standing rewritten cyclically: a -> b -> a ...
    m = make_machine(
        sigma=("a", "b"), tape=("b", "a"), start="s", accepting=(),
        transitions={("s", "a"): ("s", "b"), ("s", "b"): ("s", "b")},
        mode=Mode.AS)
    result = run(m, "ab")
    assert result.verdict is Verdict.REJECTED_LOOP


def shrink_rewrite_circle():
    """On aaa: the first sweep erases a letter (Shrunk), the second rewrites
    Y to X (Rewrote), then state t copies XX until the loop cut."""
    return make_machine(
        sigma=("a",), tape=("X", "Y", "a"), start="s", accepting=(),
        mode=Mode.AS,
        transitions={("s", "a"): ("t", None), ("t", "a"): ("t", "Y"),
                     ("t", "Y"): ("t", "X"), ("t", "X"): ("t", "X")})


@pytest.mark.parametrize("gate", ["tuples", "bytes"])
def test_sweep_cases_and_loop_cut_in_order(monkeypatch, gate):
    if gate == "bytes":
        monkeypatch.setattr(simulate, "_BLOCK_MIN", 1)
    m = shrink_rewrite_circle()
    result = run(m, "aaa", RunLimits(trace=True))
    unchanged = [SweepCase.UNCHANGED] * (len(m.states) + 1)
    assert [r.case for r in result.sweeps] == [
        None, SweepCase.SHRUNK, SweepCase.REWROTE, *unchanged]
    assert [r.start_tape for r in result.sweeps] == [
        ("a", "a", "a"), ("Y", "Y"), *[("X", "X")] * (len(unchanged) + 1)]
    assert result.verdict is Verdict.REJECTED_LOOP
    assert (result.total_sweeps, result.total_steps) == (6, 11)
    assert result == reference_run(m, "aaa")


def circle(extra: int = 0):
    """States p and r each lead into q1 -> q2 -> q1 on a, writing a back;
    q1 and q2 erase b on their way to r.  So on a^3 the sweeps start in p,
    q1, q2, q1, and on a^3 b the tape shrinks to a^3 and they start in p,
    r, q1, q2, q1: a streak of unchanged tapes whose rows repeat with
    period 2 after one row.  extra unreachable states put the cut further
    on."""
    return make_machine(
        sigma="ab", tape="ab", start="p", accepting=(), mode=Mode.ET,
        extra_states=[f"z{i}" for i in range(extra)],
        transitions={("p", "a"): ("q1", "a"), ("r", "a"): ("q1", "a"),
                     ("q1", "a"): ("q2", "a"), ("q2", "a"): ("q1", "a"),
                     ("q1", "b"): ("r", None), ("q2", "b"): ("r", None)})


def assert_cut_matches_reference(m, w) -> RunResult:
    """The run of m on w, traced or not, against the step reference; a
    loop verdict also against step limits one short of it and at it."""
    expected = reference_run(m, w)
    result = run(m, w, RunLimits(trace=True))
    assert result == expected, w
    assert run(m, w) == replace(expected, sweeps=None), w
    assert (result.loop_start is None) is (
        result.verdict is not Verdict.REJECTED_LOOP), w
    if result.verdict is Verdict.REJECTED_LOOP:
        steps = result.total_steps
        with pytest.raises(LimitExceededError):
            run(m, w, RunLimits(max_steps=steps - 1, trace=True))
        assert run(m, w, RunLimits(max_steps=steps, trace=True)) == expected
    return result


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_loop_cut_after_a_pre_period(extra):
    m = circle(extra)
    cut = 4 + extra + 1  # unchanged tapes in a row at the cut
    # the rows repeat at sweep 4, two sweeps after q1 first came
    result = assert_cut_matches_reference(m, "aaa")
    assert result.loop_start == (2, "q1")
    assert result.total_sweeps == 1 + cut
    assert result.halting_state == ("q2", "q1")[cut % 2]
    # the streak starts on the shrunk tape, in r
    result = assert_cut_matches_reference(m, "aaab")
    assert [r.case for r in result.sweeps[:3]] == [
        None, SweepCase.SHRUNK, SweepCase.UNCHANGED]
    assert result.loop_start == (3, "q1")
    assert result.total_sweeps == 2 + cut
    assert result.total_steps == 4 + 3 * cut
    for w in words("ab", 6):
        assert_cut_matches_reference(m, w)


def test_loop_cut_on_the_census():
    loops = 0
    for m in census_machines():
        if m.mode is Mode.ET:
            for w in words("ab", 4):
                result = assert_cut_matches_reference(m, w)
                loops += result.verdict is Verdict.REJECTED_LOOP
    assert loops > 5000


def test_balance_rejects_lone_b_as_loop():
    assert run(balance_ab_et(), "b").verdict is Verdict.REJECTED_LOOP


def test_sweep_bound_reference_value():
    assert sweep_bound(power_of_two(), 8) == 102


def test_sweep_bound_formula():
    m = marked_copy()
    n = 5
    expected = (n + n * (len(m.tape) - 1) + 1) * (len(m.states) + 1)
    assert sweep_bound(m, n) == expected


def test_halting_runs_fit_the_bound():
    for name, build in GALLERY.items():
        m = build()
        for w in words(sorted(m.input_alphabet), 6):
            result = run(m, w)
            if result.verdict in (Verdict.ACCEPTED, Verdict.REJECTED_STUCK,
                                  Verdict.REJECTED_EMPTY_TAPE):
                assert result.total_sweeps <= sweep_bound(m, len(w)), (name, w)
                assert result.total_steps <= result.total_sweeps * max(len(w), 1), \
                    (name, w)
    # counting one letter down a rank per sweep
    tape = [f"L{i}" for i in range(10)]
    countdown = make_machine(
        sigma=tape[-1:], tape=tape, start="s", accepting=(), mode=Mode.ET,
        transitions={("s", x): ("s", tape[i - 1] if i else None)
                     for i, x in enumerate(tape)})
    assert validate(countdown) == []
    result = run(countdown, tape[-1:], RunLimits(trace=True))
    assert result == reference_run(countdown, tape[-1:])
    assert (result.verdict, result.total_sweeps) == (Verdict.ACCEPTED, 10)
    assert result.total_sweeps <= sweep_bound(countdown, 1)


def test_user_step_limit_raises():
    with pytest.raises(LimitExceededError):
        run(pure_loop(), "aaaa", RunLimits(max_steps=3))
    # a limit the run fits inside is silent
    assert run(power_of_two(), "aaaa", RunLimits(max_steps=8)).accepted


@pytest.mark.parametrize("gate", [1, sys.maxsize], ids=["blocks", "plain"])
@pytest.mark.parametrize("n", [3, 5, 33, 255])
def test_a_run_that_sticks_at_its_step_limit_keeps_its_verdict(
        monkeypatch, gate, n):
    """power_of_two sticks on a word of odd length n > 1 after n steps,
    with no step taken on the letter it sticks at: a limit of n steps
    returns that verdict in either sweep loop, and n - 1 raises."""
    monkeypatch.setattr(simulate, "_BLOCK_MIN", gate)
    m, w = power_of_two(), "a" * n
    expected = run(m, w, RunLimits(trace=True))
    assert (expected.verdict, expected.total_steps) == (
        Verdict.REJECTED_STUCK, n)
    assert run(m, w, RunLimits(max_steps=n, trace=True)) == expected
    with pytest.raises(LimitExceededError, match=f"^step limit of {n - 1} "):
        run(m, w, RunLimits(max_steps=n - 1))


@pytest.mark.parametrize("limit", [-1, -5])
def test_negative_step_limit_is_refused(limit):
    with pytest.raises(ValueError, match="^max_steps must be at least 0$"):
        RunLimits(max_steps=limit)
    # no step at all is a limit the empty word fits inside
    assert run(power_of_two(), "", RunLimits(max_steps=0)).total_steps == 0


def test_word_letters_are_checked():
    with pytest.raises(ValueError):
        run(power_of_two(), ("a", "z"))
    with pytest.raises(ValueError):
        run(power_of_two(), "A")  # working letter, not an input letter
    # at or above the gate too, where the run takes the block loop
    for w, bad in ((("a",) * 40 + ("A",), "A"), (("a",) * 65 + ("z",), "z")):
        with pytest.raises(ValueError,
                           match=f"letter '{bad}' not in the input alphabet"):
            run(power_of_two(), w)


def test_initial_configuration_and_step():
    m = power_of_two()
    c = initial_configuration(m, "aa")
    assert c == Configuration(state="1", tape=("a", "a"), steps_taken=0,
                              sweep_index=1, steps_into_sweep=0,
                              sweep_start_length=2)
    c = step(m, c)
    assert c.state == "2" and c.tape == ("a", "A")
    assert c.sweep_index == 1 and c.steps_into_sweep == 1
    c = step(m, c)
    # consumed the whole start tape: new sweep begins at once
    assert c.state == "3" and c.tape == ("A",)
    assert c.sweep_index == 2 and c.steps_into_sweep == 0
    assert c.sweep_start_length == 1
    c = step(m, c)
    assert c.state == "2" and c.sweep_index == 3
    c = step(m, c)
    assert c.state == "5"
    halted = step(m, c)
    assert isinstance(halted, Halted)
    assert halted.reason is HaltReason.STUCK


def test_step_reports_empty_tape():
    m = make_machine(sigma=("a",), tape=("a",), start="s", accepting=(),
                     transitions={("s", "a"): ("s", None)}, mode=Mode.ET)
    c = initial_configuration(m, "a")
    c = step(m, c)
    halted = step(m, c)
    assert isinstance(halted, Halted)
    assert halted.reason is HaltReason.EMPTY_TAPE


def test_step_agrees_with_run():
    m = marked_copy()
    word = tuple("#ab#ab")
    c = initial_configuration(m, word)
    steps = 0
    while isinstance(c, Configuration) and steps < 500:
        if m.mode is Mode.AS and steps and c.state in m.accepting:
            break
        c = step(m, c)
        steps += 1
    result = run(m, word)
    assert result.verdict is Verdict.ACCEPTED
    assert steps == result.total_steps
    assert c.state == result.halting_state


def test_flatten_trace_needs_plain_letters():
    assert flatten_trace(power_of_two(), "aa") is None  # uses working letter A
    assert flatten_trace(pure_loop(), "a") is None  # cut off as a loop


def test_flatten_trace_concatenates_sweep_starts():
    m = all_a()
    assert flatten_trace(m, "a") == ("a",)
    eraser = make_machine(sigma=("a",), tape=("a",), start="s", accepting=(),
                          transitions={("s", "a"): ("s", None)}, mode=Mode.ET)
    assert flatten_trace(eraser, "aaa") == ("a", "a", "a")
    keeper = make_machine(sigma=("a",), tape=("a",), start="s", accepting=(),
                          transitions={("s", "a"): ("s2", "a"),
                                       ("s2", "a"): ("s", None)}, mode=Mode.ET)
    # sweep tapes aa, a, a concatenate
    assert flatten_trace(keeper, "aa") == ("a", "a", "a", "a")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), states=st.integers(1, 6),
       length=st.integers(0, 12))
def test_random_unary_runs_always_reach_a_verdict(seed, states, length):
    m = random_unary_noaux(seed, states)
    result = run(m, ("a",) * length)
    assert result.verdict in set(Verdict)
    if result.verdict is not Verdict.REJECTED_LOOP:
        assert result.total_sweeps <= sweep_bound(m, length)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), states=st.integers(1, 5))
def test_flattened_accepted_inputs_stay_accepted(seed, states):
    m = random_unary_noaux(seed, states)
    if m.mode is not Mode.AS:
        return
    for w in run_language(m, 7):
        if not w:
            continue
        flat = flatten_trace(m, w)
        assert flat is not None
        assert accepts(m, flat), (seed, w, flat)


# ------------------------------------------- engine against step reference

def assert_matches_reference(m, max_len):
    for w in words(sorted(m.input_alphabet), max_len):
        assert run(m, w, RunLimits(trace=True)) == reference_run(m, w), w


def test_run_matches_step_reference_on_gallery():
    for build in GALLERY.values():
        assert_matches_reference(build(), 5)


@pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)])
def test_run_matches_step_reference_on_random_machines(seeds):
    for seed in seeds:
        m = random_machine(seed)
        assert validate(m) == []
        assert_matches_reference(m, 4)


def test_run_on_empty_tape_alphabet():
    for mode, accepts_empty in ((Mode.AS, False), (Mode.AS, True),
                                (Mode.ET, False)):
        m = make_machine(sigma=(), tape=(), start="s", accepting=(),
                         transitions={}, mode=mode, accepts_empty=accepts_empty)
        assert run(m, (), RunLimits(trace=True)) == reference_run(m, ())


def test_run_on_letters_off_the_tape():
    # unvalidated: input letter b and transition letter z are not on the tape
    m = make_machine(sigma=("a", "b"), tape=("a",), start="s", accepting=(),
                     transitions={("s", "a"): ("s", "a"),
                                  ("s", "z"): ("s", "a")}, mode=Mode.AS)
    assert validate(m) != []
    result = run(m, "ab")
    assert result.verdict is Verdict.REJECTED_STUCK
    assert (result.total_steps, result.total_sweeps) == (1, 1)
    assert_matches_reference(m, 4)


# ------------------------------------------------ queue runs against run

def assert_decide_matches_run(m, max_len):
    """_decide from the start of each nonempty word gives run's verdict,
    and so does _core with a verdict table that all the words share."""
    comp = simulate._compile(m)
    memo, chunk_memo = {}, {}
    for w in words(sorted(m.input_alphabet), max_len):
        if not w:
            continue  # a queue run has taken a step; the empty word takes none
        expected = run(m, w).verdict
        codes = [comp.code[x] for x in w]
        got = simulate._decide(comp, comp.start, list(codes))
        assert got is expected, w
        passed = []
        verdict, row, _, _, _ = simulate._core(
            comp, comp.start, comp.key_of(codes), None, None, chunk_memo, memo,
            passed)
        assert verdict is expected, w
        if row is not None:
            # the table did not give it: the first boundary met is the
            # start, keyed with a bytes tape
            assert passed[0] == (comp.start, bytes(codes)), w
        for key in passed:
            memo[key] = verdict


def test_queue_runs_match_run():
    for build in GALLERY.values():
        assert_decide_matches_run(build(), 6)
    for seed in range(200):
        assert_decide_matches_run(random_machine(seed), 4)
    for k in (2, 5, 20):
        for loops in (False, True):
            assert_decide_matches_run(undeclared_chain(k, loops), 6)


def test_queue_run_bounds_its_loop_cut_by_its_queue():
    """_decide cuts a loop in its first chunk that writes back every letter
    it reads, of len(states) steps per letter of its queue at entry: on
    pure_loop's one-letter queue, after one append per state."""
    class CountedQueue(list):
        appends = 0

        def append(self, code):
            self.appends += 1
            super().append(code)

    comp = simulate._compile(pure_loop())
    queue = CountedQueue([comp.code["a"]])
    assert simulate._decide(comp, comp.start, queue) is Verdict.REJECTED_LOOP
    assert queue.appends == len(comp.states)


@pytest.mark.parametrize("k", [2, 5, 20])
@pytest.mark.parametrize("loops", [False, True], ids=["accepts", "loops"])
def test_runs_count_undeclared_states(k, loops):
    m = undeclared_chain(k, loops)
    assert m.states == {"s", "acc", *(f"q{i}" for i in range(1, k + 1))}
    for n in range(1, 8):
        expected = stepped_verdict(m, "a" * n)
        assert expected is (Verdict.REJECTED_LOOP if loops
                            else Verdict.ACCEPTED)
        result = run(m, "a" * n, RunLimits(trace=True))
        assert result.verdict is expected, n
        assert result == reference_run(m, "a" * n)
        if not loops:
            assert result.total_steps == k + 1


# ------------------------------------------------- block path on long tapes

@pytest.fixture
def blocks_everywhere(monkeypatch):
    """Machines compiled under it step every nonempty tape in the block
    loop, and chunk rows step two letters per memo lookup, so block copies
    and chunk memo hits happen on short words."""
    monkeypatch.setattr(simulate, "_BLOCK_MIN", 1)
    monkeypatch.setattr(simulate, "_CHUNK", 2)


@pytest.fixture
def built_tables(monkeypatch) -> list:
    """The compiled machines whose block tables a run builds, which it
    does on its first sweep in the block loop."""
    built = []
    tables = simulate._block_tables
    monkeypatch.setattr(simulate, "_block_tables",
                        lambda comp: built.append(comp) or tables(comp))
    return built


def test_run_matches_step_reference_on_gallery_with_blocks_everywhere(
        blocks_everywhere):
    test_run_matches_step_reference_on_gallery()


@pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)])
def test_run_matches_step_reference_on_random_machines_with_blocks_everywhere(
        blocks_everywhere, seeds):
    test_run_matches_step_reference_on_random_machines(seeds)


def long_words(m, seed: int, count: int):
    """Seeded words of length 40 to 120 over m's input alphabet."""
    rng = random.Random(seed)
    sigma = sorted(m.input_alphabet)
    return [tuple(rng.choice(sigma) for _ in range(rng.randint(40, 120)))
            for _ in range(count)]


def sweep_lengths(m, w) -> tuple:
    """(verdict, sweep-start lengths) of the run of m on w, checked record
    for record against the step reference."""
    result = run(m, w, RunLimits(trace=True))
    assert result == reference_run(m, w), w
    return result.verdict, [r.length for r in result.sweeps]


def test_long_words_match_step_reference_on_gallery():
    for name, build in GALLERY.items():
        m = build()
        ws = long_words(m, 1, 6)
        if name == "marked_copy":
            ws += [("#",) + u + ("#",) + u for u in long_words(balance_ab_et(), 2, 4)]
        if name == "balance_ab_et":
            ws += [("a",) * 30 + ("b",) * 30, ("b",) * 25 + ("a",) * 26,
                   ("a",) * 40 + ("b",) * 38]
        for w in ws:
            sweep_lengths(m, w)


def test_long_words_match_step_reference_on_random_machines(monkeypatch):
    # a gate inside the word lengths, so that runs cross it
    monkeypatch.setattr(simulate, "_BLOCK_MIN", 32)
    crossed = loops_after = loops_above = 0
    for seed in range(100):
        m = random_machine(seed)
        if not m.input_alphabet:
            continue
        for w in long_words(m, seed, 3):
            verdict, lengths = sweep_lengths(m, w)
            if simulate._compile(m).gate > lengths[0]:
                continue
            looped = verdict is Verdict.REJECTED_LOOP
            below = lengths[-1] < 32
            crossed += below
            loops_after += looped and below
            loops_above += looped and not below
    # runs that shrink below the gate, and loops cut on either side of it
    assert crossed and loops_after and loops_above


def block_edges(m, w) -> set:
    """Step counts at which the run of m on w leaves a state."""
    c, edges = initial_configuration(m, w), set()
    while isinstance(c, Configuration):
        nxt = step(m, c)
        if isinstance(nxt, Configuration) and nxt.state != c.state:
            edges.add(c.steps_taken)
        c = nxt
    return edges


def limited(m, w, k, trace=True):
    try:
        return run(m, w, RunLimits(max_steps=k, trace=trace))
    except LimitExceededError as e:
        return str(e)


POWER_LENGTHS = (64, 65, 96, 127, 128, 131)


@pytest.mark.parametrize("build, word", [
    (balance_ab_et, ("a",) * 40 + ("b",) * 40),
    (center_language, tuple("abbabaabbbabaabababbbbaabababbaaabbbabaaabbbababbaa")),
    *((power_of_two, ("a",) * n) for n in POWER_LENGTHS),
], ids=["balance", "center", *(f"power_of_two-{n}" for n in POWER_LENGTHS)])
def test_step_limits_around_block_edges(monkeypatch, build, word):
    """Every step limit within three steps of a state change and every one
    up to 2n + 2 on a word of n letters.  On power_of_two, which has no
    self-loop cell, they fall inside and on the edges of memo chunks, and
    its odd words stick on a chunk being filled."""
    ks = {k for e in block_edges(build(), word) for k in range(e - 3, e + 4)}
    ks |= set(range(2 * len(word) + 3))
    got = {}
    for gate in (1, sys.maxsize):
        monkeypatch.setattr(simulate, "_BLOCK_MIN", gate)
        m = build()
        got[gate] = [limited(m, word, k) for k in sorted(ks) if k >= 0]
    assert got[1] == got[sys.maxsize]
    assert any(isinstance(x, str) for x in got[1])
    assert any(not isinstance(x, str) for x in got[1])


def halving(letters: int):
    """State s rewrites each Li as L(i // 2) and erases L0 on its way to
    t, which copies one letter and returns to s."""
    tape = tuple(f"L{i}" for i in range(letters))
    transitions = {("s", x): ("s", tape[i // 2]) for i, x in enumerate(tape)}
    transitions[("s", "L0")] = ("t", None)
    transitions.update({("t", x): ("s", x) for x in tape})
    return make_machine(sigma=tape, tape=tape, start="s", accepting=(),
                        transitions=transitions, mode=Mode.ET)


@pytest.mark.parametrize("letters, blocks", [(256, True), (257, False)])
def test_block_path_needs_byte_codes(built_tables, letters, blocks):
    m = halving(letters)
    assert validate(m) == []
    # every letter code, among them those the regex must escape
    w = tuple(random.Random(letters).sample(m.tape.letters, 256))
    assert run(m, w, RunLimits(trace=True)) == reference_run(m, w)
    assert bool(built_tables) is blocks


def test_loop_free_machines_take_the_bytes_path(built_tables):
    m = power_of_two()
    for n in (64, 96):
        assert run(m, ("a",) * n, RunLimits(trace=True)) == \
            reference_run(m, ("a",) * n)
    assert built_tables == [simulate._compile(m)]


def test_runs_keep_no_chunk_memo():
    """The chunk memo lives for one run, which makes it afresh: later runs
    find the machine and its compiled tables as the first long tape left
    them."""
    m = power_of_two()
    run(m, ("a",) * 64)
    comp = simulate._compile(m)
    before = {**vars(m)}, {**vars(comp)}
    for n in (96, 128, 131):
        run(m, ("a",) * n)
    for held, was in zip((vars(m), vars(comp)), before):
        assert held.keys() == was.keys()
        assert all(held[k] is v for k, v in was.items())
    assert comp.blocks[2] == {}  # power_of_two has no block to copy


@pytest.mark.parametrize("chunk", [4, 32])
@pytest.mark.parametrize("cap", [0, 1, simulate._CHUNK_MEMO_MAX],
                         ids=["cap0", "cap1", "default"])
def test_countdown_matches_step_reference_under_chunk_memo_caps(
        monkeypatch, cap, chunk):
    """Every sweep of the countdown machine on a long seeded word steps
    by the chunk memo, which files no chunk, one chunk or all it meets.
    Step limits at each chunk edge of each sweep, and a step to either
    side, stop the run exactly when the reference takes more steps."""
    monkeypatch.setattr(simulate, "_CHUNK_MEMO_MAX", cap)
    monkeypatch.setattr(simulate, "_CHUNK", chunk)
    m = rotating_countdown()
    for w in long_words(m, 5, 4):
        expected = reference_run(m, w)
        assert run(m, w, RunLimits(trace=True)) == expected
        # a chunk row's sweep steps chunks from its first letter
        starts = itertools.accumulate(r.length for r in expected.sweeps)
        edges = {s + j for s, r in zip((0, *starts), expected.sweeps)
                 for j in range(0, r.length + chunk, chunk)}
        for k in sorted({e + d for e in edges for d in (-1, 0, 1)} - {-1}):
            if k < expected.total_steps:
                with pytest.raises(LimitExceededError):
                    run(m, w, RunLimits(max_steps=k))
            else:
                assert run(m, w, RunLimits(max_steps=k, trace=True)) == \
                    expected


# ------------------------------------------------- sweep jumps on long tapes

@pytest.fixture
def jumped(monkeypatch) -> list:
    """The sweeps each jump of an untraced run skipped, in order; the block
    loop stepped the others."""
    sweeps = []
    jump = simulate._jump

    def counted(*args):
        found = jump(*args)
        if found:
            sweeps.append(found[0])
        return found

    monkeypatch.setattr(simulate, "_jump", counted)
    return sweeps


def assert_untraced_matches_reference(m, w, limits=()) -> RunResult:
    """The untraced run of m on w against the step reference: verdict,
    state, steps, sweeps and loop_start.  Under step limits 0, one step to
    either side of the run's steps, at them and at limits, it gives the
    result or raises the error of the traced run, whose block loop steps
    every sweep: the result from the run's steps on, a run that sticks
    included, and the error below them."""
    expected = replace(reference_run(m, w), sweeps=None)
    assert run(m, w) == expected, w
    steps = expected.total_steps
    for k in {0, steps - 1, steps, steps + 1, *limits} - {-1}:
        traced = limited(m, w, k)
        if k >= steps:
            assert replace(traced, sweeps=None) == expected, (w, k)
        else:
            assert traced == f"step limit of {k} exhausted"
        assert limited(m, w, k, trace=False) == (
            traced if isinstance(traced, str) else
            replace(traced, sweeps=None)), (w, k)
    return expected


def sweep_edges(m, w) -> set:
    """The steps at which the run of m on w starts a sweep, and one step to
    either side of each."""
    starts = itertools.accumulate(
        (r.length for r in reference_run(m, w).sweeps), initial=0)
    return {s + d for s in starts for d in (-1, 0, 1)}


def block_words(i: int, j: int) -> list:
    """a^i b^j, b^j a^i and a^i b^j a^(j // 2)."""
    return [("a",) * i + ("b",) * j, ("b",) * j + ("a",) * i,
            ("a",) * i + ("b",) * j + ("a",) * (j // 2)]


def test_sweep_jumps_on_balance_match_step_reference(jumped):
    m = balance_ab_et()
    counts = (0, 1, 2, 15, 16, 17, 31, 32, 33, 40)
    for i, j in itertools.product(counts, counts):
        for w in block_words(i, j):
            assert_untraced_matches_reference(m, w)
    assert jumped
    # a^40 b^40 takes 40 sweeps, each erasing one a and one b.  The block
    # loop steps the first, which has no sweep before it, one jump the next
    # 38, and the loop for short tapes the last.
    jumped.clear()
    w = block_words(40, 40)[0]
    # limits inside the jump raise where the block loop's do
    expected = assert_untraced_matches_reference(m, w, sweep_edges(m, w))
    assert expected.total_sweeps == 40 and set(jumped) == {38}


def few_run_words(m, seed: int, count: int, longest: int = 40) -> list:
    """Seeded words of 1 to 5 runs of one letter over m's input alphabet,
    each run of 1 to longest letters."""
    rng = random.Random(seed)
    sigma = sorted(m.input_alphabet)
    return [tuple(x for _ in range(rng.randint(1, 5))
                  for x in [rng.choice(sigma)] * rng.randint(1, longest))
            for _ in range(count)]


def test_sweep_jumps_on_few_run_words_match_step_reference(jumped):
    for seed in range(400):
        m = random_machine(seed)
        if m.input_alphabet:
            for w in few_run_words(m, seed, 4):
                assert_untraced_matches_reference(m, w)
    random_jumps = len(jumped)
    for k, m in enumerate(census_machines()):
        if k % 5 == 0:
            for w in few_run_words(m, k, 2):
                assert_untraced_matches_reference(m, w)
    assert random_jumps and len(jumped) > random_jumps


def test_sweep_jump_over_a_growing_run(jumped):
    """On X^k a^i b^j the sweep copies the X's, turns the first a into an
    X, copies the other a's, erases the first b and copies the other b's:
    each sweep moves the counts by (+1, -1, -1)."""
    m = make_machine(sigma="Xab", tape="Xab", start="p", accepting=(),
                     mode=Mode.ET,
                     transitions={("p", "X"): ("p", "X"),
                                  ("p", "a"): ("q", "X"),
                                  ("q", "a"): ("q", "a"),
                                  ("q", "b"): ("p", None),
                                  ("p", "b"): ("p", "b")})
    for k, i, j in ((1, 30, 40), (5, 40, 35), (3, 50, 50)):
        w = ("X",) * k + ("a",) * i + ("b",) * j
        assert_untraced_matches_reference(m, w, sweep_edges(m, w))
    assert jumped


@pytest.mark.parametrize("i", [40, 41])
def test_sweep_jump_up_to_a_stuck_sweep(jumped, i):
    """From r, the sweep erases two a's through u and q, copies the other
    a's in q, erases a b on its way back to r and copies the other b's:
    the counts move by (-2, -1).  The jump stops with one a left, whose
    sweep then reads a b in u and sticks, or two, which the walk's tail
    takes whole, so that r copies the b's for good.  The last sweeps are
    below the gate with 40 b's and above it with 80, where a limit inside
    the jump must still raise and one at the sticking step must not."""
    m = make_machine(sigma="ab", tape="ab", start="r", accepting=(),
                     mode=Mode.ET,
                     transitions={("r", "a"): ("u", None),
                                  ("u", "a"): ("q", None),
                                  ("q", "a"): ("q", "a"),
                                  ("q", "b"): ("r", None),
                                  ("r", "b"): ("r", "b")})
    for j in (40, 80):
        jumped.clear()
        w = ("a",) * i + ("b",) * j
        expected = assert_untraced_matches_reference(m, w, sweep_edges(m, w))
        assert expected.verdict is (Verdict.REJECTED_STUCK if i % 2
                                    else Verdict.REJECTED_LOOP)
        assert set(jumped) == {(i - 3) // 2}


def test_sweep_jump_over_a_run_its_walk_takes_whole(jumped):
    """From r, the sweep copies the first c's, turns bb into bb through s
    and t, which reaches t's self-loop cell on b only with the run gone,
    and erases the first of the last c's on its way back to r: the counts
    move by (0, 0, -1), and the run of two b's is stepped letter by
    letter."""
    m = make_machine(sigma="bc", tape="cb", start="r", accepting=(),
                     mode=Mode.ET,
                     transitions={("r", "c"): ("r", "c"),
                                  ("r", "b"): ("s", "b"),
                                  ("s", "b"): ("t", "b"),
                                  ("t", "b"): ("t", "c"),
                                  ("t", "c"): ("r", None)})
    w = ("c",) * 30 + ("b",) * 2 + ("c",) * 40
    assert_untraced_matches_reference(m, w, sweep_edges(m, w))
    assert set(jumped) == {38}


def test_tries_that_find_no_pattern_back_off(monkeypatch):
    """On these words one c moves between two places from sweep to
    sweep, so no sweep repeats the pattern of the one before and every
    try fails: after k failed tries in a row the next 2**k - 1 boundaries
    pass untried."""
    m = make_machine(sigma="acd", tape="acd", start="p", accepting=(),
                     mode=Mode.ET,
                     transitions={("p", "a"): ("q", "a"),
                                  ("p", "c"): ("p", "a"),
                                  ("p", "d"): ("p", "d"),
                                  ("q", "a"): ("q", "a"),
                                  ("q", "c"): ("p", None),
                                  ("q", "d"): ("p", "c")})
    tries = []
    jump = simulate._jump
    monkeypatch.setattr(simulate, "_jump",
                        lambda *args: tries.append(jump(*args)) or tries[-1])
    for counts in ((40, 20, 20, 5, 20), (40, 30, 20, 9, 60)):
        w = tuple(x for x, k in zip("adacd", counts) for _ in range(k))
        assert_untraced_matches_reference(m, w)
        tries.clear()
        result = run(m, w)
        assert tries and set(tries) == {()}
        assert len(tries) <= result.total_sweeps.bit_length()


def test_balance_runs_on_120000_letters_jump(jumped):
    """The balance runs on 120,000 letters that the console script is
    checked on: 60,000 sweeps each, all but a few of them jumped."""
    m, k = balance_ab_et(), 60000
    w = ("a",) * k + ("b",) * k
    result = run(m, w)
    assert (result.verdict, result.total_steps, result.total_sweeps,
            result.halting_state) == (Verdict.ACCEPTED, 3600060000, k, "1")
    result = run(m, ("a",) * 2 + w)
    assert (result.verdict, result.total_steps, result.total_sweeps,
            result.halting_state) == (Verdict.REJECTED_LOOP, 3600180005,
                                      k + 5, "2")
    for limit in (10**9, 3600059999):
        with pytest.raises(LimitExceededError,
                           match=f"^step limit of {limit} exhausted$"):
            run(m, w, RunLimits(max_steps=limit))
    assert run(m, w, RunLimits(max_steps=3600060000)).accepted
    assert sum(jumped) >= 5 * (k - 2)


@pytest.mark.parametrize("build, word", [
    (power_of_two, "a" * 40),
    (balance_ab_et, ("a", "b") * 20),
    (center_language, "ab" * 3 + "a"),
    (rotating_countdown, ("L11", "L3") * 20),
])
def test_words_are_coded_alike_by_translate_and_by_map(monkeypatch, build,
                                                        word):
    """bytes.translate codes a word of one-character Latin-1 letters; any
    other word takes the map over input_code, whose errors name the first
    letter not in the input alphabet."""
    m = build()
    sigma = sorted(m.input_alphabet)
    bad = [(*word, "z"), ("",) + tuple(word[1:]),
           ("", sigma[0] + sigma[0]), (sigma[0], 5), ("ā",)]
    got = {}
    for path in ("translate", "map"):
        if path == "map":
            comp = replace(simulate._compile(m), input_bytes=None)
            monkeypatch.setattr(simulate, "_compile", lambda m: comp)
        outcomes = [run(m, word), run(m, tuple(word))]
        for w in bad:
            with pytest.raises(ValueError) as error:
                run(m, w)
            outcomes.append(str(error.value))
        got[path] = outcomes
    assert got["translate"] == got["map"]
    assert got["map"][2:] == [
        "letter 'z' not in the input alphabet",
        "letter '' not in the input alphabet",
        "letter '' not in the input alphabet",
        "letter 5 not in the input alphabet",
        "letter 'ā' not in the input alphabet"]


# ------------------------------------------- machines that are not freezing

@pytest.mark.parametrize("n", [1, 2, simulate._BLOCK_MIN, 40])
def test_run_refuses_a_machine_that_is_not_freezing(built_tables, n):
    m, w = flip_flop(), "b" * n
    assert validate(m) != []
    # a step limit of 0 would stop the first step: the refusal comes first
    for limits in (RunLimits(max_steps=0), None):
        with pytest.raises(PreconditionError,
                           match="^not freezing: transition s b -> s c "):
            run(m, w, limits)
    with pytest.raises(PreconditionError, match="s b -> s c"):
        sweep_bound(m, n)
    assert built_tables == [] and m._compiled is None
    # step, the reference engine, still steps it
    c = step(m, initial_configuration(m, w))
    assert c.tape == ("b",) * (n - 1) + ("c",)
