"""End-to-end acceptance checks.

Each test covers one headline capability and prints a single pass/fail
line; the lines are echoed to the terminal after the module finishes so
they survive output capture.
"""

import itertools
import random

import pytest

from common import (all_a, even_length, odd_length, pure_loop,
                    random_unary_noaux, starts_a_dfa, two_hash_dfa, words)
from fr1tass.gallery import (GALLERY, balance_ab_et, center_language,
                             marked_copy, power_of_two)
from fr1tass.model import (Machine, Mode, OrderedAlphabet, ParseError,
                           ViolationCode, make_machine, parse_machine,
                           serialize_machine, validate)
from fr1tass.oracle import (classify_unary_noaux, enumerate_accepted,
                            equivalent_up_to, is_balanced_ab, is_center_a,
                            is_marked_copy, matches_predicate_up_to)
from fr1tass.pcp import (PcpInstance, encode_pcp_candidate, pcp_machine,
                         pcp_solution_encoding)
from fr1tass.simulate import (Halted, RunLimits, Verdict, accepts,
                              flatten_trace, initial_configuration, run, step,
                              sweep_bound)
from fr1tass.transform import (DfaSpec, as_to_et, complement, dfa_accepts,
                               et_to_as, from_dfa, intersect,
                               intersect_sequential, remove_erasing, union,
                               union_sequential)

INSTANCE = PcpInstance(u_words=("a", "ab"), v_words=("aa", "b"),
                       base_alphabet=("a", "b"))

REPORT: list = []


def report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    REPORT.append(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _echo_report(request):
    yield
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.ensure_newline()
        for line in REPORT:
            reporter.write_line(line)


def input_letters(m: Machine):
    return tuple(sorted(m.input_alphabet, key=m.tape.rank))


def test_criterion_01_power_of_two_blocks():
    got = enumerate_accepted(power_of_two(), 16)
    want = {tuple("a" * n) for n in (1, 2, 4, 8, 16)}
    report(1, "power-of-two blocks enumerate exactly up to length 16",
           got == want, f"{len(got)} words")


def test_criterion_02_marked_copy_predicate():
    cex = matches_predicate_up_to(marked_copy(), is_marked_copy, 14)
    report(2, "marked copy language matches its predicate up to length 14",
           cex is None, "no counterexample" if cex is None else str(cex))


def test_criterion_03_center_language_and_marking_position():
    m = center_language()
    cex = matches_predicate_up_to(m, is_center_a, 11)
    lined = {"a~", "a'~", "^a~", "b~", "b'~", "^b~"}
    mismatches = 0
    checked = 0
    for n in range(1, 13):
        for word in itertools.product("ab", repeat=n):
            result = run(m, word, RunLimits(trace=True))
            tape = result.sweeps[-1].start_tape
            frontier = next((i for i, x in enumerate(tape) if x not in lined),
                            len(tape))
            checked += 1
            if frontier != n // 2:
                mismatches += 1
    report(3, "center machine matches its predicate and marks the middle",
           cex is None and mismatches == 0,
           f"{checked} words, {mismatches} frontier mismatches")


def test_criterion_04_mode_bridges_preserve_languages():
    ok = True
    details = []
    for build in (power_of_two, marked_copy, center_language):
        m = build()
        want = enumerate_accepted(m, 12) - {()}
        got = enumerate_accepted(as_to_et(m), 12) - {()}
        ok &= got == want
        details.append(f"{build.__name__}:{len(want)}")
        lifted = remove_erasing(m)
        ok &= not lifted.has_erasing()
        ok &= enumerate_accepted(lifted, 12) == enumerate_accepted(m, 12)
    balance = balance_ab_et()
    ok &= (enumerate_accepted(et_to_as(balance), 10)
           == enumerate_accepted(balance, 10))
    report(4, "mode bridges and erasure removal preserve languages", ok,
           " ".join(details))


def test_criterion_05_boolean_closure():
    pairs = [
        (power_of_two(), all_a()),
        (even_length(), odd_length()),
        (even_length(), from_dfa(starts_a_dfa())),
        (center_language(), et_to_as(balance_ab_et())),
        (marked_copy(), from_dfa(two_hash_dfa())),
        (center_language(), from_dfa(starts_a_dfa())),
    ]
    ok = True
    for a, b in pairs:
        la, lb = enumerate_accepted(a, 8), enumerate_accepted(b, 8)
        ok &= enumerate_accepted(intersect(a, b), 8) == la & lb
        ok &= enumerate_accepted(union(a, b), 8) == la | lb

    base = remove_erasing(power_of_two())
    ok &= (enumerate_accepted(complement(complement(base)), 8)
           == enumerate_accepted(base, 8))
    even, first_a = even_length(), from_dfa(starts_a_dfa())
    lhs = complement(union(even, first_a))
    rhs = intersect(complement(remove_erasing(even)),
                    complement(remove_erasing(first_a)))
    ok &= equivalent_up_to(lhs, rhs, 6) is None

    lean = 0
    for a, b in (pairs[0], pairs[1], pairs[2]):
        bound = max(len(remove_erasing(a).states),
                    len(remove_erasing(b).states)) + 3
        meet, join = intersect_sequential(a, b), union_sequential(a, b)
        ok &= len(meet.states) <= bound and len(join.states) <= bound
        ok &= (enumerate_accepted(meet, 8)
               == enumerate_accepted(intersect(a, b), 8))
        ok &= (enumerate_accepted(join, 8)
               == enumerate_accepted(union(a, b), 8))
        lean += 2
    report(5, "products, complement, and lean products respect set semantics",
           ok, f"{len(pairs)} pairs, {lean} lean machines within bound")


def test_criterion_06_dfa_embedding():
    rng = random.Random(20260815)
    ok = True
    for _ in range(25):
        states = tuple(f"q{i}" for i in range(rng.randint(1, 6)))
        table = {(q, x): rng.choice(states) for q in states for x in "ab"}
        accepting = tuple(q for q in states if rng.random() < 0.4)
        d = DfaSpec(alphabet=("a", "b"), states=states, start="q0",
                    accepting=accepting, transitions=table)
        m = from_dfa(d)
        ok &= validate(m) == []
        want = {w for w in words("ab", 10) if dfa_accepts(d, w)}
        ok &= enumerate_accepted(m, 10) == want
    report(6, "random complete DFAs embed with identical languages", ok,
           "25 machines, words up to length 10")


def test_criterion_07_sweep_bounds():
    ok = sweep_bound(power_of_two(), 8) == 102
    checked = 0
    for build in GALLERY.values():
        m = build()
        for word in words(input_letters(m), 10):
            result = run(m, word)
            if result.verdict is Verdict.REJECTED_LOOP:
                continue
            checked += 1
            n = len(word)
            ok &= result.total_sweeps <= sweep_bound(m, n)
            ok &= result.total_steps <= result.total_sweeps * max(n, 1)
    tall = run(power_of_two(), tuple("a" * 16))
    ok &= tall.accepted and tall.total_sweeps <= 22
    report(7, "halting runs respect the sweep and step bounds", ok,
           f"{checked} runs")


def two_state_cycle() -> Machine:
    return make_machine(sigma=("a",), tape=("a",), start="s", accepting=(),
                        mode=Mode.AS,
                        transitions={("s", "a"): ("t", "a"),
                                     ("t", "a"): ("s", "a")})


def genuinely_loops(m: Machine, word, cap: int = 5000) -> bool:
    """Certify divergence: a repeated sweep-boundary snapshot of a
    deterministic machine proves the run never halts."""
    cfg = initial_configuration(m, word)
    seen = {(cfg.state, cfg.tape)}
    last = cfg.sweep_index
    for _ in range(cap):
        nxt = step(m, cfg)
        if isinstance(nxt, Halted):
            return False
        cfg = nxt
        if (m.mode is Mode.AS and cfg.steps_taken >= 1
                and cfg.state in m.accepting):
            return False
        if cfg.sweep_index > last:
            last = cfg.sweep_index
            snapshot = (cfg.state, cfg.tape)
            if snapshot in seen:
                return True
            seen.add(snapshot)
    return False


def test_criterion_08_loop_detection():
    ok = True
    for n in (1, 2, 3):
        result = run(pure_loop(), tuple("a" * n))
        ok &= result.verdict is Verdict.REJECTED_LOOP
        ok &= result.total_sweeps == 3  # one state: cut after 1 + |Q| + 1
    ok &= run(two_state_cycle(), ("a",)).total_sweeps == 4
    loops = 0
    suspects = [pure_loop(), two_state_cycle(), balance_ab_et(),
                center_language(), power_of_two(), marked_copy()]
    for m in suspects:
        for word in words(input_letters(m), 6):
            if run(m, word).verdict is Verdict.REJECTED_LOOP:
                loops += 1
                ok &= genuinely_loops(m, word)
    report(8, "loop verdicts fire promptly and only on genuine cycles", ok,
           f"{loops} loop verdicts certified")


def test_criterion_09_pcp_encodings():
    m = pcp_machine(INSTANCE)
    pred = pcp_solution_encoding(INSTANCE)
    ok = accepts(m, encode_pcp_candidate(INSTANCE, [1, 2]))
    ok &= not accepts(m, encode_pcp_candidate(INSTANCE, [1]))
    ok &= not pred(encode_pcp_candidate(INSTANCE, [1]))
    ok &= not pred(encode_pcp_candidate(INSTANCE, [2]))
    ok &= pred(encode_pcp_candidate(INSTANCE, [1, 2]))

    structural = set()
    for length in itertools.count(1):
        encodings = [encode_pcp_candidate(INSTANCE, seq)
                     for seq in itertools.product(
                         range(1, INSTANCE.size + 1), repeat=length)]
        fitting = [e for e in encodings if len(e) <= 9]
        if not fitting:
            break
        structural.update(e for e in fitting if pred(e))
    got = enumerate_accepted(m, 9)
    ok &= got == structural == set()
    ok &= matches_predicate_up_to(m, pred, 6) is None
    report(9, "correspondence machine accepts exactly solution encodings",
           ok, "shortest solution has length 11")


def test_criterion_10_unary_analysis_and_flattening():
    ok = matches_predicate_up_to(balance_ab_et(), is_balanced_ab, 10) is None

    flattened = 0
    fixtures = [all_a()]
    fixtures += [m for m in (random_unary_noaux(seed, 4) for seed in range(30))
                 if m.mode is Mode.AS]
    for m in fixtures:
        for word in enumerate_accepted(m, 8):
            flat = flatten_trace(m, word)
            ok &= flat is not None and accepts(m, flat)
            flattened += 1
    solution = encode_pcp_candidate(INSTANCE, [1, 2])
    flat = flatten_trace(pcp_machine(INSTANCE), solution)
    ok &= flat is not None and accepts(pcp_machine(INSTANCE), flat)
    flattened += 1

    agreed = True
    for seed in range(200):
        m = random_unary_noaux(seed, 4)
        c = classify_unary_noaux(m)
        want = {n for n in range(26) if accepts(m, tuple("a" * n))}
        agreed &= {n for n in range(26) if c.member(n)} == want
    ok &= agreed
    report(10, "balance, trace flattening, and the unary classifier hold",
           ok, f"{flattened} flattened runs, 200 classified machines")


def test_criterion_11_serialization_and_validation():
    machines = [build() for build in GALLERY.values()]
    machines += [
        pcp_machine(INSTANCE),
        remove_erasing(power_of_two()),
        as_to_et(center_language()),
        et_to_as(balance_ab_et()),
        intersect(even_length(), odd_length()),
        union(even_length(), from_dfa(starts_a_dfa())),
        complement(remove_erasing(power_of_two())),
        intersect_sequential(power_of_two(), all_a()),
        union_sequential(even_length(), from_dfa(starts_a_dfa())),
        from_dfa(two_hash_dfa()),
    ]
    ok = all(parse_machine(serialize_machine(m)) == m for m in machines)
    ok &= all(validate(m) == [] for m in machines)

    def broken(**overrides):
        base = dict(input_alphabet=frozenset({"a"}),
                    tape=OrderedAlphabet(("A", "a")),
                    states=frozenset({"p", "q"}), start="p",
                    accepting=frozenset(), mode=Mode.AS,
                    transitions={("p", "a"): ("q", "A")})
        base.update(overrides)
        return Machine(**base)

    # a state that the start, the accepting set or a transition names
    # is a state, so no machine can name an undeclared one
    ok &= broken(start="ghost", accepting=frozenset({"phantom"}),
                 transitions={("p", "a"): ("stranger", None)}).states == {
        "p", "q", "ghost", "phantom", "stranger"}
    seen = set()
    fixtures = [
        broken(input_alphabet=frozenset({"a", "z"})),
        broken(transitions={("p", "A"): ("q", "a")}),
        broken(transitions={("p", "z"): ("q", None)}),
    ]
    for m in fixtures:
        seen |= {v.code for v in validate(m)}
    duplicated = ("input:  a\ntape:   a\nstart:  p\naccept: p\nmode:   AS\n"
                  "trans:  p a -> p a\ntrans:  p a -> p a\n")
    try:
        parse_machine(duplicated)
    except ParseError as err:
        seen.add(err.code)
    ok &= seen == set(ViolationCode)
    report(11, "serialization round-trips and every defect code is observable",
           ok, f"{len(machines)} machines, {len(seen)} codes")
