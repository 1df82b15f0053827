"""Enumeration, comparison, predicates, and the unary classifier."""

import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import (all_a, census_machines, equivalent_by_sets, even_length,
                    flip_flop, odd_length, pure_loop, random_machine,
                    rotating_countdown, stepped_verdict, two_hash_dfa,
                    undeclared_chain, words)
from fr1tass import oracle, simulate
from fr1tass.exceptions import AlphabetMismatchError, PreconditionError
from fr1tass.gallery import (balance_ab_et, center_language, marked_copy,
                             power_of_two, random_unary_noaux)
from fr1tass.model import Mode, make_machine
from fr1tass.oracle import (_MEMO_PROBE_RUNS, _PAIR_PROBE, Counterexample,
                            UnaryClass, UnaryKind, _enumerate_naive,
                            classify_unary_noaux,
                            enumerate_accepted, equivalent_up_to,
                            has_strongly_equivalent_states, is_balanced_ab,
                            is_center_a, is_marked_copy, is_palindrome,
                            is_power_of_two_block, matches_predicate_up_to,
                            regular)
from fr1tass.pcp import (PcpInstance, encode_pcp_candidate,
                         pcp_solution_encoding)
from fr1tass.simulate import Verdict, accepts
from fr1tass.transform import (DfaSpec, as_to_et, complement, et_to_as,
                               from_dfa, intersect_sequential, remove_erasing,
                               union)

INSTANCE = PcpInstance(u_words=("a", "ab"), v_words=("aa", "b"),
                       base_alphabet=("a", "b"))


# -------------------------------------------------------------- enumeration

def test_enumerate_power_of_two():
    got = enumerate_accepted(power_of_two(), 16)
    assert got == {tuple("a" * n) for n in (1, 2, 4, 8, 16)}


def test_enumerate_matches_naive_scan_on_gallery():
    for build in (power_of_two, marked_copy, center_language, balance_ab_et):
        m = build()
        assert enumerate_accepted(m, 7) == _enumerate_naive(m, 7), build.__name__


def test_enumerate_includes_empty_word_rules():
    assert () in enumerate_accepted(balance_ab_et(), 3)
    assert () in enumerate_accepted(even_length(), 3)
    assert () not in enumerate_accepted(power_of_two(), 3)


def test_enumerate_deep_prefix_tree():
    got = enumerate_accepted(power_of_two(), 1200)
    assert got == {("a",) * 2 ** k for k in range(11)}


def test_enumerate_matches_naive_scan_on_random_general_machines():
    for seed in range(150):
        m = random_machine(seed)
        assert enumerate_accepted(m, 4) == _enumerate_naive(m, 4), seed


def test_enumerate_on_empty_tape_alphabet():
    m = make_machine(sigma=(), tape=(), start="s", accepting=(),
                     transitions={}, mode=Mode.AS)
    assert enumerate_accepted(m, 3) == set()


def test_enumerate_handles_whole_cones():
    # all_a accepts during the first sweep, so every extension is in the cone
    got = enumerate_accepted(all_a(), 5)
    assert got == {tuple("a" * n) for n in range(1, 6)}


def test_enumerate_rejects_negative_bound():
    with pytest.raises(ValueError):
        enumerate_accepted(all_a(), -1)


def test_enumerate_zero_bound():
    assert enumerate_accepted(balance_ab_et(), 0) == {()}
    assert enumerate_accepted(power_of_two(), 0) == set()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_enumerate_matches_naive_scan_on_random_machines(seed, n_states):
    m = random_unary_noaux(seed, n_states)
    assert enumerate_accepted(m, 9) == _enumerate_naive(m, 9)


def _table_use(monkeypatch) -> dict:
    """Counts enumerate_accepted's completion runs made with (True) and
    without (False) the verdict table, by _core or _decide, and under
    "keyed" those made by _core, which the walk hands the tape as a key;
    lists under "sizes" how many keys the verdict table held at each run
    made with it, and under "hits" how many of those ended on a boundary
    the table knew."""
    used = {True: 0, False: 0, "keyed": 0, "sizes": [], "hits": 0}
    core, decide = oracle._core, oracle._decide

    def counted_core(comp, row, tape, steps, max_steps, records, *rest):
        memo = rest[1] if len(rest) > 1 else None  # after the chunk memo
        used[memo is not None] += 1
        used["keyed"] += 1
        if memo is not None:
            used["sizes"].append(len(memo))
        result = core(comp, row, tape, steps, max_steps, records, *rest)
        used["hits"] += result[1] is None
        return result

    def counted_decide(comp, row, queue, n):
        used[False] += 1
        return decide(comp, row, queue, n)

    monkeypatch.setattr(oracle, "_core", counted_core)
    monkeypatch.setattr(oracle, "_decide", counted_decide)
    return used


def _refuse_runs(monkeypatch):
    """Makes any completion run by _core or _decide fail at once, so a
    machine that must be refused before one starts cannot run on."""
    def refused(*args):
        raise AssertionError("a completion run started")

    monkeypatch.setattr(oracle, "_core", refused)
    monkeypatch.setattr(oracle, "_decide", refused)


@pytest.mark.parametrize("build, n, kept", [
    (balance_ab_et, 10, True),
    (lambda: et_to_as(balance_ab_et()), 10, True),
    (center_language, 10, False),
    (marked_copy, 9, False),
    (power_of_two, _MEMO_PROBE_RUNS + 8, False),
], ids=["balance_ab_et", "et_to_as_balance", "center_language",
        "marked_copy", "power_of_two"])
def test_enumerate_verdict_table_past_the_probe(monkeypatch, build, n, kept):
    m = build()
    used = _table_use(monkeypatch)
    assert enumerate_accepted(m, n) == _enumerate_naive(m, n)
    assert used[True] >= _MEMO_PROBE_RUNS
    assert (used[False] == 0) is kept


@pytest.mark.parametrize("probe", [_MEMO_PROBE_RUNS, 8])
def test_enumerate_queue_runs_on_random_general_machines(monkeypatch, probe):
    monkeypatch.setattr(oracle, "_MEMO_PROBE_RUNS", probe)
    used = _table_use(monkeypatch)
    # lengths at which each alphabet size makes more runs than the probe
    lengths = {1: probe + 8, 2: 9, 3: 6} if probe > 8 else {1: 40, 2: 6, 3: 4}
    for seed in range(200):
        m = random_machine(seed)
        n = lengths[len(m.input_alphabet)]
        assert enumerate_accepted(m, n) == _enumerate_naive(m, n), seed
    assert used[False] > 0  # some calls dropped the table


def test_enumerate_verdict_table_stops_filing_at_the_cap(monkeypatch):
    monkeypatch.setattr(oracle, "_MEMO_MAX_KEYS", 64)
    sizes = _table_use(monkeypatch)["sizes"]
    m = et_to_as(balance_ab_et())
    assert enumerate_accepted(m, 10) == _enumerate_naive(m, 10)
    # the table fills up to the cap and stays there, lookups going on
    assert max(sizes) == 64 and sizes.count(64) > 100


def test_enumerate_shares_subtrees(monkeypatch):
    used = _table_use(monkeypatch)
    # a prefix's parity decides the subtree: two keys per depth
    assert enumerate_accepted(even_length(), 12) == {
        w for w in words("ab", 12) if len(w) % 2 == 0}
    assert used[True] + used[False] <= 2 * 12
    # the tree walk makes one completion run per word, 8,190 of them
    used.update({True: 0, False: 0})
    m = balance_ab_et()
    assert enumerate_accepted(m, 12) == {w for w in words("ab", 12)
                                         if is_balanced_ab(w)}
    assert used[True] + used[False] < 2 ** 13 - 2


def test_enumerate_drops_the_subtree_table_at_the_probe(monkeypatch):
    used = _table_use(monkeypatch)
    m = center_language()
    comp = simulate._compile(m)
    walk_keys = []  # keys the walk makes itself, not inside a run

    def key_of(codes, make=comp.key_of):
        caller = sys._getframe(1).f_code
        walk_keys.append(caller is enumerate_accepted.__code__)
        return make(codes)

    object.__setattr__(comp, "key_of", key_of)
    assert enumerate_accepted(m, 12) == {w for w in words("ab", 12)
                                         if is_center_a(w)}
    # no key repeats: every word gets its run, and no run after the probe
    # is handed a key, so neither table was kept there
    assert used[True] + used[False] == 2 ** 13 - 2
    assert used["keyed"] == _MEMO_PROBE_RUNS
    # the walk keys the root and each node up to the probe, and no later one
    assert sum(walk_keys) == 1 + _MEMO_PROBE_RUNS


def test_enumerate_census():
    for m in census_machines():
        assert enumerate_accepted(m, 5) == _enumerate_naive(m, 5), m


def test_enumerate_census_with_blocks_everywhere(monkeypatch):
    # every nonempty tape takes _core's block loop, and past a probe of 8
    # runs some machines keep the verdict table and some drop it, so table
    # runs and long runs without it both copy blocks and step chunks
    monkeypatch.setattr(simulate, "_BLOCK_MIN", 1)
    monkeypatch.setattr(simulate, "_CHUNK", 2)
    monkeypatch.setattr(oracle, "_MEMO_PROBE_RUNS", 8)
    used = _table_use(monkeypatch)
    test_enumerate_census()
    assert used["keyed"] > used[True] > 0  # some long runs had no table


def test_enumerate_tape_wider_than_a_byte():
    # balance_ab_et below 255 working letters: a is code 255 and b 256
    tape = [f"x{i}" for i in range(255)] + ["a", "b"]
    m = make_machine(sigma="ab", tape=tape, start="1", accepting=(),
                     transitions=balance_ab_et().transitions, mode=Mode.ET)
    assert len(m.tape.letters) == 257
    got = enumerate_accepted(m, 6)
    assert got == _enumerate_naive(m, 6)
    assert got == {w for w in words("ab", 6) if is_balanced_ab(w)}
    # the walk's nodes hold tuple tapes here
    assert equivalent_up_to(m, balance_ab_et(), 8) is None
    assert equivalent_up_to(m, even_length(), 8) == equivalent_by_sets(
        m, even_length(), 8)


@pytest.mark.parametrize("k", [2, 5, 20])
@pytest.mark.parametrize("loops", [False, True], ids=["accepts", "loops"])
def test_enumerate_counts_undeclared_states(k, loops):
    m = undeclared_chain(k, loops)
    expected = {w for w in words(("a",), 8)
                if w and stepped_verdict(m, w) is Verdict.ACCEPTED}
    assert len(expected) == (0 if loops else 8)
    assert enumerate_accepted(m, 8) == expected


def mod_three():
    """a^n for n divisible by 3; state c copies the tape in one block."""
    return make_machine(
        sigma=("a",), tape=("A", "a"), start="1", accepting=(), mode=Mode.ET,
        transitions={("1", "a"): ("2", "A"), ("2", "a"): ("3", None),
                     ("3", "a"): ("c", None), ("c", "a"): ("c", "a"),
                     ("c", "A"): ("1", None)})


def test_enumerate_past_the_block_gate():
    m = mod_three()
    got = enumerate_accepted(m, 2 * simulate._BLOCK_MIN)
    assert got == _enumerate_naive(m, 2 * simulate._BLOCK_MIN)
    assert got == {("a",) * n for n in range(0, 2 * simulate._BLOCK_MIN + 1, 3)}


@pytest.mark.parametrize("probe", [8, 10 ** 9])
def test_enumerate_unary_past_the_block_gate(monkeypatch, probe):
    """Completion runs from 2 * _BLOCK_MIN letters down take _core's block
    loop, with the verdict table throughout or after the probe dropped it."""
    monkeypatch.setattr(oracle, "_MEMO_PROBE_RUNS", probe)
    used = _table_use(monkeypatch)
    n = 2 * simulate._BLOCK_MIN
    machines = [m for m in map(random_machine, range(200))
                if len(m.input_alphabet) == 1]
    machines += [random_unary_noaux(seed, k)
                 for seed in range(10) for k in (2, 3, 4)]
    machines += [power_of_two(), mod_three()]  # not constant on long words
    for m in machines:
        assert enumerate_accepted(m, n) == _enumerate_naive(m, n), m
    if probe > n:
        assert used[False] == 0
    else:
        assert used["keyed"] > used[True]  # long runs without the table


@pytest.mark.parametrize("cap", [0, 1, None], ids=["cap0", "cap1", "default"])
@pytest.mark.parametrize("build", [
    power_of_two, lambda: rotating_countdown(("L11",))],
    ids=["power_of_two", "countdown"])
def test_enumerate_shares_one_capped_chunk_memo(monkeypatch, build, cap):
    """Completion runs past the block gate step chunks by one memo for the
    whole call, which files no new chunk once it holds the cap."""
    if cap is not None:
        monkeypatch.setattr(simulate, "_CHUNK_MEMO_MAX", cap)
    memos = []
    core = oracle._core

    def spied(*args):
        memos.append(args[6])
        return core(*args)

    monkeypatch.setattr(oracle, "_core", spied)
    m, n = build(), 4 * simulate._BLOCK_MIN
    assert enumerate_accepted(m, n) == _enumerate_naive(m, n)
    assert len({id(memo) for memo in memos}) == 1
    held = len(memos[0])
    if cap is None:
        assert 1 < held < simulate._CHUNK_MEMO_MAX
    else:
        assert held == cap


def test_enumerate_verdict_table_on_random_general_machines(monkeypatch):
    used = _table_use(monkeypatch)
    seeds = [seed for seed in range(100)
             if len(random_machine(seed).input_alphabet) > 1][:40]
    kept = dropped = 0
    for seed in seeds:
        m = random_machine(seed)
        n = 6 if len(m.input_alphabet) == 3 else 9
        before = dict(used)
        assert enumerate_accepted(m, n) == _enumerate_naive(m, n), seed
        if used[False] > before[False]:
            dropped += 1
        elif used[True] - before[True] > _MEMO_PROBE_RUNS:
            kept += 1
    assert kept and dropped  # both sides of the probe were checked


@pytest.mark.parametrize("build, runs, hits", [
    (balance_ab_et, 1580, 1533),
    (lambda: et_to_as(balance_ab_et()), 1944, 1909),
    (lambda: as_to_et(et_to_as(balance_ab_et())), 3004, 2822),
], ids=["balance_ab_et", "et_to_as", "as_to_et_et_to_as"])
def test_enumerate_verdict_table_hits_at_twelve(monkeypatch, build, runs, hits):
    """Loop runs end at their first repeated sweep boundary, which files
    the same keys as running on to the cut: the routing and hits hold.
    The two bridges run their verdict forms, which keep the placeholder
    off the tape, so their subtrees share."""
    used = _table_use(monkeypatch)
    assert enumerate_accepted(build(), 12) == {
        w for w in words("ab", 12) if is_balanced_ab(w)}
    assert (used[True], used[False], used["hits"]) == (runs, 0, hits)


@pytest.mark.parametrize("call", [
    lambda m: enumerate_accepted(m, 2),
    lambda m: equivalent_up_to(m, m, 2),
], ids=["enumerate", "equivalent"])
def test_refuses_a_machine_that_is_not_freezing(monkeypatch, call):
    _refuse_runs(monkeypatch)  # refused before any completion run
    with pytest.raises(PreconditionError,
                       match="^not freezing: transition s b -> s c "):
        call(flip_flop())


# ------------------------------------------------------------- verdict form

def _rewritten(m) -> bool:
    comp = simulate._compile(m)
    return oracle._verdict_form(comp) is not comp


def test_verdict_form_of_constructions_on_random_machines():
    """The bridges, remove_erasing and complement of random machines, in
    both modes: many write an inert placeholder, which the verdict form
    keeps off the tape, and every one enumerates like one run per word.
    A complement's copies of the operand's accepting states are stuck on
    every letter and need not copy the placeholder, so 195 of the 300
    complements are rewritten."""
    rewritten = {Mode.AS: 0, Mode.ET: 0, "complement": 0}
    for seed in range(300):
        m = random_machine(seed)
        a = et_to_as(m) if m.mode is Mode.ET else m
        r = remove_erasing(a)
        c = complement(r)
        for x in (m, as_to_et(m) if a is m else a, r, c, as_to_et(r)):
            n = 3 if len(x.input_alphabet) == 3 else 5
            assert enumerate_accepted(x, n) == _enumerate_naive(x, n), seed
            rewritten[x.mode] += _rewritten(x)
        rewritten["complement"] += _rewritten(c)
    assert min(rewritten[Mode.AS], rewritten[Mode.ET]) >= 300, rewritten
    assert rewritten["complement"] == 195


def test_verdict_form_keeps_one_placeholder_on_et_tapes():
    """kept is an ET machine whose one state keeps every X it writes, so
    only the empty word empties its tape.  In the other two, p loops on X
    but q accepts on it or erases it, so X is not inert."""
    kept = make_machine(sigma="a", tape="Xa", start="p", accepting=(),
                        mode=Mode.ET, transitions={("p", "a"): ("p", "X"),
                                                   ("p", "X"): ("p", "X")})
    assert _rewritten(kept)
    assert enumerate_accepted(kept, 8) == _enumerate_naive(kept, 8) == {()}
    rows = {("p", "a"): ("p", "X"), ("p", "X"): ("p", "X"),
            ("p", "b"): ("q", "b"), ("q", "b"): ("q", "b"),
            ("q", "a"): ("q", "X")}
    accepts_x = make_machine(sigma="ab", tape="Xab", start="p",
                             accepting=("f",), mode=Mode.AS,
                             transitions={**rows, ("q", "X"): ("f", "X")})
    erases_x = make_machine(sigma="ab", tape="Xab", start="p", accepting=(),
                            mode=Mode.ET,
                            transitions={**rows, ("q", "X"): ("q", None)})
    for m in (accepts_x, erases_x):
        assert not _rewritten(m)
        assert enumerate_accepted(m, 6) == _enumerate_naive(m, 6)
    assert ("a", "b") in enumerate_accepted(accepts_x, 2)


@pytest.mark.parametrize("build", [
    center_language, lambda: as_to_et(center_language()), marked_copy,
    power_of_two, balance_ab_et])
def test_verdict_form_leaves_machines_without_inert_writes(build):
    """as_to_et(center_language) has a placeholder that nothing writes."""
    assert not _rewritten(build())


def test_verdict_form_skips_rows_stuck_on_every_letter():
    """Rows stuck on every letter halt on the placeholder as on any other
    letter, so they need not copy it: this complement has 8 of them."""
    m = complement(remove_erasing(et_to_as(balance_ab_et())))
    comp = simulate._compile(m)
    stuck = [row for row in range(0, len(comp.next_row), comp.stride)
             if set(comp.next_row[row:row + comp.stride]) == {-1}]
    assert len(stuck) == 8
    assert _rewritten(m)
    assert enumerate_accepted(m, 8) == _enumerate_naive(m, 8)


@pytest.mark.parametrize("mode", [Mode.AS, Mode.ET])
def test_verdict_form_refuses_an_upward_placeholder_write(monkeypatch, mode):
    """X sits above a and p writes it over a, then loops on it: X would be
    inert, but the machine is not freezing, so it is refused."""
    m = make_machine(sigma="a", tape="aX", start="p", accepting=(),
                     mode=mode, transitions={("p", "a"): ("p", "X"),
                                             ("p", "X"): ("p", "X")})
    _refuse_runs(monkeypatch)
    for call in (lambda: enumerate_accepted(m, 3),
                 lambda: equivalent_up_to(m, m, 3)):
        with pytest.raises(PreconditionError,
                           match="^not freezing: transition p a -> p X "):
            call()


# --------------------------------------------------------------- comparison

def test_equivalent_up_to_finds_least_counterexample():
    cex = equivalent_up_to(power_of_two(), all_a(), 8)
    assert cex == Counterexample(word=("a", "a", "a"),
                                 in_first=False, in_second=True)


def test_equivalent_up_to_accepts_equal_machines():
    assert equivalent_up_to(power_of_two(), power_of_two(), 10) is None


def test_equivalent_up_to_orders_by_rank_after_length():
    lower = make_machine(sigma=("a", "b"), tape=("a", "b"), start="s",
                         accepting=("t",), mode=Mode.AS,
                         transitions={("s", "a"): ("t", "a")})
    higher = make_machine(sigma=("a", "b"), tape=("a", "b"), start="s",
                          accepting=("t",), mode=Mode.AS,
                          transitions={("s", "b"): ("t", "b")})
    cex = equivalent_up_to(lower, higher, 4)
    assert cex.word == ("a",)
    assert cex.in_first and not cex.in_second


def test_equivalent_up_to_orders_by_the_first_machines_tape():
    """The machines disagree on both one-letter words.  b ranks below a
    on the first machine's tape, so b is the counterexample."""
    first = make_machine(sigma=("a", "b"), tape=("b", "a"), start="s",
                         accepting=("t",), mode=Mode.AS,
                         transitions={("s", "a"): ("t", "a")})
    second = make_machine(sigma=("a", "b"), tape=("a", "b"), start="s",
                          accepting=("t",), mode=Mode.AS,
                          transitions={("s", "b"): ("t", "b")})
    assert equivalent_up_to(first, second, 4) == Counterexample(
        word=("b",), in_first=False, in_second=True)


def test_balance_bridge_is_equivalent():
    assert equivalent_up_to(balance_ab_et(), et_to_as(balance_ab_et()), 10) is None


def test_equivalent_up_to_rejects_mismatched_alphabets():
    with pytest.raises(AlphabetMismatchError):
        equivalent_up_to(power_of_two(), even_length(), 4)


def test_empty_word_counterexample():
    cex = equivalent_up_to(balance_ab_et(), even_length(), 6)
    assert cex is not None
    assert cex.word == ("a",)  # balance takes it, even length does not


# --------------------------------------------------------------- predicates

def test_equivalent_up_to_rejects_negative_bound():
    with pytest.raises(ValueError):
        equivalent_up_to(balance_ab_et(), even_length(), -1)


def test_equivalent_up_to_stops_at_the_first_disagreement(monkeypatch):
    """balance takes a and even length does not: layer 1 decides it, with
    one completion run per machine, however long max_len is."""
    used = _table_use(monkeypatch)
    cex = equivalent_up_to(balance_ab_et(), even_length(), 24)
    assert cex == Counterexample(word=("a",), in_first=True, in_second=False)
    assert used[True] + used[False] == 2


def test_equivalent_up_to_runs_each_node_once(monkeypatch):
    """The two balance machines share nodes across words and depths, so
    the walk makes fewer completion runs than enumerating both does."""
    b, ba = balance_ab_et(), et_to_as(balance_ab_et())
    used = _table_use(monkeypatch)
    assert equivalent_up_to(b, ba, 12) is None
    walk = used[True] + used[False]
    enumerate_accepted(b, 12)
    enumerate_accepted(ba, 12)
    assert walk == 2203 < used[True] + used[False] - walk == 3524


def test_equivalent_up_to_node_verdicts_stop_at_the_cap(monkeypatch):
    """With room for 64 node verdicts per machine, nodes past them are run
    again where they come back, and the answers stay the same."""
    monkeypatch.setattr(oracle, "_MEMO_MAX_KEYS", 64)
    b, ba = balance_ab_et(), et_to_as(balance_ab_et())
    used = _table_use(monkeypatch)
    assert equivalent_up_to(b, ba, 12) is None
    assert used[True] + used[False] > 2203
    group, n = _gallery_groups()[0]
    for first in group:
        for second in group:
            assert (equivalent_up_to(first, second, n)
                    == equivalent_by_sets(first, second, n))


@pytest.fixture(params=[_PAIR_PROBE, 1], ids=["probe", "short_probe"])
def walk_probe(request, monkeypatch):
    """The default pair probe, and one so short that the walk stops keying
    pairs after the first layer unless two of its pairs are the same."""
    monkeypatch.setattr(oracle, "_PAIR_PROBE", request.param)


def test_equivalent_up_to_matches_sets_on_census_pairs(walk_probe):
    machines = list(census_machines())
    rng = random.Random(0)
    for n in (0, 3, 5):
        for _ in range(1000):
            a, b = rng.choice(machines), rng.choice(machines)
            assert equivalent_up_to(a, b, n) == equivalent_by_sets(a, b, n)


def test_equivalent_up_to_matches_sets_on_random_constructions(walk_probe):
    """Each random machine against its bridge, remove_erasing and the
    complement of that, in both orders."""
    for seed in range(150):
        m = random_machine(seed)
        a = et_to_as(m) if m.mode is Mode.ET else m
        r = remove_erasing(a)
        for x in (as_to_et(m) if a is m else a, r, complement(r)):
            for n in (4, 6):
                for first, second in ((m, x), (x, m)):
                    assert (equivalent_up_to(first, second, n)
                            == equivalent_by_sets(first, second, n)), seed


def _gallery_groups() -> list:
    """Gallery machines, their bridges and a few constructions, grouped by
    input alphabet, each with the length to compare them up to."""
    center, balance = center_language(), balance_ab_et()
    balance_as = et_to_as(balance)
    return [
        ([center, balance, balance_as, as_to_et(center), even_length(),
          odd_length(), union(center, balance_as),
          union(center, from_dfa(_six_letters_then("b"))),
          intersect_sequential(center, balance_as),
          complement(remove_erasing(center))], 8),
        ([power_of_two(), all_a(), remove_erasing(power_of_two()),
          random_unary_noaux(3, 4)], 40),
        ([marked_copy(), as_to_et(marked_copy()), from_dfa(two_hash_dfa())],
         6),
    ]


def _six_letters_then(last: str) -> DfaSpec:
    """Words over a, b of length 6 whose last letter is last."""
    t = {(f"n{i}", x): f"n{i + 1}" for i in range(5) for x in "ab"}
    t.update({("n5", x): "hit" if x == last else "dead" for x in "ab"})
    t.update({(q, x): "dead" for q in ("hit", "dead") for x in "ab"})
    return DfaSpec(alphabet=("a", "b"),
                   states=frozenset({*(f"n{i}" for i in range(6)), "hit",
                                     "dead"}),
                   start="n0", accepting=frozenset({"hit"}), transitions=t)


def test_equivalent_up_to_finds_a_deep_disagreement(walk_probe):
    """The union takes the even-length word aaaaab, which center does
    not."""
    center = center_language()
    more = union(center, from_dfa(_six_letters_then("b")))
    assert equivalent_up_to(center, more, 8) == Counterexample(
        word=tuple("aaaaab"), in_first=False, in_second=True)


def test_equivalent_up_to_matches_sets_on_gallery_pairs(walk_probe):
    for group, n in _gallery_groups():
        for a in group:
            for b in group:
                assert equivalent_up_to(a, b, n) == equivalent_by_sets(a, b, n)


def test_gallery_machines_match_their_predicates():
    checks = [
        (power_of_two(), is_power_of_two_block, 10),
        (marked_copy(), is_marked_copy, 9),
        (center_language(), is_center_a, 9),
        (balance_ab_et(), is_balanced_ab, 9),
    ]
    for m, predicate, bound in checks:
        assert matches_predicate_up_to(m, predicate, bound) is None


def test_predicate_mismatch_reports_least_word():
    cex = matches_predicate_up_to(power_of_two(), is_palindrome, 8)
    assert cex == Counterexample(word=(), in_first=False, in_second=True)


def test_predicate_values():
    assert is_power_of_two_block(("a", "a", "a", "a"))
    assert not is_power_of_two_block(("a", "a", "a"))
    assert not is_power_of_two_block(())
    assert not is_power_of_two_block(("a", "b"))
    assert is_marked_copy(("#", "a", "b", "#", "a", "b"))
    assert not is_marked_copy(("#", "a", "#", "b"))
    assert not is_marked_copy(("#", "#", "#"))
    assert is_center_a(("b", "a", "b"))
    assert not is_center_a(("a", "b", "a"))
    assert not is_center_a(("a", "b"))
    assert is_balanced_ab(()) and is_balanced_ab(("a",))
    assert not is_balanced_ab(("b",)) and not is_balanced_ab(("a", "a"))
    assert is_palindrome(()) and is_palindrome(("a", "b", "a"))
    assert not is_palindrome(("a", "b"))


def test_regular_predicate_factory():
    starts_a = regular("a[ab]*")
    assert starts_a(("a", "b", "b"))
    assert not starts_a(("b",))
    assert not starts_a(())
    with pytest.raises(ValueError):
        starts_a(("ab",))


def test_regular_factory_against_machine():
    from common import starts_a_dfa
    from fr1tass.transform import from_dfa
    m = from_dfa(starts_a_dfa())
    assert matches_predicate_up_to(m, regular("a[ab]*"), 7) is None


def test_pcp_solution_predicate():
    pred = pcp_solution_encoding(INSTANCE)
    assert pred(encode_pcp_candidate(INSTANCE, [1, 2]))
    assert pred(encode_pcp_candidate(INSTANCE, [1, 2, 1, 2]))
    assert not pred(encode_pcp_candidate(INSTANCE, [1]))
    assert not pred(encode_pcp_candidate(INSTANCE, [2]))
    assert not pred(("#", "#", "#"))
    assert not pred(("a~",))
    assert not pred(())
    # well-shaped but inconsistent: index list says 1, body spells u2/v2
    assert not pred(("#", "1~", "#", "a~", "b~", "#", "b~"))


# ----------------------------------------------------------------- classifier

def brute_force_lengths(m, up_to):
    return {n for n in range(up_to + 1) if accepts(m, tuple("a" * n))}


def classified_lengths(c: UnaryClass, up_to):
    return {n for n in range(up_to + 1) if c.member(n)}


def test_classify_known_machines():
    assert str(classify_unary_noaux(all_a())) == "AS_Threshold 1"
    # erasing every step: the tape always drains
    eraser = make_machine(sigma=("a",), tape=("a",), start="s", accepting=(),
                          mode=Mode.ET, transitions={("s", "a"): ("s", None)})
    assert classify_unary_noaux(eraser).kind is UnaryKind.ET_ALL
    # never erases: only the empty tape empties
    keeper = make_machine(sigma=("a",), tape=("a",), start="s", accepting=(),
                          mode=Mode.ET, transitions={("s", "a"): ("s", "a")})
    c = classify_unary_noaux(keeper)
    assert c.kind is UnaryKind.ET_FINITE and c.lengths == frozenset({0})
    # no accepting state is ever entered
    assert classify_unary_noaux(pure_loop()).kind is UnaryKind.EMPTY


def test_classify_threshold_counts_erasures():
    m = make_machine(sigma=("a",), tape=("a",), start="s", accepting=("u",),
                     mode=Mode.AS,
                     transitions={("s", "a"): ("t", None),
                                  ("t", "a"): ("u", "a")})
    c = classify_unary_noaux(m)
    assert c == UnaryClass(kind=UnaryKind.AS_THRESHOLD, threshold=2)
    assert not c.member(1) and c.member(2) and c.member(9)


def test_classify_et_stuck_machine():
    m = make_machine(sigma=("a",), tape=("a",), start="s", accepting=(),
                     mode=Mode.ET,
                     transitions={("s", "a"): ("t", None)})
    c = classify_unary_noaux(m)  # t has no row, one erasure happened
    assert c.kind is UnaryKind.ET_FINITE
    assert c.lengths == frozenset({0, 1})
    assert str(c) == "ET_Finite 0 1"


def test_classification_matches_brute_force():
    for seed in range(120):
        m = random_unary_noaux(seed, 4)
        c = classify_unary_noaux(m)
        assert classified_lengths(c, 20) == brute_force_lengths(m, 20), seed


def test_classify_preconditions():
    with pytest.raises(PreconditionError):
        classify_unary_noaux(power_of_two())  # aux letter on the tape
    with pytest.raises(PreconditionError):
        classify_unary_noaux(even_length())  # two input letters
    flagged = make_machine(sigma=("a",), tape=("a",), start="s",
                           accepting=("s",), mode=Mode.AS, accepts_empty=True,
                           transitions={("s", "a"): ("s", "a")})
    with pytest.raises(PreconditionError):
        classify_unary_noaux(flagged)


def test_unary_class_strings_and_membership():
    assert str(UnaryClass(kind=UnaryKind.ET_ALL)) == "ET_All"
    assert str(UnaryClass(kind=UnaryKind.EMPTY)) == "Empty"
    finite = UnaryClass(kind=UnaryKind.ET_FINITE, lengths=frozenset({0, 1, 2}))
    assert str(finite) == "ET_Finite 0 1 2"
    assert finite.member(2) and not finite.member(3)
    assert UnaryClass(kind=UnaryKind.ET_ALL).member(999)
    assert not UnaryClass(kind=UnaryKind.EMPTY).member(0)
    with pytest.raises(ValueError):
        finite.member(-1)


# --------------------------------------------------------------- state pairs

def test_strongly_equivalent_states():
    assert has_strongly_equivalent_states(power_of_two()) is None
    twins = make_machine(
        sigma=("a",), tape=("a",), start="p", accepting=("z",), mode=Mode.AS,
        transitions={("p", "a"): ("q", "a"), ("q", "a"): ("z", "a"),
                     ("r", "a"): ("q", "a"), ("z", "a"): ("p", "a")},
        extra_states=("r",))
    assert has_strongly_equivalent_states(twins) == ("p", "r")
    # p and q have one row; declaring only s declares them as well
    m = make_machine(sigma=("a", "b"), tape=("a", "b"), start="s",
                     accepting=(), mode=Mode.AS,
                     transitions={("s", "a"): ("p", None),
                                  ("s", "b"): ("q", None),
                                  ("p", "a"): ("r", None),
                                  ("q", "a"): ("r", None)})
    assert replace(m, states=frozenset({"s"})) == m
    assert has_strongly_equivalent_states(m) == ("p", "q")


def test_states_without_rows_count_as_equivalent():
    m = make_machine(sigma=("a",), tape=("a",), start="s", accepting=(),
                     mode=Mode.AS, transitions={("s", "a"): ("t", "a")},
                     extra_states=("u",))
    assert has_strongly_equivalent_states(m) == ("t", "u")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_machines_match_brute_force(seed):
    m = random_unary_noaux(seed, 3)
    c = classify_unary_noaux(m)
    assert classified_lengths(c, 15) == brute_force_lengths(m, 15)
