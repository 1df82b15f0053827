"""Enumeration, comparison, predicates, and the unary classifier."""

import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import (all_a, census_machines, equivalent_by_sets, even_length,
                    flip_flop, has_strongly_equivalent_states, is_palindrome,
                    odd_length, one_b_dfa, pure_loop, random_machine,
                    random_unary_noaux, regular, rotating_countdown,
                    run_language, stepped_verdict, time_bound, two_hash_dfa,
                    undeclared_chain, words)
from fr1tass import oracle, simulate
from fr1tass.exceptions import AlphabetMismatchError, PreconditionError
from fr1tass.gallery import (balance_ab_et, center_language, marked_copy,
                             power_of_two)
from fr1tass.model import Mode, make_machine
from fr1tass.oracle import (_MEMO_PROBE_RUNS, Counterexample, UnaryClass,
                            UnaryKind, classify_unary_noaux,
                            enumerate_accepted, equivalent_up_to,
                            is_balanced_ab, is_center_a, is_marked_copy,
                            is_power_of_two_block, matches_predicate_up_to)
from fr1tass.pcp import (PcpInstance, encode_pcp_candidate,
                         pcp_solution_encoding)
from fr1tass.simulate import Verdict, accepts
from fr1tass.transform import (DfaSpec, as_to_et, complement, et_to_as,
                               from_dfa, intersect_sequential, remove_erasing,
                               union, union_sequential)

INSTANCE = PcpInstance(u_words=("a", "ab"), v_words=("aa", "b"),
                       base_alphabet=("a", "b"))


# -------------------------------------------------------------- enumeration

def test_enumerate_power_of_two():
    got = enumerate_accepted(power_of_two(), 16)
    assert got == {tuple("a" * n) for n in (1, 2, 4, 8, 16)}


def test_enumerate_matches_naive_scan_on_gallery():
    for build in (power_of_two, marked_copy, center_language, balance_ab_et):
        m = build()
        assert enumerate_accepted(m, 7) == run_language(m, 7), build.__name__


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
        assert enumerate_accepted(m, 4) == run_language(m, 4), seed


def test_enumerate_on_empty_tape_alphabet():
    m = make_machine(sigma=(), tape=(), start="s", accepting=(),
                     transitions={}, mode=Mode.AS)
    assert enumerate_accepted(m, 3) == set()


def test_enumerate_handles_whole_cones():
    # all_a accepts during the first sweep, so every extension is in the cone
    got = enumerate_accepted(all_a(), 5)
    assert got == {tuple("a" * n) for n in range(1, 6)}
    # one tape letter, so rows are 0, 1 and 2: s erases the first a, and
    # a^n for n >= 2 enters y in its first sweep, the cone below row 1
    m = make_machine(sigma="a", tape="a", start="s", accepting=("y",),
                     mode=Mode.AS, transitions={("s", "a"): ("p", None),
                                                ("p", "a"): ("y", "a")})
    assert enumerate_accepted(m, 9) == run_language(m, 9) == {
        ("a",) * n for n in range(2, 10)}


def test_enumerate_rejects_negative_bound():
    with pytest.raises(ValueError):
        enumerate_accepted(all_a(), -1)
    with pytest.raises(ValueError):
        matches_predicate_up_to(all_a(), bool, -1)


def test_enumerate_zero_bound():
    assert enumerate_accepted(balance_ab_et(), 0) == {()}
    assert enumerate_accepted(power_of_two(), 0) == set()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_enumerate_matches_naive_scan_on_random_machines(seed, n_states):
    m = random_unary_noaux(seed, n_states)
    assert enumerate_accepted(m, 9) == run_language(m, 9)


def _table_use(monkeypatch) -> dict:
    """Counts enumerate_accepted's completion runs made with (True) and
    without (False) the verdict table, by _core or _decide, and under
    "keyed" those made by _core, which the walk hands the tape as a key;
    lists under "sizes" how many keys the verdict table held at each run
    made with it, and under "hits" how many of those ended on a boundary
    the table knew."""
    used = {True: 0, False: 0, "keyed": 0, "sizes": [], "hits": 0}
    core, decide = oracle._core, oracle._decide

    def counted_core(comp, row, tape, max_steps, records, *rest):
        memo = rest[1] if len(rest) > 1 else None  # after the chunk memo
        used[memo is not None] += 1
        used["keyed"] += 1
        if memo is not None:
            used["sizes"].append(len(memo))
        result = core(comp, row, tape, max_steps, records, *rest)
        used["hits"] += result[1] is None
        return result

    def counted_decide(comp, row, queue):
        used[False] += 1
        return decide(comp, row, queue)

    monkeypatch.setattr(oracle, "_core", counted_core)
    monkeypatch.setattr(oracle, "_decide", counted_decide)
    return used


def _runners(monkeypatch) -> list:
    """Lists the _Side of each machine of each enumeration or comparison,
    so a test can read whether its verdict table was kept past the probe."""
    runners = []

    class Recorded(oracle._Side):
        def __init__(self, comp, sigma):
            super().__init__(comp, sigma)
            runners.append(self)

    monkeypatch.setattr(oracle, "_Side", Recorded)
    return runners


def _refuse_runs(monkeypatch):
    """Makes any completion run by _core or _decide fail at once, so a
    machine that must be refused before one starts cannot run on."""
    def refused(*args):
        raise AssertionError("a completion run started")

    monkeypatch.setattr(oracle, "_core", refused)
    monkeypatch.setattr(oracle, "_decide", refused)


@pytest.mark.parametrize("build, n, kept", [
    (balance_ab_et, 12, True),
    (lambda: et_to_as(balance_ab_et()), 12, True),
    (lambda: union(center_language(), et_to_as(balance_ab_et())), 10, False),
    (power_of_two, _MEMO_PROBE_RUNS + 8, False),
], ids=["balance_ab_et", "et_to_as_balance", "union", "power_of_two"])
def test_enumerate_verdict_table_past_the_probe(monkeypatch, build, n, kept):
    m = build()
    used, runners = _table_use(monkeypatch), _runners(monkeypatch)
    assert enumerate_accepted(m, n) == run_language(m, n)
    assert used[True] >= _MEMO_PROBE_RUNS
    assert (runners[-1].memo is not None) is kept
    if not kept:  # no run is made with the table once it is dropped
        assert used[True] == _MEMO_PROBE_RUNS


@pytest.mark.parametrize("probe", [_MEMO_PROBE_RUNS, 8])
def test_enumerate_queue_runs_on_random_general_machines(monkeypatch, probe):
    monkeypatch.setattr(oracle, "_MEMO_PROBE_RUNS", probe)
    used = _table_use(monkeypatch)
    # lengths at which each alphabet size makes more runs than the probe
    lengths = {1: probe + 8, 2: 9, 3: 6} if probe > 8 else {1: 40, 2: 6, 3: 4}
    for seed in range(200):
        m = random_machine(seed)
        n = lengths[len(m.input_alphabet)]
        assert enumerate_accepted(m, n) == run_language(m, n), seed
    assert used[False] > 0  # some calls dropped the table


def test_enumerate_verdict_table_stops_filing_at_the_cap(monkeypatch):
    monkeypatch.setattr(oracle, "_MEMO_MAX_KEYS", 64)
    sizes = _table_use(monkeypatch)["sizes"]
    m = et_to_as(balance_ab_et())
    assert enumerate_accepted(m, 10) == run_language(m, 10)
    # the table fills up to the cap and stays there, lookups going on
    assert max(sizes) == 64 and sizes.count(64) > 100


def test_enumerate_shares_subtrees(monkeypatch):
    used = _table_use(monkeypatch)
    # a prefix's parity decides the subtree: two nodes per depth
    assert enumerate_accepted(even_length(), 12) == {
        w for w in words("ab", 12) if len(w) % 2 == 0}
    assert used[True] + used[False] <= 2 * 12
    # the tree walk makes one completion run per word, 8,190 of them
    used.update({True: 0, False: 0})
    m = balance_ab_et()
    assert enumerate_accepted(m, 12) == {w for w in words("ab", 12)
                                         if is_balanced_ab(w)}
    assert used[True] + used[False] < 2 ** 13 - 2


def test_enumerate_bundles_from_the_root(monkeypatch):
    """center's two letters reach one row and write different letters from
    every row, so every node below the root is a bundle node: no run is
    made by _core, and sibling words share bundle runs from the root."""
    used = _table_use(monkeypatch)
    bundles = _bundle_use(monkeypatch)
    m = center_language()
    assert enumerate_accepted(m, 12) == {w for w in words("ab", 12)
                                         if is_center_a(w)}
    # 38 bundle runs and 28 runs forked from splits, 14 runs splitting,
    # where one run per word made 2 ** 13 - 2 runs
    assert used["keyed"] == used[True] == 0
    assert (bundles["bundles"], bundles["subs"], bundles["splits"]) == (
        38, 28, 14)
    assert bundles["subs"] == bundles["forks"]
    assert used[False] == 38 + 28


def test_enumerate_census():
    with time_bound(30, "the census"):
        for m in census_machines():
            assert enumerate_accepted(m, 5) == run_language(m, 5), m


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


def _bundle_use(monkeypatch) -> dict:
    """Counts enumerate_accepted's runs on a bundle form with vector
    letters: a bundle node's first run under "bundles", the runs forked
    from a split under "subs", and the runs of either kind that split under
    "splits"; adds up under "forks" the worlds on the axis each split
    parts, as many runs as it forks into."""
    used = {"bundles": 0, "subs": 0, "splits": 0, "forks": 0}
    decide = oracle._decide

    def counted_decide(comp, row, queue):
        walk = sys._getframe(1).f_locals
        if comp is not walk.get("form") or comp is walk["comp"]:
            return decide(comp, row, queue)  # no vector letters
        first = all(pick is None for pick in walk["picks"])
        used["bundles" if first else "subs"] += 1
        result = decide(comp, row, queue)
        if result.__class__ is tuple:
            used["splits"] += 1
            axis = walk["parts"][result[1][0]][0]
            used["forks"] += walk["arities"][axis]
        return result

    monkeypatch.setattr(oracle, "_decide", counted_decide)
    return used


def test_enumerate_census_in_bundles(monkeypatch):
    # with a probe of 8 runs, machines that keep the verdict table and
    # machines that drop it decide sibling words in bundle runs, and some
    # of those split
    monkeypatch.setattr(oracle, "_MEMO_PROBE_RUNS", 8)
    used = _bundle_use(monkeypatch)
    test_enumerate_census()
    assert used["bundles"] > used["splits"] > 0


def test_enumerate_random_constructions_in_bundles(monkeypatch):
    """Each random machine, its bridge, remove_erasing of its AS form and
    the complement and ET bridge of that."""
    monkeypatch.setattr(oracle, "_MEMO_PROBE_RUNS", 8)
    used = _bundle_use(monkeypatch)
    with time_bound(30, "the random constructions"):
        for seed in range(240):
            m = random_machine(seed)
            a = et_to_as(m) if m.mode is Mode.ET else m
            r = remove_erasing(a)
            n = 6 if len(m.input_alphabet) < 3 else 4
            for x in (m, as_to_et(m) if a is m else a, r, complement(r),
                      as_to_et(r)):
                assert enumerate_accepted(x, n) == run_language(x, n), seed
    assert used["bundles"] > used["splits"] > 0


def parting_pair():
    """ET over a < b with working letters A < B.  The first sweep writes
    A for a and B for b, from s and then in g.  From g both working letters
    go to h, A erased and B written back; h is stuck on A and erases B.  So
    the words are the empty word and a letter followed by b's."""
    return make_machine(
        sigma="ab", tape="ABab", start="s", accepting=(), mode=Mode.ET,
        transitions={("s", "a"): ("g", "A"), ("s", "b"): ("g", "B"),
                     ("g", "a"): ("g", "A"), ("g", "b"): ("g", "B"),
                     ("g", "A"): ("h", None), ("g", "B"): ("h", "B"),
                     ("h", "B"): ("h", None)})


def test_enumerate_splits_where_one_sibling_erases_and_one_writes(
        monkeypatch):
    m = parting_pair()
    comp = oracle._verdict_form(simulate._compile(m))
    form, _, parts = oracle._bundles(comp)
    row = {q: form.states.index(q) * form.stride for q in "sgh"}
    vector = comp.stride  # axis 0's first vector letter, (A, B)
    assert parts[vector] == (0, (0, 1))
    # both components stick in s; g erases A and writes B, and h sticks
    # on A and erases B, so those cells split
    assert form.next_row[row["s"] + vector] == -1
    assert form.next_row[row["g"] + vector] == simulate._SPLIT
    assert form.next_row[row["h"] + vector] == simulate._SPLIT
    used = _bundle_use(monkeypatch)
    assert enumerate_accepted(m, 10) == run_language(m, 10) == {()} | {
        (x, *"b" * k) for x in "ab" for k in range(10)}
    # every bundle tape starts with the root's vector letter, which g
    # splits; its two runs go on with the other axes bundled
    assert (used["bundles"], used["subs"], used["splits"]) == (14, 308, 154)
    assert used["subs"] == used["forks"]


def second_axis_parts():
    """ET over a < b.  The first sweep writes A or B for the first letter
    and C or D for the second, each pair from one row, so the nodes below
    have two axes; later letters are erased.  The next sweep writes E or F
    over A or B in t, so axis 0's cells agree, and u erases C and writes D
    back, so axis 1's cell parts ways.  w erases E and F, and x is stuck
    on D.  So the words are the empty word and those whose second letter
    is a."""
    return make_machine(
        sigma="ab", tape="EFABCDab", start="s", accepting=(), mode=Mode.ET,
        transitions={("s", "a"): ("g", "A"), ("s", "b"): ("g", "B"),
                     ("g", "a"): ("t", "C"), ("g", "b"): ("t", "D"),
                     ("t", "a"): ("t", None), ("t", "b"): ("t", None),
                     ("t", "A"): ("u", "E"), ("t", "B"): ("u", "F"),
                     ("u", "C"): ("w", None), ("u", "D"): ("w", "D"),
                     ("w", "E"): ("x", None), ("w", "F"): ("x", None)})


def test_enumerate_splits_only_the_axis_that_parts(monkeypatch):
    """A split on axis 1 forks into two runs, one per second letter, and
    each finishes with both of axis 0's worlds in it.  A fork on any other
    axis would meet the same split again, so the alarm stops it."""
    m = second_axis_parts()
    comp = oracle._verdict_form(simulate._compile(m))
    form, _, parts = oracle._bundles(comp)
    row = {q: form.states.index(q) * form.stride for q in "tu"}
    first, second = parts.index((0, (2, 3))), parts.index((1, (4, 5)))
    assert form.next_row[row["t"] + first] == row["u"]
    assert form.next_row[row["u"] + second] == simulate._SPLIT
    used = _bundle_use(monkeypatch)
    with time_bound(2, "the forked runs"):
        got = enumerate_accepted(m, 8)
    assert got == run_language(m, 8) == {()} | {
        w for w in words("ab", 8) if w[1:2] == ("a",)}
    # one first run per length; those of lengths 2 to 8 split once each,
    # into two runs that end with no further split
    assert (used["bundles"], used["subs"], used["splits"]) == (8, 14, 7)
    assert used["subs"] == used["forks"]


def descending_maps(n: int = 20):
    """AS over x1..x8 with working letters W0 < ... < Wn-1 below them.
    The first sweep stays in s and writes Wn-k for xk, so the eight
    letters form one group.  From s, Wn-8 accepts, Wn-7 leads to d, which
    lowers every letter but W0 by one, and any other Wi leads to ri, which
    lowers Wi alone.  With n = 20 the cells of d and the ri's would write
    about 400,000 vectors below the group's, and a run in d writes a new
    one each sweep.  The words are those starting with x8."""
    w = [f"W{i}" for i in range(n)]
    rows = {("s", f"x{k}"): ("s", w[n - k]) for k in range(1, 9)}
    rows[("s", w[n - 8])], rows[("s", w[n - 7])] = ("y", w[n - 8]), (
        "d", w[n - 7])
    rows.update({("d", y): ("d", w[max(j - 1, 0)]) for j, y in enumerate(w)})
    for i in {*range(1, n)} - {n - 8, n - 7}:
        rows[("s", w[i])] = (f"r{i}", w[i])
        rows.update({(f"r{i}", y): (f"r{i}", w[i - 1] if y == w[i] else y)
                     for y in w})
    return make_machine(sigma=[f"x{k}" for k in range(1, 9)],
                        tape=w + [f"x{k}" for k in range(1, 9)], start="s",
                        accepting=("y",), mode=Mode.AS, transitions=rows)


def test_enumerate_bounds_the_block_of_vector_letters(monkeypatch):
    """The block of descending_maps' bundle form stops at the verdict
    form's stride, and a cell writing a vector outside it splits; the
    whole test runs within ten seconds.  With 40 working letters the
    verdict form's codes fit in a byte and the bundle form's do not."""
    used = _bundle_use(monkeypatch)
    with time_bound(10, "the bundle form"):
        for n in (20, 40):
            m = descending_maps(n)
            comp = oracle._verdict_form(simulate._compile(m))
            form, _, _ = oracle._bundles(comp)
            assert comp.stride < form.stride <= (
                1 + oracle._BUNDLE_AXES) * comp.stride
            assert (comp.stride <= 256 < form.stride) is (n == 40)
            assert simulate._SPLIT in form.next_row
            assert enumerate_accepted(m, 4) == run_language(m, 4) == {
                w for w in words(sorted(m.input_alphabet), 4)
                if w[:1] == ("x8",)}
    # every bundle tape starts with the root's vector letter, whose cell
    # in s parts ways, into eight runs for each n
    assert (used["bundles"], used["subs"], used["splits"]) == (8, 1392, 174)
    assert used["subs"] == used["forks"]


def test_enumerate_cone_below_a_bundle_node(monkeypatch):
    """a and b write A and B and stay in g, so the root's slot is a group;
    from g, a accepts in the first sweep.  So every word with an a after
    its first letter is accepted, in the cone below a bundle node, for
    both of the bundle's worlds."""
    m = make_machine(sigma="ab", tape="ABab", start="s", accepting=("y",),
                     mode=Mode.AS,
                     transitions={("s", "a"): ("g", "A"),
                                  ("s", "b"): ("g", "B"),
                                  ("g", "a"): ("y", "a"),
                                  ("g", "b"): ("g", "b")})
    used = _bundle_use(monkeypatch)
    assert enumerate_accepted(m, 8) == run_language(m, 8) == {
        w for w in words("ab", 8) if "a" in w[1:]}
    assert used["bundles"] > 0


def _walk_layers(m, max_len: int) -> list:
    """The layers of enumerate_accepted's walk on m from length 1 on, each
    a dict of its nodes' entries, read off the walk's frame once the
    layer is done."""
    walk = oracle._accepted_layers(m, max_len)
    next(walk)
    return [walk.gi_frame.f_locals["below"] for _ in walk]


def test_enumerate_spells_a_deep_dag():
    """Each layer's node past the b has two links, the b and the a after
    the node before, so a word is spelled through up to 1,100 merges, by a
    walk that does not recurse."""
    n = 1100
    with time_bound(20, "the deep walk"):
        got = enumerate_accepted(from_dfa(one_b_dfa(n)), n)
    assert got == {("a",) * i + ("b",) + ("a",) * (n - 1 - i)
                   for i in range(n)}


def test_enumerate_spells_past_a_partly_accepted_node():
    """center's root group bundles a and b: the node of length 1 accepts
    its world a and rejects its world b.  A word of length 3 that starts
    with b is spelled through the world it rejects."""
    m = center_language()
    first = _walk_layers(m, 3)[0]
    assert [entry[0] for entry in first.values()] == [[[("a",)], None]]
    assert enumerate_accepted(m, 9) == run_language(m, 9) == {
        w for w in words("ab", 9) if is_center_a(w)}


def test_enumerate_spells_through_a_merge_of_bundles():
    """s erases c and stays, and sends a and b on to t writing A and B, a
    group; t erases c and stays.  So from length 2 on, the bundle node in
    t has two links: c from the one before it, and the group from s.  It
    accepts its world b, since t then reads B into y, and rejects a."""
    m = make_machine(sigma="abc", tape="ABabc", start="s", accepting=("y",),
                     mode=Mode.AS,
                     transitions={("s", "a"): ("t", "A"),
                                  ("s", "b"): ("t", "B"),
                                  ("s", "c"): ("s", None),
                                  ("t", "c"): ("t", None),
                                  ("t", "B"): ("y", "B")})
    merges = [entry for layer in _walk_layers(m, 8)
              for entry in layer.values()
              if {x.__class__ for x in entry[2::2]} == {str, tuple}]
    assert len(merges) == 7
    assert all(entry[0] for entry in merges[:-1])  # accepted and held
    assert enumerate_accepted(m, 8) == run_language(m, 8) == {
        w for w in words("bc", 8) if w.count("b") == 1}


def test_enumerate_layers_hold_no_word_twice():
    """cli.cmd_enumerate writes each layer's list as it is."""
    with time_bound(30, "the census"):
        for m in census_machines():
            for found in oracle._accepted_layers(m, 5):
                assert len(found) == len(set(found)), m
    for m, n in ((center_language(), 13), (as_to_et(center_language()), 12),
                 (marked_copy(), 13), (power_of_two(), 1200)):
        for found in oracle._accepted_layers(m, n):
            assert len(found) == len(set(found))


def test_enumerate_tape_wider_than_a_byte():
    # balance_ab_et below 255 working letters: a is code 255 and b 256
    tape = [f"x{i}" for i in range(255)] + ["a", "b"]
    m = make_machine(sigma="ab", tape=tape, start="1", accepting=(),
                     transitions=balance_ab_et().transitions, mode=Mode.ET)
    assert len(m.tape.letters) == 257
    got = enumerate_accepted(m, 6)
    assert got == run_language(m, 6)
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
    assert got == run_language(m, 2 * simulate._BLOCK_MIN)
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
        assert enumerate_accepted(m, n) == run_language(m, n), m
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
        memos.append(args[5])
        return core(*args)

    monkeypatch.setattr(oracle, "_core", spied)
    m, n = build(), 4 * simulate._BLOCK_MIN
    assert enumerate_accepted(m, n) == run_language(m, n)
    assert len({id(memo) for memo in memos}) == 1
    held = len(memos[0])
    if cap is None:
        assert 1 < held < simulate._CHUNK_MEMO_MAX
    else:
        assert held == cap


def test_enumerate_verdict_table_on_random_general_machines(monkeypatch):
    runners = _runners(monkeypatch)
    seeds = [seed for seed in range(100)
             if len(random_machine(seed).input_alphabet) > 1][:40]
    kept = dropped = 0
    for seed in seeds:
        m = random_machine(seed)
        n = 8 if len(m.input_alphabet) == 3 else 12
        assert enumerate_accepted(m, n) == run_language(m, n), seed
        if runners[-1].memo is None:
            dropped += 1
        elif runners[-1].runs > _MEMO_PROBE_RUNS:
            kept += 1
    assert kept and dropped  # both sides of the probe were checked


@pytest.mark.parametrize("build, runs, hits", [
    (balance_ab_et, 995, 948),
    (lambda: et_to_as(balance_ab_et()), 1217, 1182),
    (lambda: as_to_et(et_to_as(balance_ab_et())), 1226, 1172),
], ids=["balance_ab_et", "et_to_as", "as_to_et_et_to_as"])
def test_enumerate_verdict_table_hits_at_twelve(monkeypatch, build, runs, hits):
    """Loop runs end at their first repeated sweep boundary, which files
    the same keys as running on to the cut: the routing and hits hold.
    The two bridges run their verdict forms, which keep the placeholder
    off the tape, so their prefixes meet in shared nodes.  The ET one
    flags its rows where the placeholder is written, and makes 9 runs
    more than the AS one."""
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
            assert enumerate_accepted(x, n) == run_language(x, n), seed
            rewritten[x.mode] += _rewritten(x)
        rewritten["complement"] += _rewritten(c)
    assert min(rewritten[Mode.AS], rewritten[Mode.ET]) >= 300, rewritten
    assert rewritten["complement"] == 195


def test_verdict_form_flags_the_placeholder_on_et_tapes():
    """kept is an ET machine whose one state keeps every X it writes, so
    only the empty word empties its tape.  Its verdict form erases each X
    into a flagged copy of p, whose tape, empty where kept's holds X's
    alone, rejects as a loop.  In the other two, p loops on X but q
    accepts on it or erases it, so X is not inert."""
    kept = make_machine(sigma="a", tape="Xa", start="p", accepting=(),
                        mode=Mode.ET, transitions={("p", "a"): ("p", "X"),
                                                   ("p", "X"): ("p", "X")})
    assert _rewritten(kept)
    assert enumerate_accepted(kept, 8) == run_language(kept, 8) == {()}
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
        assert enumerate_accepted(m, 6) == run_language(m, 6)
    assert ("a", "b") in enumerate_accepted(accepts_x, 2)


def test_verdict_form_lets_a_flagged_drain_accept():
    """p turns each a into X and copies X, and b takes it to d, a drain.
    So on aab d erases the two X's and the b and accepts, while aa leaves
    p on X's alone, which loop.  The verdict form erases each X into a
    flagged copy of p and then of d, whose tape runs out as m's holds the
    X's alone: the flagged p loops and the flagged d accepts."""
    m = make_machine(sigma="ab", tape="Xab", start="p", accepting=(),
                     mode=Mode.ET, transitions={
                         ("p", "a"): ("p", "X"), ("p", "X"): ("p", "X"),
                         ("p", "b"): ("d", "b"),
                         **{("d", x): ("d", None) for x in "abX"}})
    assert simulate.run(m, "aab").verdict is Verdict.ACCEPTED
    assert simulate.run(m, "aa").verdict is Verdict.REJECTED_LOOP
    assert _rewritten(m)
    assert enumerate_accepted(m, 6) == run_language(m, 6)
    for other in (m, balance_ab_et()):
        assert equivalent_up_to(m, other, 6) == equivalent_by_sets(m, other, 6)


def test_verdict_form_of_the_et_bridge_appends_no_placeholder():
    """The ET bridge of balance writes BOX over letters, and every state a
    run can be in copies it.  Its verdict form's first sweeps append no
    BOX on any input letter from any row."""
    comp = simulate._compile(as_to_et(et_to_as(balance_ab_et())))
    form = oracle._verdict_form(comp)
    box = comp.code["BOX"]
    assert box in comp.output
    steps = oracle._first_steps(form)
    appended = {c for row in range(0, len(form.next_row), form.stride)
                for x in comp.input_code.values()
                if steps[row + x].__class__ is tuple
                for c in steps[row + x][1]}
    assert appended and box not in appended


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
    assert enumerate_accepted(m, 8) == run_language(m, 8)


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
    the walk makes fewer completion runs than enumerating both does.  A
    node the verdict table holds is not run again, and no pair met at a
    shorter length is walked again.  So a node with an empty tape, which
    has no boundary to file, is run again only in a new pair."""
    b, ba = balance_ab_et(), et_to_as(balance_ab_et())
    used = _table_use(monkeypatch)
    assert equivalent_up_to(b, ba, 12) is None
    walk = used[True] + used[False]
    enumerate_accepted(b, 12)
    enumerate_accepted(ba, 12)
    assert walk == 2203 < used[True] + used[False] - walk == 995 + 1217


def test_equivalent_up_to_runs_the_et_bridge_without_its_placeholder(
        monkeypatch):
    """The ET bridge's verdict form keeps no placeholder on its tapes, so
    no node stands for one of its positions: the walk against balance
    makes 2,212 runs, near the 2,203 against the AS bridge."""
    b, bae = balance_ab_et(), as_to_et(et_to_as(balance_ab_et()))
    used = _table_use(monkeypatch)
    assert equivalent_up_to(b, bae, 12) is None
    assert used[True] + used[False] == 2212


def test_equivalent_up_to_keeps_one_side_table_past_the_probe(monkeypatch):
    """union and union_sequential of center and the AS balance bridge
    accept the same words.  union's runs meet no boundary twice, so its
    side drops the verdict table after the probe, with no hit; those of
    union_sequential go back to known boundaries, and its side keeps the
    table.  Each side routes its own runs."""
    center, ba = center_language(), et_to_as(balance_ab_et())
    u, us = union(center, ba), union_sequential(center, ba)
    runners = _runners(monkeypatch)
    assert equivalent_up_to(u, us, 10) is None
    assert [(r.memo is None, r.runs, r.hits) for r in runners] == [
        (True, _MEMO_PROBE_RUNS, 0), (False, 2046, 1265)]
    assert equivalent_by_sets(u, us, 10) is None


def test_equivalent_up_to_walks_a_returning_root_pair():
    """On a both machines erase it and come back to their start with an
    empty tape, so the pair of roots comes back at depth 1.  The empty
    word's verdicts come from the ET and accepts_empty rules, both True;
    a's are completion runs, where the AS run rejects its emptied tape."""
    rows = {("s", "a"): ("s", None)}
    a = make_machine(sigma="a", tape="a", start="s", accepting=(),
                     mode=Mode.AS, transitions=rows, accepts_empty=True)
    b = make_machine(sigma="a", tape="a", start="s", accepting=(),
                     mode=Mode.ET, transitions=rows)
    assert equivalent_up_to(a, b, 3) == Counterexample(("a",), False, True)
    assert equivalent_up_to(a, b, 3) == equivalent_by_sets(a, b, 3)


def test_equivalent_up_to_stops_filing_pairs_once_both_tables_drop(
        monkeypatch):
    """center_language's nodes do not come back, so once both machines'
    verdict tables are dropped after a probe of 8 runs the walk frees the
    set of pairs of earlier layers.  Balance's tables are kept past the
    default probe, and the set grows with the walk."""
    monkeypatch.setattr(oracle, "_MEMO_PROBE_RUNS", 8)
    sizes = []
    decide, core = oracle._decide, oracle._core

    def walk_seen():
        frame = sys._getframe(2)
        while frame.f_code is not equivalent_up_to.__code__:
            frame = frame.f_back
        sizes.append(len(frame.f_locals["seen"]))

    def spied_decide(*args):
        walk_seen()
        return decide(*args)

    def spied_core(*args):
        walk_seen()
        return core(*args)

    monkeypatch.setattr(oracle, "_decide", spied_decide)
    monkeypatch.setattr(oracle, "_core", spied_core)
    center = center_language()
    assert equivalent_up_to(center, center_language(), 10) is None
    assert max(sizes) > 0 == sizes[-1]
    sizes.clear()
    monkeypatch.setattr(oracle, "_MEMO_PROBE_RUNS", _MEMO_PROBE_RUNS)
    assert equivalent_up_to(balance_ab_et(), et_to_as(balance_ab_et()),
                            12) is None
    assert len(sizes) > _MEMO_PROBE_RUNS and sizes == sorted(sizes)
    assert sizes[-1] > sizes[_MEMO_PROBE_RUNS]


def prefix_reader():
    """AS over a < b with working letters A < B.  The first sweep writes A
    for a and B for b over the first nine letters, in c0 to c9, and erases
    the rest in c9.  From c9, A accepts and B is erased.  So the words are
    those of nine letters or more with an a among the first nine, and each
    node of depth 10 or more is the node of its first nine letters."""
    rows = {(f"c{i}", x): (f"c{i + 1}", x.upper())
            for i in range(9) for x in "ab"}
    rows.update({("c9", "a"): ("c9", None), ("c9", "b"): ("c9", None),
                 ("c9", "A"): ("y", "A"), ("c9", "B"): ("c9", None)})
    return make_machine(sigma="ab", tape="ABab", start="c0",
                        accepting=("y",), mode=Mode.AS, transitions=rows)


def test_equivalent_up_to_walks_pairs_that_merge_after_the_probe(
        monkeypatch):
    """prefix_reader's nodes are all distinct up to depth 9, past a probe
    of 8 runs, so the walk stops filing pairs.  At depth 10 the two
    children of each node are one node, met again within the layer; from
    there the walk files pairs again, and no deeper layer walks one.  So
    the walk makes as many runs at any max_len from 11 as at 11."""
    monkeypatch.setattr(oracle, "_MEMO_PROBE_RUNS", 8)
    m = prefix_reader()
    assert matches_predicate_up_to(
        m, lambda w: len(w) >= 9 and "a" in w[:9], 12) is None
    runs = []
    for n in (11, 24):
        used = _table_use(monkeypatch)
        assert equivalent_up_to(m, prefix_reader(), n) is None
        runs.append(used[True] + used[False])
    # both machines run each pair of depth 1 to 10 once
    assert runs == [2 * (2 ** 11 - 2 - 2 ** 9)] * 2


def test_equivalent_up_to_node_verdicts_stop_at_the_cap(monkeypatch):
    """With room for 64 keys in each machine's verdict table, nodes past
    them are run again where they come back, and the answers stay the
    same."""
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


@pytest.fixture(params=[_MEMO_PROBE_RUNS, 8], ids=["probe", "short_probe"])
def walk_probe(request, monkeypatch):
    """The default verdict-table probe, and one so short that the walk
    drops the table after 8 runs unless more than half of them end on a
    known boundary: later nodes are decided by queue runs, none kept."""
    monkeypatch.setattr(oracle, "_MEMO_PROBE_RUNS", request.param)


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


def test_predicate_mismatch_stops_at_the_first_disagreeing_length(monkeypatch):
    """center takes a: the layers of lengths 0 and 1 decide it, however
    long max_len is."""
    taken, layers = [], oracle._accepted_layers

    def spied(m, max_len):
        for words in layers(m, max_len):
            taken.append(len(words))
            yield words

    monkeypatch.setattr(oracle, "_accepted_layers", spied)
    cex = matches_predicate_up_to(center_language(), lambda w: False, 14)
    assert cex == Counterexample(word=("a",), in_first=True, in_second=False)
    assert taken == [0, 1]  # no word of length 0, ("a",) of length 1


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
