"""Closure constructions and the DFA bridge."""

import itertools
import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import (all_a, even_length, odd_length, parity_dfa,
                    random_machine, run_language, starts_a_dfa,
                    stepped_verdict, two_hash_dfa, undeclared_chain,
                    undeclared_et_pair, words)
from fr1tass import transform
from fr1tass.exceptions import (AlphabetMismatchError, ErasingInputError,
                                ModeError)
from fr1tass.gallery import balance_ab_et, center_language, power_of_two
from fr1tass.model import (Machine, Mode, OrderedAlphabet, ParseError,
                           make_machine, named_states, parse_machine,
                           serialize_machine, validate)
from fr1tass.oracle import enumerate_accepted, has_strongly_equivalent_states
from fr1tass.simulate import Verdict, accepts, run
from fr1tass.transform import (DfaSpec, as_to_et, complement, dfa_accepts,
                               et_to_as, from_dfa, intersect,
                               intersect_sequential, parse_dfa,
                               remove_erasing, union, union_sequential)


def reachable_states(m: Machine) -> set[str]:
    seen = {m.start}
    frontier = [m.start]
    while frontier:
        q = frontier.pop()
        for (source, _), (target, _) in m.transitions.items():
            if source == q and target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def assert_reachable(m: Machine):
    assert reachable_states(m) == set(m.states)


def assert_pruned(m: Machine):
    """m holds no more than its runs can touch: reachable states, letters
    that are input or written, and no rows out of a state that halts."""
    assert_reachable(m)
    written = {out for _, out in m.transitions.values()}
    assert set(m.tape.letters) <= m.input_alphabet | written
    for q, x in m.transitions:
        assert x in m.tape
        assert q == m.start or q not in m.accepting


def roundtrips(m: Machine):
    assert parse_machine(serialize_machine(m)) == m


def accepting_start() -> Machine:
    # start state doubles as the accepting state; language is still all of a+
    # because acceptance is only checked after a step
    return make_machine(
        sigma=("a",), tape=("a",), start="s", accepting=("s",), mode=Mode.AS,
        transitions={("s", "a"): ("t", "a"), ("t", "a"): ("s", "a")})


# ---------------------------------------------------------- erasure removal

def test_remove_erasing_preserves_language():
    a = power_of_two()
    b = remove_erasing(a)
    assert not b.has_erasing()
    assert b.tape.letters == ("BOX", "A", "a")
    assert run_language(b, 12) == run_language(a, 12)
    assert_reachable(b)
    roundtrips(b)


def test_remove_erasing_box_self_loops_every_state():
    b = remove_erasing(power_of_two())
    for q in b.states:
        assert b.transitions[(q, "BOX")] == (q, "BOX")


def test_remove_erasing_needs_as_mode():
    with pytest.raises(ModeError):
        remove_erasing(balance_ab_et())


def test_remove_erasing_keeps_erasure_free_machines_intact():
    m = all_a()
    assert run_language(remove_erasing(m), 6) == run_language(m, 6)


# ------------------------------------------------------------- mode bridges

def test_as_to_et_preserves_nonempty_words():
    for build in (power_of_two, center_language, all_a, accepting_start):
        a = build()
        b = as_to_et(a)
        assert b.mode is Mode.ET
        want = run_language(a, 9) - {()}
        got = run_language(b, 9) - {()}
        assert got == want, build.__name__
        assert accepts(b, ())  # emptying machines always take the empty word
        assert_reachable(b)
        roundtrips(b)


def test_as_to_et_rejects_et_input():
    with pytest.raises(ModeError):
        as_to_et(balance_ab_et())


def test_et_to_as_matches_on_frozen_machine():
    a = balance_ab_et()
    b = et_to_as(a)
    assert b.mode is Mode.AS
    assert b.accepts_empty
    assert len(b.states) == 6
    assert len(b.tape.letters) == 5
    assert run_language(b, 10) == run_language(a, 10)
    for word in ((), ("a",), ("a", "b")):
        assert run(b, word).verdict is Verdict.ACCEPTED
    for word in (("b",), ("a", "a")):
        assert run(a, word).verdict is Verdict.REJECTED_LOOP
        assert run(b, word).verdict is Verdict.REJECTED_LOOP
    assert_pruned(b)
    roundtrips(b)


def test_et_to_as_follows_undeclared_states():
    m = undeclared_et_pair()
    b = et_to_as(m)
    for word in words(("a",), 4):
        expected = stepped_verdict(m, word) is Verdict.ACCEPTED
        assert (run(b, word).verdict is Verdict.ACCEPTED) == expected
    assert run_language(b, 4) == set(words(("a",), 4))


def test_constructions_follow_undeclared_states_on_random_machines():
    """Each seeded machine, declaring only its start or every state its
    transitions name, gives constructions of one language up to length 4
    and the same pair of strongly equivalent states."""
    for seed in range(400):
        m = random_machine(seed)
        bare = replace(m, states=frozenset({m.start}))
        full = replace(m, states=frozenset(named_states(bare)))
        builds = ((remove_erasing, as_to_et,
                   lambda a: complement(remove_erasing(a)),
                   lambda a: union(a, a))
                  if m.mode is Mode.AS else (et_to_as,))
        for build in builds:
            assert enumerate_accepted(build(bare), 4) == \
                enumerate_accepted(build(full), 4), seed
        assert has_strongly_equivalent_states(bare) == \
            has_strongly_equivalent_states(full), seed


def test_as_to_et_start_avoids_undeclared_states():
    # s2, the first fresh name for the split start, is named by a transition
    m = Machine(input_alphabet=frozenset("a"), tape=OrderedAlphabet(("a",)),
                states=frozenset({"s"}), start="s", accepting=frozenset({"s"}),
                mode=Mode.AS, transitions={("s", "a"): ("s2", "a"),
                                           ("s2", "a"): ("s", "a")})
    assert enumerate_accepted(m, 4) == set(words(("a",), 4)) - {()}
    assert enumerate_accepted(as_to_et(m), 4) == set(words(("a",), 4))


def test_et_to_as_rejects_as_input():
    with pytest.raises(ModeError):
        et_to_as(power_of_two())


def test_mode_bridges_compose():
    a = balance_ab_et()
    back = as_to_et(et_to_as(a))
    assert run_language(back, 8) == run_language(a, 8)


# ----------------------------------------------------------------- products

def test_intersect_frozen_shape():
    c = intersect(power_of_two(), all_a())
    assert len(c.states) == 6
    assert len(c.tape.letters) == 4
    assert c.metadata["normalized"] == "remove_erasing"
    assert run_language(c, 10) == run_language(power_of_two(), 10)
    assert_pruned(c)
    roundtrips(c)


def test_product_set_semantics():
    even, odd, first_a = even_length(), odd_length(), from_dfa(starts_a_dfa())
    for a, b in ((even, odd), (even, first_a), (odd, first_a)):
        la, lb = run_language(a, 7), run_language(b, 7)
        assert run_language(intersect(a, b), 7) == la & lb
        assert run_language(union(a, b), 7) == la | lb


def test_union_with_total_and_empty_languages():
    even, odd = even_length(), odd_length()
    assert run_language(union(even, odd), 6) == set(words("ab", 6))
    assert run_language(intersect(even, odd), 6) == set()


def test_products_handle_accepting_start_operands():
    m = accepting_start()
    lang = run_language(m, 7)
    assert lang == {tuple("a" * n) for n in range(1, 8)}
    assert run_language(union(m, m), 7) == lang
    assert run_language(intersect(m, all_a()), 7) == lang


def test_product_empty_word_flags():
    even = even_length()
    assert intersect(even, even).accepts_empty
    assert union(even, odd_length()).accepts_empty
    assert not intersect(even, odd_length()).accepts_empty
    assert not union(power_of_two(), all_a()).accepts_empty


def test_products_reject_mismatched_or_emptying_operands():
    with pytest.raises(AlphabetMismatchError):
        intersect(power_of_two(), even_length())
    with pytest.raises(ModeError):
        union(center_language(), balance_ab_et())


def test_product_state_names_stay_distinct_when_states_hold_commas():
    # the pairs (x,y | z) and (x | y,z) would both be named (x,y,z)
    a = make_machine(sigma=("a",), tape=("a",), start="x", accepting=("x,y",),
                     transitions={("x", "a"): ("x,y", "a")}, mode=Mode.AS)
    b = make_machine(sigma=("a",), tape=("a",), start="z", accepting=("y,z",),
                     transitions={("z", "a"): ("y,z", "a")}, mode=Mode.AS)
    for product in (intersect, union):
        c = product(a, b)
        assert len(c.states) == 2
        assert run_language(c, 4) == set(words("a", 4)) - {()}
        roundtrips(c)


# --------------------------------------------------------------- complement

def test_complement_is_exact_on_power_of_two():
    base = remove_erasing(power_of_two())
    comp = complement(base)
    assert len(comp.states) == 8
    assert comp.accepts_empty
    lang = run_language(base, 9)
    assert run_language(comp, 9) == set(words("a", 9)) - lang
    assert_pruned(comp)
    roundtrips(comp)


def test_complement_always_halts():
    comp = complement(remove_erasing(power_of_two()))
    for word in words("a", 6):
        assert run(comp, word).verdict is not Verdict.REJECTED_LOOP


def test_complement_involution():
    base = remove_erasing(power_of_two())
    double = complement(complement(base))
    assert len(double.states) == 9
    assert run_language(double, 8) == run_language(base, 8)
    assert not double.accepts_empty


@pytest.mark.parametrize("k", [2, 5, 20])
@pytest.mark.parametrize("loops", [False, True], ids=["accepts", "loops"])
def test_complement_counts_undeclared_states(k, loops):
    m = undeclared_chain(k, loops)
    assert (enumerate_accepted(complement(m), 4)
            == enumerate_accepted(complement(remove_erasing(m)), 4))


def test_complement_input_constraints():
    with pytest.raises(ErasingInputError):
        complement(power_of_two())
    with pytest.raises(ModeError):
        complement(balance_ab_et())


def test_de_morgan_on_small_pair():
    even, first_a = even_length(), from_dfa(starts_a_dfa())
    lhs = complement(union(even, first_a))
    rhs = intersect(complement(remove_erasing(even)),
                    complement(remove_erasing(first_a)))
    assert run_language(lhs, 6) == run_language(rhs, 6)


# ------------------------------------------------------- sequential products

def test_intersect_sequential_matches_product():
    a, b = power_of_two(), all_a()
    c = intersect_sequential(a, b)
    bound = max(len(remove_erasing(a).states), len(remove_erasing(b).states)) + 3
    assert len(c.states) <= bound
    assert c.metadata["extra_states"] == "3"
    assert run_language(c, 8) == run_language(intersect(a, b), 8)
    assert_pruned(c)
    roundtrips(c)


def test_union_sequential_matches_product():
    # first operand always halts, so the one-sided union caveat does not bite
    a, b = even_length(), from_dfa(starts_a_dfa())
    c = union_sequential(a, b)
    bound = max(len(remove_erasing(a).states), len(remove_erasing(b).states)) + 3
    assert len(c.states) <= bound
    assert run_language(c, 8) == run_language(union(a, b), 8)
    assert c.accepts_empty


def test_sequential_letter_names_avoid_input_letters():
    # the frozen-track copy of the letter a would be named [a], which is
    # also an input letter here
    sigma = ("a", "[a]")
    even = from_dfa(DfaSpec(
        alphabet=sigma, states=("e", "o"), start="e", accepting=("e",),
        transitions={(q, x): "o" if q == "e" else "e"
                     for q in "eo" for x in sigma}))
    first_a = from_dfa(DfaSpec(
        alphabet=sigma, states=("s", "in"), start="s", accepting=("in",),
        transitions={("s", "a"): "in", ("in", "a"): "in",
                     ("in", "[a]"): "in"}))
    for a, b in ((even, first_a), (first_a, even)):
        la, lb = run_language(a, 4), run_language(b, 4)
        assert run_language(intersect_sequential(a, b), 4) == la & lb
        assert run_language(intersect(a, b), 4) == la & lb
        assert run_language(union_sequential(a, b), 4) == la | lb
        assert run_language(union(a, b), 4) == la | lb


def test_sequential_rejects_mismatched_alphabets():
    with pytest.raises(AlphabetMismatchError):
        intersect_sequential(power_of_two(), even_length())
    with pytest.raises(ModeError):
        union_sequential(balance_ab_et(), balance_ab_et())


# ---------------------------------------------------------------- DFA bridge

def test_from_dfa_parity():
    d = parity_dfa(accept_even=True)
    m = from_dfa(d)
    assert m.mode is Mode.AS
    assert m.accepts_empty
    want = {w for w in words("ab", 8) if len(w) % 2 == 0}
    assert run_language(m, 8) == want
    assert_pruned(m)
    roundtrips(m)


def test_from_dfa_partial_table():
    m = from_dfa(starts_a_dfa())
    assert not m.accepts_empty
    want = {w for w in words("ab", 7) if w and w[0] == "a"}
    assert run_language(m, 7) == want


def test_dfa_accepts_walks_the_table():
    d = two_hash_dfa()
    assert dfa_accepts(d, ("#", "a", "#"))
    assert not dfa_accepts(d, ("#", "a"))
    assert not dfa_accepts(d, ("#", "#", "#"))  # no row for h2 on #
    assert not dfa_accepts(d, ())


def test_dfa_spec_validation():
    with pytest.raises(ValueError):
        DfaSpec(alphabet=("a", "a"), states=("s",), start="s",
                accepting=(), transitions={})
    with pytest.raises(ValueError):
        DfaSpec(alphabet=("a",), states=("s",), start="missing",
                accepting=(), transitions={})
    with pytest.raises(ValueError):
        DfaSpec(alphabet=("a",), states=("s",), start="s",
                accepting=("ghost",), transitions={})
    with pytest.raises(ValueError):
        DfaSpec(alphabet=("a",), states=("s",), start="s", accepting=(),
                transitions={("s", "z"): "s"})


def test_parse_dfa():
    text = ("alphabet: a b\n"
            "start:    e\n"
            "accept:   e\n"
            "trans: e a -> o\n"
            "trans: e b -> o\n"
            "trans: o a -> e\n"
            "trans: o b -> e\n")
    d = parse_dfa(text)
    assert d == parity_dfa(accept_even=True)
    with pytest.raises(ParseError):
        parse_dfa(text + "trans: e a -> e\n")  # duplicate row
    with pytest.raises(ParseError):
        parse_dfa("alphabet: a\nstart: s\naccept:\ntrans: s a s\n")
    with pytest.raises(ParseError):
        parse_dfa("start: s\naccept:\n")


@pytest.mark.parametrize("text, line, reason", [
    ("alphabet: a a\nstart: s\naccept:\n", 1,
     "duplicate alphabet letter 'a'"),
    ("alphabet: a\nstart: s\naccept:\ntrans: s b -> s\ntrans: s a -> s\n",
     4, "transition letter 'b' not in alphabet"),
    ("alphabet: ->\nstart: s\naccept:\n", 1,
     "reserved token '->' used as alphabet letter"),
    ("alphabet: a\nstart: -\naccept:\n", 2,
     "reserved token '-' used as state"),
    ("alphabet: a\nstart: s\naccept: s -\n", 3,
     "reserved token '-' used as accepting state"),
    ("alphabet: a\nstart: s\naccept:\ntrans: - a -> s\n", 4,
     "reserved token '-' in transition"),
    ("alphabet: a\nstart: s\naccept:\ntrans: s a -> ->\ntrans: s a -> s\n",
     4, "reserved token '->' in transition"),
    ("alphabet: a\nstart: s\naccept:\ntrans: s - -> s\n", 4,
     "transition letter '-' not in alphabet"),
])
def test_parse_dfa_reports_the_faulty_line(text, line, reason):
    with pytest.raises(ParseError) as info:
        parse_dfa(text)
    assert (info.value.line, info.value.reason) == (line, reason)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_from_dfa_agrees_with_direct_walk(data):
    n = data.draw(st.integers(1, 4))
    states = tuple(f"q{i}" for i in range(n))
    table = {}
    for q in states:
        for x in "ab":
            table[(q, x)] = data.draw(st.sampled_from(states))
    accepting = tuple(q for q in states if data.draw(st.booleans()))
    d = DfaSpec(alphabet=("a", "b"), states=states, start="q0",
                accepting=accepting, transitions=table)
    m = from_dfa(d)
    assert validate(m) == []
    for word in words("ab", 5):
        assert accepts(m, word) == dfa_accepts(d, word), word


def test_transform_outputs_validate_clean():
    outputs = [
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
    for m in outputs:
        assert validate(m) == []


def test_union_sequential_caveat_covers_emptying_first_operands():
    # a empties its tape on "a", so it rejects; remove_erasing(a) loops
    # over placeholders instead, and the union inherits the loop
    a, b = random_machine(45), random_machine(47)
    assert run(a, "a").verdict is Verdict.REJECTED_EMPTY_TAPE
    assert run(remove_erasing(a), "a").verdict is Verdict.REJECTED_LOOP
    assert run(b, "a").verdict is Verdict.ACCEPTED
    assert run(union_sequential(a, b), "a").verdict is Verdict.REJECTED_LOOP


def _as_form(m: Machine) -> Machine:
    return m if m.mode is Mode.AS else et_to_as(m)


@settings(max_examples=75, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.data())
def test_every_construction_matches_set_semantics(seed_a, seed_b, data):
    """Each construction's words up to length 6, against the languages its
    operands give with one run per word."""
    a = random_machine(seed_a)
    b = next(m for m in map(random_machine, itertools.count(seed_b))
             if m.input_alphabet == a.input_alphabet)
    sigma = sorted(a.input_alphabet)
    everything = set(words(sigma, 6))
    lang_a, lang_b = run_language(a, 6), run_language(b, 6)
    a_as, b_as = _as_form(a), _as_form(b)
    plain_a = remove_erasing(a_as)
    cases = [
        (remove_erasing, plain_a, lang_a),
        (as_to_et, as_to_et(a_as), lang_a | {()}),
        (complement, complement(plain_a), everything - lang_a),
        (intersect, intersect(a_as, b_as), lang_a & lang_b),
        (union, union(a_as, b_as), lang_a | lang_b),
        (intersect_sequential, intersect_sequential(a_as, b_as),
         lang_a & lang_b),
    ]
    if a.mode is Mode.ET:
        cases.append((et_to_as, a_as, lang_a))
    states = [f"d{i}" for i in range(data.draw(st.integers(1, 3)))]
    table = {}
    for q in states:
        for x in sigma:
            if data.draw(st.booleans()):
                table[(q, x)] = data.draw(st.sampled_from(states))
    d = DfaSpec(alphabet=sigma, states=states, start="d0",
                accepting=[q for q in states if data.draw(st.booleans())],
                transitions=table)
    cases.append((from_dfa, from_dfa(d),
                  {w for w in everything if dfa_accepts(d, w)}))
    for construction, m, expected in cases:
        assert enumerate_accepted(m, 6) == expected, construction.__name__
    # union_sequential is exact only where remove_erasing(a) halts
    halting = {w for w in everything
               if run(plain_a, w).verdict is not Verdict.REJECTED_LOOP}
    m = union_sequential(a_as, b_as)
    assert ({w for w in halting if accepts(m, w)}
            == (lang_a | lang_b) & halting)
    # every construction but these three ends in the pruning tail
    assert_pruned(m)
    for construction, m, _ in cases:
        if construction not in (remove_erasing, as_to_et, from_dfa):
            assert_pruned(m)


# ------------------------------------------------------------------ pruning

def test_pruned_sizes_of_the_benchmark_constructions():
    """(states, tape letters, transitions) of the constructions the
    benchmark builds, so that a construction that regrows fails here."""
    center = center_language()
    balance = et_to_as(balance_ab_et())
    built = {
        "et_to_as": balance,
        "intersect": intersect(center, balance),
        "union": union(center, balance),
        "intersect_sequential": intersect_sequential(center, balance),
        "union_sequential": union_sequential(center, balance),
        "complement center": complement(remove_erasing(center)),
        "complement balance": complement(remove_erasing(balance)),
    }
    sizes = {name: (len(m.states), len(m.tape.letters), len(m.transitions))
             for name, m in built.items()}
    assert sizes == {
        "et_to_as": (6, 5, 22),
        "intersect": (59, 24, 997),
        "union": (76, 37, 2059),
        "intersect_sequential": (16, 28, 196),
        "union_sequential": (16, 28, 287),
        "complement center": (18, 12, 170),
        "complement balance": (41, 5, 162),
    }
    for m in built.values():
        assert_pruned(m)


SERIALIZE_EVERY_CONSTRUCTION = """
import hashlib
from common import random_machine
from fr1tass import (as_to_et, complement, et_to_as, intersect,
                     intersect_sequential, remove_erasing, serialize_machine,
                     union, union_sequential)
from fr1tass.gallery import GALLERY
from fr1tass.model import Mode

operands = [build() for build in GALLERY.values()]
operands += [random_machine(seed) for seed in range(12)]
built, as_forms = [], []
for m in operands:
    if m.mode is Mode.AS:
        built += [remove_erasing(m), as_to_et(m), complement(remove_erasing(m))]
        as_forms.append(m)
    else:
        built.append(et_to_as(m))
        as_forms.append(built[-1])
for i, a in enumerate(as_forms):
    b = next((b for b in as_forms[i + 1:]
              if b.input_alphabet == a.input_alphabet), None)
    if b is not None:
        built += [product(a, b) for product in (
            intersect, union, intersect_sequential, union_sequential)]
for m in built:
    print(hashlib.md5(serialize_machine(m).encode()).hexdigest())
"""


def test_construction_output_does_not_depend_on_the_hash_seed():
    # transitions are listed in the order the pruning tail finds them, so
    # that order must not come from iterating a set of strings
    src = os.path.dirname(os.path.dirname(transform.__file__))
    path = os.pathsep.join([src, os.path.dirname(__file__)])
    outputs = [subprocess.run(
        [sys.executable, "-c", SERIALIZE_EVERY_CONSTRUCTION],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
    ).stdout for seed in ("0", "1")]
    assert len(outputs[0].split()) > 50
    assert outputs[0] == outputs[1]
