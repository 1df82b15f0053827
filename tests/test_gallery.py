"""Built-in machines: languages, instance handling, the random source."""

import pytest

from common import random_unary_noaux, run_language, words
from fr1tass.exceptions import IndexOutOfRangeError, PcpInstanceError
from fr1tass.gallery import (GALLERY, balance_ab_et, center_language,
                             marked_copy, power_of_two)
from fr1tass.model import Mode, ParseError, validate
from fr1tass.pcp import (PcpInstance, encode_pcp_candidate, parse_pcp_instance,
                         pcp_machine)
from fr1tass.simulate import Verdict, accepts, run

INSTANCE = PcpInstance(u_words=("a", "ab"), v_words=("aa", "b"),
                       base_alphabet=("a", "b"))


def test_registry_contents():
    assert list(GALLERY) == ["power_of_two", "marked_copy", "center_language",
                             "balance_ab_et"]
    for build in GALLERY.values():
        assert validate(build()) == []


def test_power_of_two_language():
    m = power_of_two()
    got = {len(w) for w in run_language(m, 16)}
    assert got == {1, 2, 4, 8, 16}


def test_marked_copy_language():
    m = marked_copy()
    cases = {
        ("#", "#"): True,
        ("#", "a", "#", "a"): True,
        ("#", "a", "b", "#", "a", "b"): True,
        ("#", "b", "b", "#", "b", "b"): True,
        ("#", "a", "#", "b"): False,
        ("#", "a", "b", "#", "b", "a"): False,
        ("#", "a", "#"): False,
        ("#", "a", "a"): False,
        ("a", "#", "a", "#"): False,
        ("#",): False,
        (): False,
    }
    for word, expected in cases.items():
        assert accepts(m, word) == expected, word


def test_center_language():
    m = center_language()
    for word in words("ab", 9):
        expected = len(word) % 2 == 1 and word[len(word) // 2] == "a"
        assert accepts(m, word) == expected, word


def test_balance_language():
    m = balance_ab_et()
    for word in words("ab", 8):
        gap = word.count("a") - word.count("b")
        assert accepts(m, word) == (gap in (0, 1)), word
    assert run(m, "b").verdict is Verdict.REJECTED_LOOP


def test_pcp_machine_on_frozen_instance():
    m = pcp_machine(INSTANCE)
    assert validate(m) == []
    assert m.is_no_aux()
    assert len(m.states) == 36
    good = encode_pcp_candidate(INSTANCE, [1, 2])
    assert good == tuple("# 1~ 2~ # a~ a~ b~ # a~ a~ b~".split())
    assert accepts(m, good)
    assert not accepts(m, encode_pcp_candidate(INSTANCE, [1]))
    assert not accepts(m, encode_pcp_candidate(INSTANCE, [2]))
    assert not accepts(m, ("#", "#", "#"))
    assert not accepts(m, ())
    assert not accepts(m, ("#", "1~", "#", "a~", "#", "a~", "b~"))


def test_pcp_machine_accepts_repeated_solutions():
    m = pcp_machine(INSTANCE)
    assert accepts(m, encode_pcp_candidate(INSTANCE, [1, 2, 1, 2]))
    assert not accepts(m, encode_pcp_candidate(INSTANCE, [1, 2, 1]))
    assert not accepts(m, encode_pcp_candidate(INSTANCE, [2, 1]))


def test_instance_validation():
    with pytest.raises(PcpInstanceError):
        PcpInstance(u_words=(), v_words=(), base_alphabet=("a",))
    with pytest.raises(PcpInstanceError):
        PcpInstance(u_words=("a",), v_words=("a", "b"), base_alphabet=("a", "b"))
    with pytest.raises(PcpInstanceError):
        PcpInstance(u_words=("a",), v_words=("a",), base_alphabet=("a", "a"))
    with pytest.raises(PcpInstanceError):
        PcpInstance(u_words=("#",), v_words=("#",), base_alphabet=("#",))
    with pytest.raises(PcpInstanceError):
        PcpInstance(u_words=("x~",), v_words=("x~",), base_alphabet=("x~",))
    with pytest.raises(PcpInstanceError):
        # a base letter spelled like an index name would be ambiguous
        PcpInstance(u_words=("1", "1"), v_words=("1", "1"),
                    base_alphabet=("1", "x"))
    with pytest.raises(PcpInstanceError):
        PcpInstance(u_words=("", "a"), v_words=("a", "a"),
                    base_alphabet=("a",))
    with pytest.raises(PcpInstanceError):
        PcpInstance(u_words=("z",), v_words=("a",), base_alphabet=("a",))


def test_instance_accepts_tuple_words():
    p = PcpInstance(u_words=(("ab", "c"),), v_words=(("c",),),
                    base_alphabet=("ab", "c"))
    assert p.u_words == (("ab", "c"),)
    assert p.size == 1


def test_encode_rejects_bad_index_sequences():
    with pytest.raises(IndexOutOfRangeError):
        encode_pcp_candidate(INSTANCE, [])
    with pytest.raises(IndexOutOfRangeError):
        encode_pcp_candidate(INSTANCE, [0])
    with pytest.raises(IndexOutOfRangeError):
        encode_pcp_candidate(INSTANCE, [3])


def test_parse_pcp_instance():
    text = "#! a remark\nalphabet: a b\nu: a\nu: a b\n\nv: a a\nv: b\n"
    assert parse_pcp_instance(text) == INSTANCE
    with pytest.raises(ParseError):
        parse_pcp_instance("u: a\nv: a\n")  # no alphabet line
    with pytest.raises(ParseError):
        parse_pcp_instance("alphabet: a\nalphabet: a\nu: a\nv: a\n")
    with pytest.raises(ParseError):
        parse_pcp_instance("alphabet: a\nw: a\n")
    with pytest.raises(ParseError):
        parse_pcp_instance("alphabet: a\nu: a\n")  # unpaired word


@pytest.mark.parametrize("text, line, reason", [
    ("alphabet: -\nu: -\nv: -\n", 1, "reserved token '-' used as base letter"),
    ("u: a\nalphabet: a ->\nv: a\n", 2,
     "reserved token '->' used as base letter"),
    ("alphabet: a b a\nu: a\nv: a\n", 1, "duplicate base letter 'a'"),
])
def test_parse_pcp_instance_rejects_bad_alphabets(text, line, reason):
    with pytest.raises(ParseError) as info:
        parse_pcp_instance(text)
    assert (info.value.line, info.value.reason) == (line, reason)


@pytest.mark.parametrize("text, line, reason", [
    ("alphabet: a\nu: a\nu: z\nv: a\nv: a\n", 3,
     "word letter 'z' outside base alphabet"),
    ("u: a\nv: z\nalphabet: a\n", 2, "word letter 'z' outside base alphabet"),
    ("alphabet: a\nu: a\nu: a\nv: a\nv:\n", 5, "empty word"),
    ("alphabet: a\nu:\nv: a\n", 2, "empty word"),
    ("alphabet: a\nu: a\nu: a a\nu: a\nv: a\n", 3,
     "u: line without a partner"),
    ("alphabet: a\nv: a\nu: a\nv: a a\n", 4, "v: line without a partner"),
    # word faults are reported before the pairing
    ("alphabet: a\nu: a\nu: a\nv: z\n", 4,
     "word letter 'z' outside base alphabet"),
])
def test_parse_pcp_instance_reports_word_faults_on_their_line(text, line,
                                                             reason):
    with pytest.raises(ParseError) as info:
        parse_pcp_instance(text)
    assert (info.value.line, info.value.reason) == (line, reason)


def test_random_unary_is_reproducible():
    for seed in (0, 7, 99):
        a = random_unary_noaux(seed, 4)
        b = random_unary_noaux(seed, 4)
        assert a == b
        assert validate(a) == []
        assert a.is_no_aux()
        assert len(a.states) == 4


def test_random_unary_covers_both_modes():
    modes = {random_unary_noaux(seed, 3).mode for seed in range(30)}
    assert modes == {Mode.AS, Mode.ET}


def test_random_unary_rejects_empty_state_count():
    with pytest.raises(ValueError):
        random_unary_noaux(0, 0)


def test_random_unary_emptying_machines_have_no_accepting_states():
    for seed in range(40):
        m = random_unary_noaux(seed, 3)
        if m.mode is Mode.ET:
            assert m.accepting == frozenset()
