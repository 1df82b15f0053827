"""Core data model: alphabets, validation, the file format, rendering."""

import random
import re
from dataclasses import replace

import pytest

from common import random_machine
from fr1tass.exceptions import Fr1tassError
from fr1tass.gallery import GALLERY, power_of_two
from fr1tass.model import (Machine, Mode, OrderedAlphabet, ParseError,
                           Violation, ViolationCode, fresh_name, make_machine,
                           parse_machine, serialize_machine, to_dot, validate)

REFERENCE_TEXT = """\
input:  a
tape:   A a
start:  1
accept: 5
mode:   AS
trans:  1 a -> 2 A
trans:  2 a -> 3 -
trans:  2 A -> 5 A
trans:  3 a -> 4 a
trans:  3 A -> 2 A
trans:  4 a -> 3 -
"""


def test_reference_serialization_is_stable():
    assert serialize_machine(power_of_two()) == REFERENCE_TEXT


def test_parse_of_reference_text_round_trips():
    m = parse_machine(REFERENCE_TEXT)
    assert m == power_of_two()
    assert serialize_machine(m) == REFERENCE_TEXT


def test_gallery_round_trips():
    for name, build in GALLERY.items():
        m = build()
        again = parse_machine(serialize_machine(m))
        assert again == m, name


def test_ordered_alphabet_basics():
    g = OrderedAlphabet(("B", "b", "a"))
    assert g.rank("B") == 0 and g.rank("a") == 2
    assert "b" in g and "z" not in g
    assert list(g) == ["B", "b", "a"]
    assert len(g) == 3


def test_ordered_alphabet_rejects_duplicates_and_bad_tokens():
    with pytest.raises(ValueError):
        OrderedAlphabet(("a", "a"))
    with pytest.raises(ValueError):
        OrderedAlphabet(("a", "two words"))
    with pytest.raises(ValueError):
        OrderedAlphabet(("",))


def test_machine_helpers():
    m = power_of_two()
    assert m.rank("A") == 0 and m.rank("a") == 1
    assert m.has_erasing()
    assert not m.is_no_aux()
    plain = make_machine(sigma=("a",), tape=("a",), start="s", accepting=(),
                         transitions={("s", "a"): ("s", "a")}, mode=Mode.AS)
    assert not plain.has_erasing()
    assert plain.is_no_aux()


def test_make_machine_derives_states():
    m = make_machine(
        sigma=("a",), tape=("a",), start="p", accepting=("q",),
        transitions={("p", "a"): ("r", None)}, mode=Mode.AS,
        extra_states=("lonely",))
    assert m.states == frozenset({"p", "q", "r", "lonely"})
    assert m.metadata == {}


def test_fresh_name_counts_up():
    assert fresh_name("BOX", set()) == "BOX"
    assert fresh_name("BOX", {"BOX"}) == "BOX2"
    assert fresh_name("BOX", {"BOX", "BOX2", "BOX3"}) == "BOX4"


def _violating(**overrides):
    base = dict(
        input_alphabet=frozenset({"a"}),
        tape=OrderedAlphabet(("A", "a")),
        states=frozenset({"p", "q"}),
        start="p",
        accepting=frozenset(),
        transitions={("p", "a"): ("q", "A")},
        mode=Mode.AS,
    )
    base.update(overrides)
    return Machine(**base)


def test_validate_clean_machine():
    assert validate(power_of_two()) == []


def test_validate_flags_input_letter_missing_from_tape():
    m = _violating(input_alphabet=frozenset({"a", "z"}))
    codes = {v.code for v in validate(m)}
    assert ViolationCode.SIGMA_NOT_IN_GAMMA in codes


def test_validate_flags_bad_start_and_accept():
    m = _violating(start="ghost", accepting=frozenset({"phantom"}))
    codes = {v.code for v in validate(m)}
    assert ViolationCode.BAD_START in codes
    assert ViolationCode.BAD_ACCEPT in codes


def test_validate_flags_rank_raising_output():
    m = _violating(transitions={("p", "A"): ("q", "a")})
    codes = {v.code for v in validate(m)}
    assert ViolationCode.NON_FREEZING in codes


def test_validate_flags_unknown_letters_and_states():
    m = _violating(transitions={("p", "z"): ("q", None)})
    codes = {v.code for v in validate(m)}
    assert ViolationCode.UNKNOWN_LETTER in codes
    m = _violating(transitions={("p", "a"): ("stranger", None)})
    codes = {v.code for v in validate(m)}
    assert ViolationCode.UNKNOWN_STATE in codes


def test_validate_report_is_sorted_and_printable():
    m = _violating(start="ghost", accepting=frozenset({"phantom"}),
                   transitions={("p", "A"): ("q", "a")})
    report = validate(m)
    assert report == sorted(report, key=lambda v: (v.code.value, v.message))
    for violation in report:
        assert str(violation) == f"{violation.code.value}: {violation.message}"
    assert isinstance(report[0], Violation)


def test_parse_requires_directive_order():
    with pytest.raises(ParseError) as err:
        parse_machine("input: a\nstart: s\n")
    assert err.value.line == 2
    assert "tape" in str(err.value)


def test_parse_reports_line_numbers():
    text = REFERENCE_TEXT + "trans:  1 a -> 2 A\n"
    with pytest.raises(ParseError) as err:
        parse_machine(text)
    assert err.value.line == 12
    assert err.value.code is ViolationCode.DUPLICATE_TRANSITION


def test_parse_rejects_unknown_letter_with_code():
    text = "input:  a\ntape:   a\nstart:  s\naccept:\nmode:   AS\ntrans:  s z -> s a\n"
    with pytest.raises(ParseError) as err:
        parse_machine(text)
    assert err.value.code is ViolationCode.UNKNOWN_LETTER
    assert err.value.line == 6


def test_parse_rejects_rank_raising_output_with_code():
    text = "input:  a\ntape:   A a\nstart:  s\naccept:\nmode:   AS\ntrans:  s A -> s a\n"
    with pytest.raises(ParseError) as err:
        parse_machine(text)
    assert err.value.code is ViolationCode.NON_FREEZING


def test_parse_rejects_input_letter_missing_from_tape():
    text = "input:  a z\ntape:   a\nstart:  s\naccept:\nmode:   AS\n"
    with pytest.raises(ParseError) as err:
        parse_machine(text)
    assert err.value.code is ViolationCode.SIGMA_NOT_IN_GAMMA
    assert err.value.line == 1


def test_parse_rejects_reserved_tokens():
    with pytest.raises(ParseError):
        parse_machine("input:  -\ntape:   -\nstart:  s\naccept:\nmode:   AS\n")
    with pytest.raises(ParseError):
        parse_machine("input:  a\ntape:   a\nstart:  ->\naccept:\nmode:   AS\n")


def test_parse_rejects_bad_mode_and_bad_empty():
    with pytest.raises(ParseError):
        parse_machine("input:  a\ntape:   a\nstart:  s\naccept:\nmode:   XX\n")
    with pytest.raises(ParseError):
        parse_machine(
            "input:  a\ntape:   a\nstart:  s\naccept:\nmode:   ET\nempty:  true\n")
    with pytest.raises(ParseError):
        parse_machine(
            "input:  a\ntape:   a\nstart:  s\naccept:\nmode:   AS\nempty:  maybe\n")


def test_parse_rejects_malformed_transition_shape():
    text = "input:  a\ntape:   a\nstart:  s\naccept:\nmode:   AS\ntrans:  s a s a\n"
    with pytest.raises(ParseError) as err:
        parse_machine(text)
    assert err.value.line == 6


def test_parse_error_is_a_package_error():
    assert issubclass(ParseError, Fr1tassError)
    err = ParseError(7, "boom", ViolationCode.NON_FREEZING)
    assert "line 7" in str(err) and "NonFreezing" in str(err)


def test_lenient_parse_defers_rule_checks_to_validate():
    text = "input:  a z\ntape:   A a\nstart:  s\naccept:\nmode:   AS\n" \
           "trans:  s A -> s a\ntrans:  s q -> s -\n"
    with pytest.raises(ParseError):
        parse_machine(text)
    m = parse_machine(text, strict=False)
    codes = {v.code for v in validate(m)}
    assert ViolationCode.SIGMA_NOT_IN_GAMMA in codes
    assert ViolationCode.NON_FREEZING in codes
    assert ViolationCode.UNKNOWN_LETTER in codes


def _mutant(text: str, rng: random.Random) -> str:
    """text with one to three tokens or lines dropped, duplicated or swapped."""
    if rng.random() < 0.5:
        units, glue = text.splitlines(), "\n"
    else:
        units, glue = re.findall(r"\S+|\n", text), " "
    for _ in range(rng.randint(1, 3)):
        if not units:
            break
        i, j = rng.randrange(len(units)), rng.randrange(len(units))
        kind = rng.choice(("drop", "duplicate", "swap"))
        if kind == "drop":
            del units[i]
        elif kind == "duplicate":
            units.insert(j, units[i])
        else:
            units[i], units[j] = units[j], units[i]
    return glue.join(units)


def test_strict_parse_raises_or_validates_cleanly():
    outcomes = {"parsed": 0, "raised": 0}
    for seed in range(200):
        text = serialize_machine(random_machine(seed))
        assert validate(parse_machine(text)) == [], seed
        rng = random.Random(seed)
        for _ in range(25):
            try:
                m = parse_machine(_mutant(text, rng))
            except ParseError:
                outcomes["raised"] += 1
                continue
            outcomes["parsed"] += 1
            assert validate(m) == [], seed
    assert min(outcomes.values()) > 100, outcomes


def test_lenient_parse_still_rejects_shape_problems():
    with pytest.raises(ParseError):
        parse_machine("input: a\n", strict=False)
    with pytest.raises(ParseError):
        parse_machine(REFERENCE_TEXT + "trans:  1 a -> 2 A\n", strict=False)


def test_empty_word_flag_round_trips():
    m = make_machine(sigma=("a",), tape=("a",), start="s", accepting=("s",),
                     transitions={}, mode=Mode.AS, accepts_empty=True)
    text = serialize_machine(m)
    assert "empty:  true" in text.splitlines()
    assert parse_machine(text).accepts_empty


def test_comments_and_blank_lines_are_ignored():
    text = "#! a note\n\n" + REFERENCE_TEXT.replace(
        "mode:   AS", "mode:   AS  #! trailing remark")
    assert parse_machine(text) == power_of_two()


def test_metadata_serializes_as_comments():
    m = make_machine(sigma=("a",), tape=("a",), start="s", accepting=(),
                     transitions={("s", "a"): ("s", "a")}, mode=Mode.AS,
                     metadata={"origin": "test", "extra_states": "3"})
    text = serialize_machine(m)
    lines = text.splitlines()
    assert lines[0] == "#! extra_states: 3"
    assert lines[1] == "#! origin: test"
    again = parse_machine(text)
    assert again == m  # equality ignores metadata
    assert again.metadata == {}


def test_to_dot_mentions_all_parts():
    dot = to_dot(power_of_two())
    assert dot.startswith("digraph")
    assert '"5" [shape=doublecircle]' in dot
    assert '"2" -> "3" [label="a/' in dot  # erasing edge
    assert "__start" in dot
    # a state literally named __start must not collide with the arrow node
    m = make_machine(sigma=("a",), tape=("a",), start="__start", accepting=(),
                     transitions={("__start", "a"): ("__start", "a")},
                     mode=Mode.AS)
    dot = to_dot(m)
    assert '"__start_"' in dot
    # states only the transitions name are nodes too, and the arrow node
    # avoids them
    m = replace(m, states=frozenset({"s"}), start="s",
                transitions={("s", "a"): ("__start", "a")})
    dot = to_dot(m)
    assert '"__start" [shape=circle]' in dot and '"__start_"' in dot
