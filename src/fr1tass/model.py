"""Data model and textual format for freezing circular-tape machines.

A machine consumes the front letter of a circular tape and appends at most
one letter at the back.  The tape alphabet carries a total order, and every
transition may only write a letter that ranks at or below the letter it
consumed ("freezing"), or erase.  Machines accept either the moment an
accepting state is entered (AS mode) or when the tape becomes empty
(ET mode).
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Optional

from .exceptions import Fr1tassError

Word = tuple[str, ...]

# Tokens with fixed meaning in the file format.
RESERVED_TOKENS = {"-", "->"}
COMMENT_MARK = "#!"


class Mode(enum.Enum):
    """Acceptance discipline of a machine."""

    AS = "AS"
    ET = "ET"


class ViolationCode(enum.Enum):
    SIGMA_NOT_IN_GAMMA = "SigmaNotInGamma"
    NON_FREEZING = "NonFreezing"
    UNKNOWN_LETTER = "UnknownLetter"
    DUPLICATE_TRANSITION = "DuplicateTransition"


@dataclass(frozen=True)
class Violation:
    code: ViolationCode
    message: str

    def __str__(self) -> str:
        return f"{self.code.value}: {self.message}"


class ParseError(Fr1tassError):
    """Raised for malformed machine files.

    Carries the 1-based line number, a human reason, and the violation code
    when the problem maps onto one.
    """

    def __init__(self, line: int, reason: str, code: Optional[ViolationCode] = None):
        self.line = line
        self.reason = reason
        self.code = code
        tag = f" [{code.value}]" if code is not None else ""
        super().__init__(f"line {line}: {reason}{tag}")


def _check_token(token: str, what: str) -> str:
    if not token or token in RESERVED_TOKENS or COMMENT_MARK in token:
        raise ValueError(f"illegal {what} token: {token!r}")
    if any(ch.isspace() for ch in token):
        raise ValueError(f"{what} token contains whitespace: {token!r}")
    return token


@dataclass(frozen=True)
class OrderedAlphabet:
    """Tape alphabet with a strict total order (index 0 is smallest)."""

    letters: tuple[str, ...]
    _rank: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for letter in self.letters:
            _check_token(letter, "letter")
        ranks = {letter: i for i, letter in enumerate(self.letters)}
        if len(ranks) != len(self.letters):
            raise ValueError("duplicate letters in alphabet")
        object.__setattr__(self, "_rank", ranks)

    def rank(self, letter: str) -> int:
        return self._rank[letter]

    def __contains__(self, letter: str) -> bool:
        return letter in self._rank

    def __iter__(self):
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class Machine:
    """A deterministic freezing machine over a circular tape.

    ``transitions`` maps (state, consumed letter) to (next state, output)
    where output ``None`` means erase.  ``accepts_empty`` is only meaningful
    in AS mode; ET machines always accept the empty word.  ``states`` is
    completed on construction with the start, the accepting states and
    every state a transition names, so it holds every state a run enters.

    Instances are treated as immutable; ``metadata`` is free-form bookkeeping
    that does not participate in equality.
    """

    input_alphabet: frozenset[str]
    tape: OrderedAlphabet
    states: frozenset[str]
    start: str
    accepting: frozenset[str]
    transitions: dict
    mode: Mode
    accepts_empty: bool = False
    metadata: dict = field(default_factory=dict, compare=False, repr=False)
    # the run engine's tables, built on first use (see simulate._compile)
    _compiled: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # states holds every state the start, the accepting set or a
        # transition names; each distinct token is checked once
        states = dict.fromkeys([*self.states, self.start, *self.accepting])
        letters = {}
        for (q, a), (q2, out) in self.transitions.items():
            states[q] = states[q2] = letters[a] = None
            if out is not None:
                letters[out] = None
        for token in states:
            _check_token(token, "state")
        for token in letters:
            _check_token(token, "letter")
        object.__setattr__(self, "states", frozenset(states))
        object.__setattr__(self, "_compiled", None)

    def rank(self, letter: str) -> int:
        return self.tape.rank(letter)

    def has_erasing(self) -> bool:
        return any(out is None for _, out in self.transitions.values())

    def is_no_aux(self) -> bool:
        """True when the tape alphabet adds nothing beyond the input."""
        return set(self.tape.letters) == set(self.input_alphabet)


def validate(m: Machine) -> list:
    """Structural well-formedness report; empty list means well-formed."""
    report: list[Violation] = []
    for letter in sorted(m.input_alphabet):
        if letter not in m.tape:
            report.append(Violation(
                ViolationCode.SIGMA_NOT_IN_GAMMA,
                f"input letter {letter} missing from tape alphabet"))
    for (q, a), (q2, out) in sorted(m.transitions.items()):
        where = f"transition {q} {a}"
        if a not in m.tape:
            report.append(Violation(
                ViolationCode.UNKNOWN_LETTER, f"{where}: letter {a} not on tape"))
        if out is not None and out not in m.tape:
            report.append(Violation(
                ViolationCode.UNKNOWN_LETTER, f"{where}: output {out} not on tape"))
        if (a in m.tape and out is not None and out in m.tape
                and m.tape.rank(out) > m.tape.rank(a)):
            report.append(Violation(
                ViolationCode.NON_FREEZING,
                f"{where}: writes {out} above {a}"))
    report.sort(key=lambda v: (v.code.value, v.message))
    return report


# --- file format -----------------------------------------------------------

def _tokenize(text: str):
    """Yield (line number, [interned tokens]) for non-blank lines."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(COMMENT_MARK, 1)[0]
        tokens = list(map(sys.intern, line.split()))
        if tokens:
            yield number, tokens


def _read_directives(text: str):
    """Reader for the directive-style file formats.

    Returns (expect, body).  expect(directive, optional) consumes the next
    non-blank line if it starts with 'directive:' and returns (line
    number, the tokens after it); otherwise it returns None if optional
    and raises ParseError if not.  body() yields (line number, tokens) for
    every line left, front to back, so the first faulty line raises first.
    """
    lines = _tokenize(text)
    ahead = next(lines, None)  # the next line, not yet consumed
    last_line = 1  # the last line consumed

    def expect(directive: str, optional: bool = False):
        nonlocal ahead, last_line
        if ahead is None:
            if optional:
                return None
            raise ParseError(last_line, f"missing '{directive}:' directive")
        number, tokens = ahead
        if tokens[0] != directive + ":":
            if optional:
                return None
            raise ParseError(number, f"expected '{directive}:', got {tokens[0]!r}")
        last_line, ahead = number, next(lines, None)
        return number, tokens[1:]

    def body():
        if ahead is not None:
            yield ahead
            yield from lines

    return expect, body


def _letters_of(tokens, number: int, what: str) -> list:
    """The tokens of one line, which must be distinct and not reserved."""
    seen = []
    for token in tokens:
        if token in RESERVED_TOKENS:
            raise ParseError(number, f"reserved token {token!r} used as {what}")
        if token in seen:
            raise ParseError(number, f"duplicate {what} {token!r}")
        seen.append(token)
    return seen


def parse_machine(text: str, strict: bool = True) -> Machine:
    """Parse the line-based machine format.

    Directives must appear in the order input, tape, start, accept, mode,
    optional empty, optional states, then any number of trans lines.  The
    parsed machine is guaranteed to validate cleanly, because the checks
    made while reading cover every violation code; problems raise
    ParseError with a line number and, where it applies, a violation code.

    With strict off, shape problems still raise but rule violations
    (input letters missing from the tape, unknown letters, rank-raising
    outputs) are let through so validate can report them all at once.
    """
    expect, rest = _read_directives(text)
    in_line, in_tokens = expect("input")
    sigma = _letters_of(in_tokens, in_line, "input letter")
    tape_line, tape_tokens = expect("tape")
    gamma = _letters_of(tape_tokens, tape_line, "tape letter")
    rank = {letter: i for i, letter in enumerate(gamma)}
    if strict:
        for letter in sigma:
            if letter not in rank:
                raise ParseError(in_line, f"input letter {letter!r} not on tape",
                                 ViolationCode.SIGMA_NOT_IN_GAMMA)

    start_line, start_tokens = expect("start")
    if len(start_tokens) != 1:
        raise ParseError(start_line, "start takes exactly one state")
    start = _letters_of(start_tokens, start_line, "state")[0]

    acc_line, acc_tokens = expect("accept")
    accepting = _letters_of(acc_tokens, acc_line, "accepting state")

    mode_line, mode_tokens = expect("mode")
    if len(mode_tokens) != 1 or mode_tokens[0] not in ("AS", "ET"):
        raise ParseError(mode_line, "mode must be AS or ET")
    mode = Mode(mode_tokens[0])

    accepts_empty = False
    got = expect("empty", optional=True)
    if got is not None:
        empty_line, empty_tokens = got
        if mode is not Mode.AS:
            raise ParseError(empty_line, "empty: is only meaningful in AS mode")
        if len(empty_tokens) != 1 or empty_tokens[0] not in ("true", "false"):
            raise ParseError(empty_line, "empty must be true or false")
        accepts_empty = empty_tokens[0] == "true"

    extra_states: list = []
    got = expect("states", optional=True)
    if got is not None:
        extra_states = _letters_of(got[1], got[0], "state")

    transitions: dict = {}
    for number, tokens in rest():
        if tokens[0] != "trans:":
            raise ParseError(number, f"expected 'trans:', got {tokens[0]!r}")
        body = tokens[1:]
        if len(body) != 5 or body[2] != "->":
            raise ParseError(
                number, "trans needs the shape: state letter -> state output")
        q, a, _, q2, out_token = body
        for token in (q, a, q2):
            if token in RESERVED_TOKENS:
                raise ParseError(number, f"reserved token {token!r} in transition")
        if strict and a not in rank:
            raise ParseError(number, f"letter {a!r} not on tape",
                             ViolationCode.UNKNOWN_LETTER)
        out: Optional[str] = None
        if out_token != "-":
            if out_token == "->":
                raise ParseError(number, "reserved token '->' in transition")
            if strict:
                if out_token not in rank:
                    raise ParseError(number, f"output {out_token!r} not on tape",
                                     ViolationCode.UNKNOWN_LETTER)
                if rank[out_token] > rank[a]:
                    raise ParseError(number,
                                     f"output {out_token!r} ranks above {a!r}",
                                     ViolationCode.NON_FREEZING)
            out = out_token
        if (q, a) in transitions:
            raise ParseError(number, f"duplicate transition for ({q}, {a})",
                             ViolationCode.DUPLICATE_TRANSITION)
        transitions[(q, a)] = (q2, out)

    return make_machine(sigma, gamma, start, accepting, transitions, mode,
                        accepts_empty, extra_states)


def serialize_machine(m: Machine) -> str:
    """Render a machine in the line-based format.

    Transitions keep the machine's order, which for the pruned
    constructions is the order their pruning tail found them from the
    start, so output is stable; parse_machine(serialize_machine(m)) is
    structurally identical to m.  A states line lists, sorted, the
    declared states that the start, the accepting set and the transitions
    do not name; a machine with none has no such line.
    """
    def row(directive: str, body: str) -> str:
        return f"{directive + ':':<7} {body}".rstrip()

    out = []
    for key in sorted(m.metadata):
        out.append(f"{COMMENT_MARK} {key}: {m.metadata[key]}")
    out.append(row("input", " ".join(sorted(m.input_alphabet, key=m.tape.rank))))
    out.append(row("tape", " ".join(m.tape.letters)))
    out.append(row("start", m.start))
    out.append(row("accept", " ".join(sorted(m.accepting))))
    out.append(row("mode", m.mode.value))
    if m.mode is Mode.AS and m.accepts_empty:
        out.append(row("empty", "true"))
    first = itemgetter(0)
    unnamed = m.states.difference((m.start,), m.accepting,
                                  map(first, m.transitions),
                                  map(first, m.transitions.values()))
    if unnamed:
        out.append(row("states", " ".join(sorted(unnamed))))
    for (q, a), (q2, write) in m.transitions.items():
        out.append(row("trans", f"{q} {a} -> {q2} {write if write is not None else '-'}"))
    return "\n".join(out) + "\n"


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(m: Machine) -> str:
    """Graphviz digraph: states as nodes, one edge per transition."""
    names = sorted(m.states)
    entry = "__start"
    while entry in names:
        entry += "_"
    lines = ["digraph machine {", "  rankdir=LR;",
             f"  {_dot_quote(entry)} [shape=point, label=\"\"];"]
    for q in names:
        shape = "doublecircle" if q in m.accepting else "circle"
        lines.append(f"  {_dot_quote(q)} [shape={shape}];")
    lines.append(f"  {_dot_quote(entry)} -> {_dot_quote(m.start)};")
    for (q, a), (q2, write) in m.transitions.items():
        label = f"{a}/{write if write is not None else 'λ'}"
        lines.append(f"  {_dot_quote(q)} -> {_dot_quote(q2)} "
                     f"[label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def make_machine(sigma: Iterable[str], tape: Iterable[str], start: str,
                 accepting: Iterable[str], transitions: Mapping, mode: Mode,
                 accepts_empty: bool = False, extra_states: Iterable[str] = (),
                 metadata: Optional[dict] = None) -> Machine:
    """Convenience constructor; extra_states declares states that the
    start, the accepting set and the transitions do not name."""
    return Machine(
        input_alphabet=frozenset(sigma),
        tape=OrderedAlphabet(tuple(tape)),
        states=frozenset(extra_states),
        start=start,
        accepting=frozenset(accepting),
        transitions=dict(transitions),
        mode=mode,
        accepts_empty=accepts_empty,
        metadata=metadata or {},
    )


def fresh_name(base: str, taken) -> str:
    """First variant of base (base, base2, base3, ...) not in taken."""
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"
