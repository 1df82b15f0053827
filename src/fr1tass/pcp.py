"""The correspondence-problem reduction.

An instance is a list of word pairs (u_i, v_i).  pcp_machine builds a
machine whose accepted words are exactly the encodings of the instance's
solutions, and pcp_solution_encoding is the matching reference predicate,
so matches_predicate_up_to can check one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .exceptions import IndexOutOfRangeError, PcpInstanceError
from .model import (Machine, Mode, ParseError, Word, _letters_of,
                    _read_directives, make_machine)


@dataclass(frozen=True)
class PcpInstance:
    """Matched word pairs (u_i, v_i) over a base alphabet.

    A solution is a nonempty index sequence whose u- and v-concatenations
    agree.  Words may be given as strings of single-letter symbols or as
    tuples of letter tokens.
    """

    u_words: tuple
    v_words: tuple
    base_alphabet: tuple

    def __post_init__(self):
        object.__setattr__(self, "u_words", tuple(map(tuple, self.u_words)))
        object.__setattr__(self, "v_words", tuple(map(tuple, self.v_words)))
        object.__setattr__(self, "base_alphabet", tuple(self.base_alphabet))
        if not self.u_words or len(self.u_words) != len(self.v_words):
            raise PcpInstanceError("need equally many nonempty u- and v-words")
        base = set(self.base_alphabet)
        if len(base) != len(self.base_alphabet):
            raise PcpInstanceError("duplicate base letters")
        index_names = {str(i) for i in range(1, len(self.u_words) + 1)}
        for letter in self.base_alphabet:
            if letter == "#" or "~" in letter or letter in index_names:
                raise PcpInstanceError(
                    f"base letter {letter!r} collides with encoding symbols")
        for side in (self.u_words, self.v_words):
            for word in side:
                if not word:
                    raise PcpInstanceError("empty word in instance")
                for letter in word:
                    if letter not in base:
                        raise PcpInstanceError(
                            f"word letter {letter!r} outside base alphabet")

    @property
    def size(self) -> int:
        return len(self.u_words)


def encode_pcp_candidate(p: PcpInstance, indices) -> Word:
    """Tape encoding of an index sequence: # marked-indices # marked-u # marked-v."""
    indices = tuple(indices)
    if not indices:
        raise IndexOutOfRangeError("index sequence must be nonempty")
    for i in indices:
        if not 1 <= i <= p.size:
            raise IndexOutOfRangeError(f"index {i} outside 1..{p.size}")
    word = ["#"] + [f"{i}~" for i in indices] + ["#"]
    for i in indices:
        word += [x + "~" for x in p.u_words[i - 1]]
    word.append("#")
    for i in indices:
        word += [x + "~" for x in p.v_words[i - 1]]
    return tuple(word)


def parse_pcp_instance(text: str) -> PcpInstance:
    """Parse an instance from one alphabet: line plus paired u:/v: lines.

    The alphabet: line may stand anywhere; the i-th u: line pairs with the
    i-th v: line.  Words are checked once the alphabet is known, in line
    order, then their pairing; a fault is reported on its line.
    """
    base = None
    words: dict = {"u:": [], "v:": []}  # (line, word) per side
    _, body = _read_directives(text)
    for number, tokens in body():
        head = tokens[0]
        if head == "alphabet:":
            if base is not None:
                raise ParseError(number, "duplicate alphabet: line")
            base = _letters_of(tokens[1:], number, "base letter")
        elif head in words:
            words[head].append((number, tuple(tokens[1:])))
        else:
            raise ParseError(number,
                             f"expected alphabet:, u: or v:, got {head!r}")
    if base is None:
        raise ParseError(1, "missing alphabet: line")
    u, v = words["u:"], words["v:"]
    for number, word in sorted(u + v):
        if not word:
            raise ParseError(number, "empty word")
        for letter in word:
            if letter not in base:
                raise ParseError(
                    number, f"word letter {letter!r} outside base alphabet")
    if len(u) != len(v):
        side, lines = ("u:", u) if len(u) > len(v) else ("v:", v)
        raise ParseError(lines[min(len(u), len(v))][0],
                         f"{side} line without a partner")
    return PcpInstance(u_words=tuple(w for _, w in u),
                       v_words=tuple(w for _, w in v),
                       base_alphabet=tuple(base))


def pcp_machine(p: PcpInstance) -> Machine:
    """Machine accepting exactly the encodings of solutions of p.

    Marked letters stand for unprocessed content.  The run unmarks one
    index per round, checking that the u- and v-segments continue with
    the words that index demands, then verifies letter by letter that
    the two unmarked segments agree, erasing as it matches.
    """
    idx = [str(i) for i in range(1, p.size + 1)]
    base = list(p.base_alphabet)
    plain = idx + base
    tape = ["#"] + plain + [x + "~" for x in plain]

    t = {}
    t[("s0", "#")] = ("r0", "#")
    for i in idx:
        t[("r0", i + "~")] = ("f_pick_" + i, i)
        t[("seek", i)] = ("seek", i)
        t[("seek", i + "~")] = ("pick_" + i, i)
        for j in idx:  # later indices are still marked while i is handled
            t[("f_pick_" + i, j + "~")] = ("f_pick_" + i, j + "~")
            t[("pick_" + i, j + "~")] = ("pick_" + i, j + "~")
    t[("seek", "#")] = ("m_read", "#")

    def chain(i, word, prefix, after, skip_unmarked):
        # match the marked copy of word and skip marked leftovers after it;
        # only rounds past the first may also skip letters unmarked earlier
        names = [f"{prefix}{i}_{j}" for j in range(len(word))] + [after]
        for x in base:
            if skip_unmarked:
                t[(names[0], x)] = (names[0], x)
            t[(after, x + "~")] = (after, x + "~")
        for j, x in enumerate(word):
            t[(names[j], x + "~")] = (names[j + 1], x)
        return names[0]

    for i, (u, v) in enumerate(zip(p.u_words, p.v_words), start=1):
        # first round insists both segments are still fully marked, which
        # pins down the input shape; later rounds tolerate their own work
        fu = chain(str(i), u, "fu", f"fud{i}", skip_unmarked=False)
        fv = chain(str(i), v, "fv", f"fvd{i}", skip_unmarked=False)
        t[("f_pick_" + str(i), "#")] = (fu, "#")
        t[(f"fud{i}", "#")] = (fv, "#")
        t[(f"fvd{i}", "#")] = ("seek", "#")
        u_entry = chain(str(i), u, "u", f"ud{i}", skip_unmarked=True)
        v_entry = chain(str(i), v, "v", f"vd{i}", skip_unmarked=True)
        t[("pick_" + str(i), "#")] = (u_entry, "#")
        t[(f"ud{i}", "#")] = (v_entry, "#")
        t[(f"vd{i}", "#")] = ("seek", "#")

    # all indices consumed: compare the two unmarked segments by erasure
    for x in base:
        t[("m_read", x)] = (f"m_skip_{x}", None)
        t[(f"m_skip_{x}", "#")] = (f"m_find_{x}", "#")
        t[(f"m_find_{x}", x)] = ("m_rest", None)
        for y in base:
            t[(f"m_skip_{x}", y)] = (f"m_skip_{x}", y)
            t[("m_rest", y)] = ("m_rest", y)
    t[("m_read", "#")] = ("m_final", "#")
    t[("m_rest", "#")] = ("m_back", "#")
    for i in idx:
        t[("m_back", i)] = ("m_back", i)
    t[("m_back", "#")] = ("m_read", "#")
    t[("m_final", "#")] = ("accept", "#")

    return make_machine(
        sigma=tape,
        tape=tape,
        start="s0",
        accepting=("accept",),
        transitions=t,
        mode=Mode.AS,
    )


def pcp_solution_encoding(p: PcpInstance) -> Callable[[Word], bool]:
    """Predicate for well-formed candidate encodings of actual solutions."""

    def predicate(word: Word) -> bool:
        word = tuple(word)
        if not word or word[0] != "#":
            return False
        parts: list = [[]]
        for x in word[1:]:
            if x == "#":
                parts.append([])
            else:
                parts[-1].append(x)
        if len(parts) != 3:
            return False
        indices = []
        for x in parts[0]:
            if not (x.endswith("~") and x[:-1].isdigit()):
                return False
            indices.append(int(x[:-1]))
        if not indices or not all(1 <= i <= p.size for i in indices):
            return False
        if word != encode_pcp_candidate(p, indices):
            return False
        top = tuple(x for i in indices for x in p.u_words[i - 1])
        bottom = tuple(x for i in indices for x in p.v_words[i - 1])
        return top == bottom

    return predicate
