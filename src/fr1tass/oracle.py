"""Ground truth helpers: enumeration, comparison, classification.

Everything here answers questions about a machine's language rather than
about single runs: which short words it accepts, whether two machines
agree up to a length, and closed-form descriptions for the unary case.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

from .exceptions import AlphabetMismatchError, PreconditionError
from .model import Machine, Mode, Word
from .simulate import _ACCEPTED, _Compiled, _compile, _core, _decide, accepts


# completion runs after which enumerate_accepted keeps its verdict table
# only if more than this share of them ended on a known sweep boundary
_MEMO_PROBE_RUNS = 512
_MEMO_HIT_SHARE = 0.5
# the most keys a kept table holds; once full, lookups go on
_MEMO_MAX_KEYS = 1 << 16


def enumerate_accepted(m: Machine, max_len: int) -> set:
    """All accepted words of length at most max_len.

    Work is shared across common prefixes: the first sweep of a run only
    ever touches input letters in order, so the walk over the prefix tree
    carries each partial first sweep along and finishes full words from
    their recorded mid-run position.  A prefix that gets stuck during the
    first sweep kills its whole subtree, and a halting acceptance during
    the first sweep accepts the whole subtree.

    The walk is over a DAG: a finished subtree is filed under (the row its
    node's first sweep reached, the tape that sweep appended, max_len -
    depth).  Every word below the node goes on with that first sweep from
    the same configuration, so the key decides which suffixes are
    accepted.  A later node with a known key copies the suffixes in the
    range the subtree's words take in the walk-ordered list of words, with
    no completion run.  The table is dropped after the first
    _MEMO_PROBE_RUNS completion runs if no node has found its key.

    Completion runs share one verdict table keyed by (state, tape) at every
    sweep boundary they meet.  The machine is deterministic and loop
    detection is exact, so a boundary's verdict is that of the run through
    it, even one met inside a streak of unchanged tapes.  After the first
    _MEMO_PROBE_RUNS completion runs the table is dropped unless more than
    _MEMO_HIT_SHARE of them ended on a known boundary.  Neither table files
    keys once it holds _MEMO_MAX_KEYS.

    A completion run goes on from its first sweep's row and appended tape:
    by simulate._core while the verdict table is kept or from comp.gate
    letters on, else as a chunked queue run (simulate._decide).  Both cut
    the loops of a freezing machine, so every run ends in a verdict.

    The walk and the runs use the verdict form of m (_verdict_form), which
    accepts the same words with no pile of inert letters on its tapes.  A
    live row is one a run can be in after its first step: the start's
    targets on input letters, closed under transitions without expanding
    AS accepting rows.  A drain erases every letter and stays.  An inert
    letter is no input letter, some cell writes it over another letter,
    and every live row other than a drain reads it by writing it back and
    staying, as remove_erasing and et_to_as do with their placeholder.  In
    AS mode the verdict form erases every inert write.  In ET mode it has
    a flagged copy of each row: the first inert write keeps its letter and
    moves the run to the copies, which erase every later one, so a tape
    holds at most one inert letter, and one exactly when m's holds any.
    This is exact:
    - inert reads never change the row, so the verdict form's run is m's
      with those steps taken out, and it halts at the same letters;
    - a sweep-start tape is unchanged in m exactly when it is in the
      verdict form, so loop cuts agree;
    - in AS mode, a tape of inert letters alone circles in m and is empty
      in the verdict form: both reject;
    - in ET mode, the one kept letter stays until a drain erases it, as
      m's inert letters do, so one tape empties exactly when the other
      does.
    _compile(m) comes first, so a machine that is not freezing is refused
    even where the verdict form would erase its upward write.
    """
    if max_len < 0:
        raise ValueError("max_len must be at least 0")
    comp = _verdict_form(_compile(m))
    found = [()] if m.mode is Mode.ET or m.accepts_empty else []
    sigma = sorted(m.input_alphabet, key=m.tape.rank)
    codes = [comp.code[a] for a in sigma]
    # the current node's word and what its first sweep wrote
    prefix, appended = [], []
    # per node on the path from the root: the row its first sweep reached,
    # the index of its next child letter, and len(appended) at the node
    stack = [(comp.start, 0, 0)]
    # while the subtree table is kept, per node on the path: its key and
    # where its words start in found
    subtrees: Optional[dict] = {}
    opened = [((comp.start, comp.key_of(appended), max_len), 0)]
    memo: Optional[dict] = {}
    passed: Optional[list] = []
    chunk_memo: dict = {}  # for _core's block loop, shared by every run
    runs = hits = shared = 0
    while stack:
        row, i, mark = stack[-1]
        depth = len(stack) - 1
        del prefix[depth:], appended[mark:]
        if i == len(sigma) or depth == max_len:
            stack.pop()
            if subtrees is not None:
                key, start = opened.pop()
                if len(subtrees) < _MEMO_MAX_KEYS:
                    subtrees[key] = slice(start, len(found))
            continue
        stack[-1] = (row, i + 1, mark)
        at = row + codes[i]
        target = comp.next_row[at]
        if target == -1:
            continue
        if target < -1:
            # an accepting state entered during the first sweep
            head = (*prefix, sigma[i])
            for r in range(max_len - depth):
                found.extend(head + tail
                             for tail in itertools.product(sigma, repeat=r))
            continue
        prefix.append(sigma[i])
        if comp.output[at] >= 0:
            appended.append(comp.output[at])
        if subtrees is not None:
            tape = comp.key_of(appended)  # appended as a key, for _core too
            key = target, tape, max_len - depth - 1
            span = subtrees.get(key)
            if span is not None:
                # the next pass trims prefix and appended back to the parent
                head = tuple(prefix)
                found += [head + w[depth + 1:] for w in found[span]]
                shared += 1
                continue
            opened.append((key, len(found)))
        end = len(appended)
        stack.append((target, 0, end))
        if memo is None and end < comp.gate:
            # the run appends to appended, which the next pass trims to end
            verdict = _decide(comp, target, appended, depth + 1)
        else:
            if subtrees is None:
                tape = comp.key_of(appended)
            verdict, last, _, _, _ = _core(comp, target, tape, depth + 1,
                                           None, None, chunk_memo, memo, passed)
        if memo is not None:
            # the probe comes while both tables are kept, so runs count here
            hits += last is None
            if len(memo) + len(passed) <= _MEMO_MAX_KEYS:
                for key in passed:
                    memo[key] = verdict
            passed.clear()
            runs += 1
            if runs == _MEMO_PROBE_RUNS:
                if not shared:
                    subtrees = None
                if hits <= _MEMO_HIT_SHARE * runs:
                    memo = passed = None
        if verdict is _ACCEPTED:
            found.append(tuple(prefix))
    return set(found)


def _verdict_form(comp: _Compiled) -> _Compiled:
    """comp with its inert letters kept off the tape (see
    enumerate_accepted), built on first use and kept on comp."""
    if comp.verdict is not None:
        return comp.verdict
    next_row, output, stride = comp.next_row, comp.output, comp.stride
    size, codes, inputs = len(next_row), range(stride), comp.input_code
    # rows a run can be in after its first step, accepting ones left out
    live, todo = set(), [next_row[comp.start + c] for c in inputs.values()]
    while todo:
        row = todo.pop()
        if row >= 0 and row not in live:
            live.add(row)
            todo += [next_row[row + c] for c in codes]
    copiers = [row for row in live if any(  # every live row but the drains
        next_row[row + c] != row or output[row + c] >= 0 for c in codes)]
    written = {out for at, out in enumerate(output) if out != at % stride}
    inert = {c for c in written.difference(inputs.values(), (-1,))
             if all(next_row[row + c] == row and output[row + c] == c
                    for row in copiers)}
    # the cells that write an inert letter over another one
    cells = [at for at, out in enumerate(output)
             if out in inert and at % stride not in inert]
    if not cells:
        form = comp
    elif comp.as_mode:
        outs = list(output)
        for at in cells:
            outs[at] = -1
        form = replace(comp, output=tuple(outs), blocks=None)
    else:
        # a flagged copy of each row, from size on, which the first inert
        # write moves to and which erases every later one
        rows = [*next_row, *(t + size if t >= 0 else t for t in next_row)]
        outs = [*output, *output]
        for at in cells:
            rows[at] += size
            outs[size + at] = -1
        form = replace(comp, next_row=tuple(rows), output=tuple(outs),
                       states=comp.states * 2,
                       state_count=2 * comp.state_count, blocks=None)
    object.__setattr__(comp, "verdict", form)
    return form


def _enumerate_naive(m: Machine, max_len: int) -> set:
    """One full run per word; the slow mirror of enumerate_accepted."""
    sigma = sorted(m.input_alphabet, key=m.tape.rank)
    out = set()
    for r in range(max_len + 1):
        for tup in itertools.product(sigma, repeat=r):
            if accepts(m, tup):
                out.add(tup)
    return out


@dataclass(frozen=True)
class Counterexample:
    """A word on which two languages disagree."""

    word: Word
    in_first: bool
    in_second: bool


def _word_key(m: Machine) -> Callable[[Word], tuple]:
    """Sort key of m's words: by length, then letter by letter in tape
    order (the order of the letter codes)."""
    rank = _compile(m).code.__getitem__
    return lambda w: (len(w), *map(rank, w))


def equivalent_up_to(a: Machine, b: Machine,
                     max_len: int) -> Optional[Counterexample]:
    """None when both machines accept the same words up to max_len,
    otherwise the shortest (then letter-orderwise first) disagreement."""
    if a.input_alphabet != b.input_alphabet:
        raise AlphabetMismatchError("machines read different input alphabets")
    in_a = enumerate_accepted(a, max_len)
    in_b = enumerate_accepted(b, max_len)
    diff = in_a ^ in_b
    if not diff:
        return None
    n = min(map(len, diff))
    w = min((w for w in diff if len(w) == n), key=_word_key(a))
    return Counterexample(word=w, in_first=w in in_a, in_second=w in in_b)


def matches_predicate_up_to(m: Machine, predicate: Callable[[Word], bool],
                            max_len: int) -> Optional[Counterexample]:
    """None when the machine accepts exactly the words the predicate
    allows, up to max_len; otherwise the first disagreement in length
    then letter order."""
    got = enumerate_accepted(m, max_len)
    sigma = sorted(m.input_alphabet, key=m.tape.rank)
    for r in range(max_len + 1):
        for tup in itertools.product(sigma, repeat=r):
            machine_says = tup in got
            predicate_says = bool(predicate(tup))
            if machine_says != predicate_says:
                return Counterexample(word=tup, in_first=machine_says,
                                      in_second=predicate_says)
    return None


# --- reference predicates -----------------------------------------------------


def is_power_of_two_block(word: Word) -> bool:
    n = len(word)
    return n >= 1 and n & (n - 1) == 0 and set(word) <= {"a"}


def is_marked_copy(word: Word) -> bool:
    """# u # u for a block u over a, b."""
    if len(word) < 2 or word[0] != "#":
        return False
    rest = word[1:]
    if rest.count("#") != 1:
        return False
    i = rest.index("#")
    u, v = rest[:i], rest[i + 1:]
    return u == v and all(x in ("a", "b") for x in u)


def is_center_a(word: Word) -> bool:
    return len(word) % 2 == 1 and word[len(word) // 2] == "a"


def is_balanced_ab(word: Word) -> bool:
    """As many a as b, or one extra a."""
    if not set(word) <= {"a", "b"}:
        return False
    gap = word.count("a") - word.count("b")
    return gap in (0, 1)


def is_palindrome(word: Word) -> bool:
    return tuple(word) == tuple(reversed(word))


def regular(pattern: str) -> Callable[[Word], bool]:
    """Predicate matching a whole word against a regular expression.

    Words are joined letter by letter, so this only makes sense for
    single-character letters.
    """
    rx = re.compile(pattern)

    def predicate(word: Word) -> bool:
        for x in word:
            if len(x) != 1:
                raise ValueError("regular predicates need one-character letters")
        return rx.fullmatch("".join(word)) is not None

    return predicate


# --- unary machines -----------------------------------------------------------


class UnaryKind(Enum):
    AS_THRESHOLD = "AS_Threshold"
    ET_FINITE = "ET_Finite"
    ET_ALL = "ET_All"
    EMPTY = "Empty"


@dataclass(frozen=True)
class UnaryClass:
    """Closed-form description of a unary language.

    AS_Threshold holds all lengths at or above the threshold, ET_Finite
    exactly the listed lengths, ET_All every length, Empty none.
    """

    kind: UnaryKind
    threshold: Optional[int] = None
    lengths: Optional[frozenset] = None

    def member(self, n: int) -> bool:
        if n < 0:
            raise ValueError("lengths are nonnegative")
        if self.kind is UnaryKind.AS_THRESHOLD:
            return n >= self.threshold
        if self.kind is UnaryKind.ET_FINITE:
            return n in self.lengths
        return self.kind is UnaryKind.ET_ALL

    def __str__(self):
        if self.kind is UnaryKind.AS_THRESHOLD:
            return f"{self.kind.value} {self.threshold}"
        if self.kind is UnaryKind.ET_FINITE:
            body = " ".join(str(n) for n in sorted(self.lengths))
            return f"{self.kind.value} {body}".rstrip()
        return self.kind.value


def classify_unary_noaux(m: Machine) -> UnaryClass:
    """Exact language of a single-letter machine with no working letters.

    Such a machine follows one state walk regardless of input length; only
    where the tape runs out depends on the length.  The walk is followed
    until it sticks or a state repeats, counting erasures as it goes, and
    the language falls out of those counts.
    """
    if len(m.input_alphabet) != 1 or set(m.tape.letters) != m.input_alphabet:
        raise PreconditionError(
            "classification needs a machine whose only tape letter is its "
            "one input letter")
    if m.mode is Mode.AS and m.accepts_empty:
        raise PreconditionError(
            "halting machines accepting the empty word have no threshold form")
    letter = next(iter(m.input_alphabet))

    walk = [m.start]
    erased = []
    first_seen = {m.start: 0}
    stuck = False
    cycle_start = None
    q = m.start
    while True:
        hit = m.transitions.get((q, letter))
        if hit is None:
            stuck = True
            break
        q, out = hit
        erased.append(out is None)
        walk.append(q)
        if q in first_seen:
            cycle_start = first_seen[q]
            break
        first_seen[q] = len(walk) - 1

    # cumulative erasures: total[i] counts the first i steps
    total = [0]
    for e in erased:
        total.append(total[-1] + (1 if e else 0))

    if m.mode is Mode.AS:
        hits = [j for j in range(1, len(walk)) if walk[j] in m.accepting]
        if not hits:
            return UnaryClass(kind=UnaryKind.EMPTY)
        d = hits[0]
        # the run reaches step d iff the tape outlasts steps 1..d-1
        return UnaryClass(kind=UnaryKind.AS_THRESHOLD,
                          threshold=total[d - 1] + 1)
    if stuck:
        cap = total[-1]
        return UnaryClass(kind=UnaryKind.ET_FINITE,
                          lengths=frozenset(range(cap + 1)))
    if any(erased[cycle_start:]):
        # erasures never dry up, so every length eventually empties
        return UnaryClass(kind=UnaryKind.ET_ALL)
    return UnaryClass(kind=UnaryKind.ET_FINITE,
                      lengths=frozenset(range(total[-1] + 1)))


def has_strongly_equivalent_states(m: Machine) -> Optional[tuple]:
    """First pair of distinct states with identical transition rows
    across the whole tape alphabet, or None when all rows differ."""
    names = sorted(m.states)
    rows = {q: tuple(m.transitions.get((q, x)) for x in m.tape.letters)
            for q in names}
    for i, p in enumerate(names):
        for q in names[i + 1:]:
            if rows[p] == rows[q]:
                return (p, q)
    return None
