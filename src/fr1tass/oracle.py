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
# pairs equivalent_up_to files before it keeps its layers as plain lists,
# unless one of them was filed twice
_PAIR_PROBE = 512


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
    depth), the first sweep stepping by _first_steps.  Every word below
    the node goes on with that first sweep from the same configuration,
    so the key decides which suffixes are accepted.  A later node with a
    known key copies the suffixes in the range the subtree's words take in
    the walk-ordered list of words, with no completion run.  The table is
    dropped after the first _MEMO_PROBE_RUNS completion runs if no node
    has found its key, and it files no keys once it holds _MEMO_MAX_KEYS.  Each node's completion
    run goes on from its first sweep, as _CompletionRuns sets out.

    The walk and the runs use the verdict form of m (_verdict_form), which
    accepts the same words with no pile of inert letters on its tapes.  A
    live row is one a run can be in after its first step: the start's
    targets on input letters, closed under transitions without expanding
    AS accepting rows.  A drain erases every letter and stays.  An inert
    letter is no input letter, some cell writes it over another letter,
    and every live row other than a drain or a row stuck on every letter
    reads it by writing it back and staying, as remove_erasing and
    et_to_as do with their placeholder.  In AS mode the verdict form
    erases every inert write.  In ET mode it has a flagged copy of each
    row: the first inert write keeps its letter and moves the run to the
    copies, which erase every later one, so a tape holds at most one inert
    letter, and one exactly when m's holds any.
    This is exact:
    - inert reads never change the row, so the verdict form's run is m's
      with those steps taken out, and it halts at the same letters;
    - a row stuck on every letter halts both runs on their next read, and
      in AS mode a tape emptied before it rejects as the stuck run does;
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
    sigma = sorted(m.input_alphabet, key=comp.code.__getitem__)
    codes = [comp.code[a] for a in sigma]
    steps = _first_steps(comp)
    # the current node's word and what its first sweep wrote
    prefix, appended = [], []
    # per node on the path from the root: the row its first sweep reached,
    # the index of its next child letter, and len(appended) at the node
    stack = [(comp.start, 0, 0)]
    # while the subtree table is kept, per node on the path: its key and
    # where its words start in found
    subtrees: Optional[dict] = {}
    opened = [((comp.start, comp.key_of(appended), max_len), 0)]
    runner = _CompletionRuns(comp)
    shared = 0
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
        step = steps[row + codes[i]]
        if step is False:
            continue
        if step is True:
            head = (*prefix, sigma[i])
            for r in range(max_len - depth):
                found.extend(head + tail
                             for tail in itertools.product(sigma, repeat=r))
            continue
        target, written = step
        prefix.append(sigma[i])
        appended += written
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
        if end < runner.queue_below:
            # the run appends to appended, which the next pass trims to end
            verdict = _decide(comp, target, appended, depth + 1)
        else:
            if subtrees is None:
                tape = comp.key_of(appended)
            verdict = runner.run(target, tape, depth + 1)
            # both tables are probed at the same run
            if runner.runs == _MEMO_PROBE_RUNS and not shared:
                subtrees = None
        if verdict is _ACCEPTED:
            found.append(tuple(prefix))
    return set(found)


class _CompletionRuns:
    """The completion runs of one enumeration or comparison on comp, a
    verdict form (_verdict_form).  A run goes on from a first sweep that
    took steps steps, reached row and appended a list of codes.  A list of
    fewer than queue_below codes is run by the caller as a chunked queue
    run, simulate._decide(comp, row, codes, steps), which appends to the
    list; run() makes every other run by simulate._core.

    The runs share a chunk memo and one verdict table keyed by (state,
    tape) at every sweep boundary they meet.  The machine is deterministic
    and loop detection is exact, so a boundary's verdict is that of the
    run through it, even one met inside a streak of unchanged tapes.
    After the first _MEMO_PROBE_RUNS runs the table is dropped unless
    more than _MEMO_HIT_SHARE of them ended on a known boundary.  It files
    no keys once it holds _MEMO_MAX_KEYS.

    queue_below is 0 while the table is kept and comp.gate once it is
    dropped.  _core and _decide both cut the loops of a freezing machine,
    so every run ends in a verdict."""

    __slots__ = ("comp", "queue_below", "memo", "passed", "chunk_memo",
                 "runs", "hits")

    def __init__(self, comp: _Compiled):
        self.comp = comp
        self.queue_below = 0
        self.memo: Optional[dict] = {}
        self.passed: Optional[list] = []
        self.chunk_memo: dict = {}  # for _core's block loop
        self.runs = self.hits = 0

    def run(self, row: int, tape, steps: int):
        """The verdict of a run by _core from row on tape, the appended
        codes as a key (comp.key_of)."""
        memo, passed = self.memo, self.passed
        result, last, _, _, _ = _core(self.comp, row, tape, steps, None, None,
                                      self.chunk_memo, memo, passed)
        if memo is not None:
            self.hits += last is None
            if len(memo) + len(passed) <= _MEMO_MAX_KEYS:
                for key in passed:
                    memo[key] = result
            passed.clear()
            self.runs += 1
            if (self.runs == _MEMO_PROBE_RUNS
                    and self.hits <= _MEMO_HIT_SHARE * self.runs):
                self.memo = self.passed = None
                self.queue_below = self.comp.gate
        return result


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
    # every live row but the drains and the rows stuck on every letter
    copiers = [row for row in live
               if any(next_row[row + c] != row or output[row + c] >= 0
                      for c in codes)
               and any(next_row[row + c] != -1 for c in codes)]
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
        form = replace(comp, output=tuple(outs), blocks=None,
                       first_steps=None)
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
                       state_count=2 * comp.state_count, blocks=None,
                       first_steps=None)
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
    otherwise the shortest disagreement, the first in a's tape order
    among those.

    One breadth-first walk over the product of the two machines' prefix
    DAGs, which stops at the first disagreement (Hopcroft and Karp, 1971).
    A machine's node is its node in enumerate_accepted's walk, on its
    verdict form: the row its first sweep reached and the tape that sweep
    appended.  Every word below goes on from there, so the node decides
    its word's verdict and which suffixes are accepted.  A first sweep
    that sticks or accepts makes the node False or True: every word below
    rejected, or accepted.

    Layer d holds each distinct pair of nodes with the first word of
    length d that reaches it.  Parents are taken in order and letters in
    a's tape order, so pairs are filed in the order of their first words.
    So the first pair whose verdicts differ is the answer, and the walk
    returns there.  A pair of two True or False nodes that agree has no
    disagreement below and leaves the walk, and so do the pairs of the
    last layer.  A node's verdict is a completion run (_CompletionRuns).
    The empty word's is the ET or accepts_empty rule instead: the root
    node can come back deeper, where in AS mode its run rejects.

    Pairs are keyed while they repeat: if none is filed twice among the
    first _PAIR_PROBE, the layers after that are plain lists.  While pairs
    are keyed, each machine keeps its nodes' verdicts, up to
    _MEMO_MAX_KEYS of them, so a node shared across words and depths has
    one run.  After that, nodes are taken to be as unshared as the pairs
    and every pair's nodes are run.
    """
    if a.input_alphabet != b.input_alphabet:
        raise AlphabetMismatchError("machines read different input alphabets")
    if max_len < 0:
        raise ValueError("max_len must be at least 0")
    comps = _compile(a), _compile(b)  # refuses either before any run
    sigma = sorted(a.input_alphabet, key=comps[0].code.__getitem__)
    (root_a, kids_a, verdict_a), (root_b, kids_b, verdict_b) = (
        _product_side(_verdict_form(c), sigma) for c in comps)
    empty = [m.mode is Mode.ET or m.accepts_empty for m in (a, b)]
    if empty[0] != empty[1]:
        return Counterexample((), *empty)
    # each layer's (pair, link): link is (parent's link, letter), so the
    # words share their prefixes
    layer = [((root_a, root_b), None)]
    keyed, filed, repeats = True, 0, 0
    known_a, known_b = {}, {}  # kept while pairs are keyed
    for depth in range(1, max_len + 1):
        below = {} if keyed else []
        for (node_a, node_b), link in layer:
            for x, to_a, to_b in zip(sigma, kids_a(node_a), kids_b(node_b)):
                if keyed:
                    pair = to_a, to_b
                    if pair in below:
                        repeats += 1
                        continue
                in_a = verdict_a(to_a, depth, known_a)
                in_b = verdict_b(to_b, depth, known_b)
                if in_a is not in_b:
                    return Counterexample(_spell((link, x)), in_a, in_b)
                if depth == max_len or (to_a.__class__ is bool
                                        and to_b.__class__ is bool):
                    continue
                if keyed:
                    below[pair] = link, x
                else:
                    below.append(((to_a, to_b), (link, x)))
        if keyed:
            filed += len(below)
            layer = below.items()
            keyed = repeats > 0 or filed < _PAIR_PROBE
            if not keyed:
                known_a = known_b = None
        else:
            layer = below
    return None


def _first_steps(comp: _Compiled) -> tuple:
    """The step of a first sweep from each cell of comp, a verdict form:
    False where it gets stuck, True where it enters an accepting state,
    else the row it reaches and the letters it appends, as a key
    (comp.key_of) of none or one code.  The prefix walks of
    enumerate_accepted and equivalent_up_to step by it.  A stuck or
    accepting first sweep has every word below it rejected, or accepted.
    Built on first use and kept on comp."""
    if comp.first_steps is None:
        key_of = comp.key_of
        letter, none = [key_of((c,)) for c in range(comp.stride)], key_of(())
        object.__setattr__(comp, "first_steps", tuple(
            target != -1 if target < 0
            else (target, letter[out] if out >= 0 else none)
            for target, out in zip(comp.next_row, comp.output)))
    return comp.first_steps


def _product_side(comp: _Compiled, sigma: list) -> tuple:
    """(root, kids, verdict) of one machine in equivalent_up_to's walk,
    on comp, its verdict form.  A node is the row its first sweep reached
    and the tape that sweep appended, as a key, or False or True when the
    first sweep halted (_first_steps); those are their own children.
    kids(node) lists a node's children in the order of sigma.
    verdict(node, depth, known) is the verdict of a node of depth at least
    1.  known, the caller's dict from node to verdict, keeps it up to
    _MEMO_MAX_KEYS nodes, or is None to keep nothing."""
    steps, codes = _first_steps(comp), [comp.code[x] for x in sigma]
    runner = _CompletionRuns(comp)

    def kids(node) -> list:
        if node.__class__ is bool:
            return [node] * len(codes)
        row, tape = node
        out = []
        for c in codes:
            step = steps[row + c]
            if step.__class__ is bool:
                out.append(step)
            else:
                target, written = step
                out.append((target, tape + written))
        return out

    def verdict(node, depth: int, known: Optional[dict]) -> bool:
        if node.__class__ is bool:
            return node
        kept = None if known is None else known.get(node)
        if kept is not None:
            return kept
        row, tape = node
        if len(tape) < runner.queue_below:
            result = _decide(comp, row, [*tape], depth)
        else:
            result = runner.run(row, tape, depth)
        accepted = result is _ACCEPTED
        if known is not None and len(known) < _MEMO_MAX_KEYS:
            known[node] = accepted
        return accepted

    return (comp.start, comp.key_of(())), kids, verdict


def _spell(link) -> Word:
    """The word of a walk link (see equivalent_up_to)."""
    word = []
    while link is not None:
        link, x = link
        word.append(x)
    return tuple(reversed(word))


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
