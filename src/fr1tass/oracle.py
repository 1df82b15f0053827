"""Ground truth helpers: enumeration, comparison, classification.

Everything here answers questions about a machine's language rather than
about single runs: which short words it accepts, whether two machines
agree up to a length, and closed-form descriptions for the unary case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

from .exceptions import AlphabetMismatchError, PreconditionError
from .model import Machine, Mode, Word
from .simulate import (_ACCEPTED, _LOOP, _SPLIT, _STUCK, _Compiled, _compile,
                       _core, _decide)


# completion runs after which enumerate_accepted keeps its verdict table
# only if more than this share of them ended on a known sweep boundary
_MEMO_PROBE_RUNS = 512
_MEMO_HIT_SHARE = 0.5
# the most keys a kept table holds; once full, lookups go on
_MEMO_MAX_KEYS = 1 << 16
# the most axes on a path of enumerate_accepted's walk; a split resumes
# every world of its bundle, and the benchmark's enumerate ops ran no
# faster with more
_BUNDLE_AXES = 6


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

    A node's children are its row's slots (_bundles).  Once both tables
    are dropped, a slot is a letter or a group: letters whose first steps
    from the row reach one row and write one letter each.  A group's
    child is a bundle node: its appended tape ends in a vector letter, the
    tuple of the letters its members wrote, and it records one more axis,
    its position and its members.  A world of a node picks one member of
    each axis of its path, and the node stands for the word of each of
    its worlds.  A path has at most _BUNDLE_AXES axes.  A bundle node's
    completion run is one simulate._decide run on the bundle form, which
    steps the runs of all its worlds at once while they agree, so its
    verdict holds for every world; where they part ways it splits, and
    each world goes on from there on the verdict form with its own
    letters.  A first sweep that accepts adds every world's extensions.
    Until a split, every cell a bundle run takes has one next row for all
    worlds and erases in all or none of them, so their tapes stay aligned;
    and two letter codes are equal only when every world's letters are,
    so a loop cut holds for every world.

    The walk and the runs use the verdict form of m (_verdict_form), which
    accepts the same words with no pile of inert letters on its tapes.  A
    live row is one a run can be in after its first step: the start's
    targets on input letters, closed under transitions without expanding
    AS accepting rows.  A drain erases every letter and stays.  An inert
    letter is no input letter, some cell writes it over another letter,
    and every live row other than a drain or a row stuck on every letter
    reads it by writing it back and staying, as remove_erasing and
    et_to_as do with their placeholder.  The verdict form erases every
    inert write.  In ET mode it also has a flagged copy of each row, which
    the first inert write moves the run to: a run is in a flagged row
    other than a drain exactly when m's tape holds an inert letter.
    This is exact:
    - inert reads never change the row, so the verdict form's run is m's
      with those steps taken out, and it halts at the same letters;
    - a row stuck on every letter halts both runs on their next read, and
      in AS mode a tape emptied before it rejects as the stuck run does;
    - a sweep-start tape is unchanged in m exactly when it is in the
      verdict form, so loop cuts agree;
    - in AS mode, a tape of inert letters alone circles in m and is empty
      in the verdict form: both reject;
    - in ET mode, m's inert letters stay until a drain, which never
      leaves, erases them.  Where the verdict form's tape runs out in a
      flagged row, m's holds inert letters alone: a drain erases them and
      accepts, a row stuck on every letter sticks, and any other row
      copies them for good, a loop (_Compiled.empty_verdicts).
    _compile(m) comes first, so a machine that is not freezing is refused
    even where the verdict form would erase its upward write.
    """
    if max_len < 0:
        raise ValueError("max_len must be at least 0")
    comp = _verdict_form(_compile(m))
    found = [()] if m.mode is Mode.ET or m.accepts_empty else []
    sigma = sorted(m.input_alphabet, key=comp.code.__getitem__)
    steps, stride = _first_steps(comp), comp.stride
    single = {row: [(x, steps[row + comp.code[x]], None) for x in sigma]
              for row in range(0, len(comp.next_row), stride)}
    # the slots of a node with k axes are tables[k][row]; each row's groups
    # join them once bundles open, with single's after the last axis
    tables = [single]
    form = parts = None  # the bundle form and its parts, once bundles open
    # the current node's word and what its first sweep wrote
    prefix, appended = [], []
    # per node on the path from the root: its slots, the index of its next
    # one, len(appended) at the node and the axes of its path
    stack = [(single[comp.start], 0, 0, ())]
    # while the subtree table is kept, per node on the path: its key and
    # where its words start in found
    subtrees: Optional[dict] = {}
    opened = [((comp.start, comp.key_of(appended), max_len), 0)]
    runner = _CompletionRuns(comp)
    shared = 0
    while stack:
        slots, i, mark, axes = stack[-1]
        depth = len(stack) - 1
        del prefix[depth:], appended[mark:]
        if i == len(slots) or depth == max_len:
            stack.pop()
            if subtrees is not None:
                key, start = opened.pop()
                if len(subtrees) < _MEMO_MAX_KEYS:
                    subtrees[key] = slice(start, len(found))
            continue
        stack[-1] = (slots, i + 1, mark, axes)
        x, step, members = slots[i]
        if step is False:
            continue
        if step is True:
            for head in _words(prefix, axes):
                head += x,
                for r in range(max_len - depth):
                    found.extend(head + tail for tail
                                 in itertools.product(sigma, repeat=r))
            continue
        target, written = step
        prefix.append(x)
        appended += written
        if members is not None:
            axes += (depth, members),
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
        stack.append((tables[len(axes)][target], 0, end, axes))
        if axes:
            verdict = _decide(form, target // stride * form.stride, appended,
                              depth + 1)
            if verdict is _ACCEPTED:
                found += _words(prefix, axes)
            elif verdict.__class__ is tuple:
                # a split: each world goes on with its own letters
                row, rest = verdict
                row = row // form.stride * stride
                spots = [(j, *parts[c]) for j, c in enumerate(rest)
                         if c >= stride]
                for choice in _worlds(axes):
                    queue = rest.copy()
                    for j, axis, vector in spots:
                        queue[j] = vector[choice[axis]]
                    if _decide(comp, row, queue, depth + 1) is _ACCEPTED:
                        found.append(_word(prefix, axes, choice))
            continue
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
                if runner.queue_below and form is None:
                    form, tables, parts = _bundles(comp)
                    tables = [*tables, single]
        if verdict is _ACCEPTED:
            found.append(tuple(prefix))
    return set(found)


def _worlds(axes: tuple):
    """The worlds of a node with axes: each picks one member of each axis,
    by its index."""
    return itertools.product(*(range(len(members)) for _, members in axes))


def _word(prefix: list, axes: tuple, choice: tuple) -> Word:
    """The word of a world (see _worlds): prefix with the members it picks
    at the axes' positions."""
    word = prefix.copy()
    for (at, members), k in zip(axes, choice):
        word[at] = members[k]
    return tuple(word)


def _words(prefix: list, axes: tuple) -> list:
    """The word of each world of a node, prefix alone for one with no
    axes."""
    return [_word(prefix, axes, choice) for choice in _worlds(axes)]


class _CompletionRuns:
    """The completion runs of one enumeration or comparison on comp, a
    verdict form (_verdict_form).  A run goes on from a first sweep that
    took steps steps, reached row and appended a list of codes.  A list of
    fewer than queue_below codes is run by the caller as a chunked queue
    run, simulate._decide(comp, row, codes, steps), which appends to the
    list; run() makes every other run by simulate._core.

    The runs share a chunk memo and one verdict table, memo, from the
    (state, tape) of every sweep boundary they meet to its verdict.  The
    machine is deterministic and loop detection is exact, so a boundary's
    verdict is that of the run through it, even one met inside a streak
    of unchanged tapes.
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
    # the live rows stuck on every letter, the drains, and the others
    stuck = {row for row in live
             if all(next_row[row + c] == -1 for c in codes)}
    drains = {row for row in live
              if all(next_row[row + c] == row and output[row + c] < 0
                     for c in codes)}
    copiers = live - stuck - drains
    written = {out for at, out in enumerate(output) if out != at % stride}
    inert = {c for c in written.difference(inputs.values(), (-1,))
             if all(next_row[row + c] == row and output[row + c] == c
                    for row in copiers)}
    # the cells that write an inert letter over another one, which erase
    cells = [at for at, out in enumerate(output)
             if out in inert and at % stride not in inert]
    outs = list(output)
    for at in cells:
        outs[at] = -1
    if not cells:
        form = comp
    elif comp.as_mode:
        form = replace(comp, output=tuple(outs), blocks=None,
                       first_steps=None)
    else:
        # a flagged copy of each row, from size on, which every inert write
        # moves to; where the tape runs out m's holds inert letters alone,
        # which a drain erases, a stuck row sticks on and any other copies
        rows = [*next_row, *(t + size if t >= 0 else t for t in next_row)]
        for at in cells:
            rows[at] += size
        form = replace(comp, next_row=tuple(rows), output=tuple(outs) * 2,
                       states=comp.states * 2,
                       state_count=2 * comp.state_count, blocks=None,
                       first_steps=None, empty_verdicts={
                           size + row: _STUCK if row in stuck else _LOOP
                           for row in live - drains})
    object.__setattr__(comp, "verdict", form)
    return form


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
    DAGs, which stops at the first disagreement and walks no pair of nodes
    twice in one layer (Hopcroft and Karp, 1971).
    A machine's node is its node in enumerate_accepted's walk, on its
    verdict form: the row its first sweep reached and the tape that sweep
    appended.  Every word below goes on from there, so the node decides
    its word's verdict and which suffixes are accepted.  A first sweep
    that sticks or accepts makes the node False or True: every word below
    rejected, or accepted.

    Layer d holds each pair of nodes that no earlier layer holds, with
    the first word of length d that reaches it.  A node's verdict does not
    depend on its depth, and a pair met at a shorter length reaches every
    suffix that a later copy of it could, so the later copy is skipped.
    Parents are taken in order and letters in a's tape order, so pairs
    are filed in the order of their first words.  So the first pair whose
    verdicts differ is the answer, and the walk returns there.  A pair of
    two True or False nodes that agree has no disagreement below and
    leaves the walk, and so do the pairs of the last layer.  A node's
    verdict is a completion run (_CompletionRuns), or the verdict table's
    while that holds the node.  The empty word's is the ET or
    accepts_empty rule instead, so the root pair is not marked as walked:
    it can come back deeper, where an AS run rejects.

    Once both verdict tables are dropped and no pair has come back, the
    walk keeps only the current layer's pairs, since on such machines the
    set of every layer's grows with the walk and skips nothing.  A pair
    walked again in a later layer has the verdicts and descendants it had
    at the shorter depth, where they agreed, so the answer is the same.
    The first pair that comes back makes the walk keep every layer's
    pairs from then on.
    """
    if a.input_alphabet != b.input_alphabet:
        raise AlphabetMismatchError("machines read different input alphabets")
    if max_len < 0:
        raise ValueError("max_len must be at least 0")
    comps = _compile(a), _compile(b)  # refuses either before any run
    sigma = sorted(a.input_alphabet, key=comps[0].code.__getitem__)
    ((root_a, kids_a, verdict_a, runs_a),
     (root_b, kids_b, verdict_b, runs_b)) = (
        _product_side(_verdict_form(c), sigma) for c in comps)
    empty = [m.mode is Mode.ET or m.accepts_empty for m in (a, b)]
    if empty[0] != empty[1]:
        return Counterexample((), *empty)
    # each layer maps its pairs (node_a, node_b) to their links: a link is
    # (parent's link, letter), so the words share their prefixes; seen
    # holds the pairs of the layers before, after the root's, but none once
    # both tables are dropped until a pair comes back
    layer, seen, met = {(root_a, root_b): None}, set(), False
    for depth in range(1, max_len + 1):
        below = {}
        for (node_a, node_b), link in layer.items():
            for x, to_a, to_b in zip(sigma, kids_a(node_a), kids_b(node_b)):
                pair = to_a, to_b
                if pair in below or pair in seen:
                    met = True
                    continue
                in_a, in_b = verdict_a(to_a, depth), verdict_b(to_b, depth)
                if in_a is not in_b:
                    return Counterexample(_spell((link, x)), in_a, in_b)
                if depth == max_len or (to_a.__class__ is bool
                                        and to_b.__class__ is bool):
                    continue
                below[pair] = link, x
        if met or runs_a.memo is not None or runs_b.memo is not None:
            seen.update(below)
        else:
            seen = set()
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


def _bundles(comp: _Compiled) -> tuple:
    """(form, tables, parts), the bundle form of comp, a verdict form, and
    what enumerate_accepted's walk needs of it; built on first use and
    kept on comp.

    A group of a row is two or more input letters whose first steps from
    it (_first_steps) reach one row and write one letter each.  Its
    vector letter is the tuple of the letters they write, or that letter
    when they all write the same.  tables[k] maps each row to its slots,
    in code order, for a node with k < _BUNDLE_AXES axes: (letter, first
    step, None) for a letter in no group, and (its first member, (the row
    it reaches, [the code of its vector letter on axis k]), its members)
    for a group whose vector letter is plain or in the block; none for a
    machine with no group.

    The form has comp's rows, each widened to hold comp's letters and then
    a block of vector letters for each axis, all with the same vectors:
    those of the groups and then those that its cells write, breadth
    first, up to comp.stride of them.  So the form is at most
    1 + _BUNDLE_AXES times as wide as comp, however many vectors the cells
    could write.  parts maps the code of a vector letter to (its axis, its
    vector).  A vector letter's cell agrees when its components' cells
    have one next row and either all erase or all write a plain letter or
    a vector in the block; it then moves there, and erases, writes their
    one letter or writes the vector of their letters on its own axis.  Any
    other vector cell has the next row simulate._SPLIT.  So until a run on
    the form reaches such a cell it steps the run of every world at once,
    and a letter code is the same on two tapes only when each world's
    letter is.  A machine with no vector letter has comp as its form."""
    if comp.bundles is not None:
        return comp.bundles
    next_row, output, stride = comp.next_row, comp.output, comp.stride
    steps, rows = _first_steps(comp), range(0, len(next_row), stride)
    sigma = sorted(comp.input_code, key=comp.code.__getitem__)

    def letter(codes: tuple):
        """The vector letter of codes: codes, or their one code."""
        return codes if len(set(codes)) > 1 else codes[0]

    def cell(row: int, vector: tuple):
        """(next row, the letter written) of vector's cell in row, -1 for
        an erasure; None where its components part ways."""
        targets = {next_row[row + c] for c in vector}
        outs = tuple(output[row + c] for c in vector)
        if len(targets) > 1 or min(outs) < 0 <= max(outs):
            return None
        return targets.pop(), letter(outs)

    groups = {}  # per row, each group's members and vector letter
    index, block = {}, []  # the block's vectors, each by its place in it
    for row in rows:
        reach = {}
        for x in sigma:
            step = steps[row + comp.code[x]]
            if step.__class__ is tuple and len(step[1]) == 1:
                reach.setdefault(step[0], []).append((x, step[1][0]))
        groups[row] = [(tuple(x for x, _ in g), letter(tuple(y for _, y in g)))
                       for g in reach.values() if len(g) > 1]
        block += (v for _, v in groups[row] if v.__class__ is tuple)
    # a worklist: the groups' vectors, then those their cells write
    for v in block:
        if v not in index and len(index) < stride:
            index[v] = len(index)
            for row in rows:
                step = cell(row, v)
                if step and step[1].__class__ is tuple:
                    block.append(step[1])
    block = list(index)
    width = len(block)
    form_stride = stride + _BUNDLE_AXES * width

    def moved(t: int) -> int:
        """A next row of comp in the form's rows."""
        if t >= 0:
            return t // stride * form_stride
        return t if t == -1 else -2 - (-2 - t) // stride * form_stride

    def code(letter, axis: int) -> Optional[int]:
        """The code of a vector letter on axis, None for one outside the
        block, or the code of a plain letter."""
        if letter.__class__ is tuple:
            k = index.get(letter)
            return None if k is None else stride + axis * width + k
        return letter

    form = comp
    if block:
        rows_out, outs_out = [], []
        for row in rows:
            rows_out += map(moved, next_row[row:row + stride])
            outs_out += output[row:row + stride]
            cells = [cell(row, v) for v in block]
            for axis in range(_BUNDLE_AXES):
                for step in cells:
                    out = step and code(step[1], axis)
                    if out is None:
                        rows_out.append(_SPLIT)
                        outs_out.append(-1)
                    else:
                        rows_out.append(moved(step[0]))
                        outs_out.append(out)
        form = replace(comp, stride=form_stride, start=moved(comp.start),
                       next_row=tuple(rows_out), output=tuple(outs_out),
                       empty_verdicts={
                           moved(row): v
                           for row, v in comp.empty_verdicts.items()},
                       blocks=None, verdict=None, first_steps=None)
    tables = []
    for axis in range(_BUNDLE_AXES if any(groups.values()) else 0):
        table = {}
        for row in rows:
            grouped = {x: g for g in groups[row]
                       if code(g[1], axis) is not None for x in g[0]}
            table[row] = slots = []
            for x in sigma:
                step = steps[row + comp.code[x]]
                if x not in grouped:
                    slots.append((x, step, None))
                elif grouped[x][0][0] == x:
                    members, v = grouped[x]
                    slots.append((x, (step[0], [code(v, axis)]), members))
        tables.append(table)
    parts = [None] * stride + [(axis, v) for axis in range(_BUNDLE_AXES)
                               for v in block]
    object.__setattr__(comp, "bundles", (form, tables, parts))
    return comp.bundles


def _product_side(comp: _Compiled, sigma: list) -> tuple:
    """(root, kids, verdict, runner) of one machine in equivalent_up_to's
    walk, on comp, its verdict form; runner makes its completion runs.  A
    node is the row its first sweep reached and the tape that sweep
    appended, as a key, or False or True when the first sweep halted
    (_first_steps); those are their own children.
    kids(node) lists a node's children in the order of sigma.
    verdict(node, depth) is the verdict of a node of depth at least 1,
    the same at every depth: depth only bounds the node's tape.  A node is
    the sweep boundary its completion run starts from, so while the
    verdict table is kept a node it holds is not run again; the lookup
    counts as neither a run nor a hit of the table's probe.  A node with
    an empty tape has no boundary to file; in a flagged row of an ET
    verdict form its run ends on comp.empty_verdicts."""
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

    def verdict(node, depth: int) -> bool:
        if node.__class__ is bool:
            return node
        memo = runner.memo
        result = None if memo is None else memo.get(node)
        if result is None:
            row, tape = node
            if len(tape) < runner.queue_below:
                result = _decide(comp, row, [*tape], depth)
            else:
                result = runner.run(row, tape, depth)
        return result is _ACCEPTED

    return (comp.start, comp.key_of(())), kids, verdict, runner


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
    then letter order.  The language is enumerated up to a bound that
    doubles, to at most max_len, each time the compared length passes it,
    so a short disagreement costs a short enumeration."""
    sigma = sorted(m.input_alphabet, key=m.tape.rank)
    bound = -1
    for r in range(max_len + 1):
        if r > bound:
            bound = min(2 * r, max_len)
            got = enumerate_accepted(m, bound)
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
