"""Ground truth helpers: enumeration, comparison, classification.

Everything here answers questions about a machine's language rather than
about single runs: which short words it accepts, whether two machines
agree up to a length, and closed-form descriptions for the unary case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from math import prod
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
# the most axes on a path of enumerate_accepted's walk; the bundle form is
# at most 1 + _BUNDLE_AXES times as wide as the verdict form, and the
# benchmark's enumerate ops ran 9% faster at 8 than at 6, as fast at 10
_BUNDLE_AXES = 8


def enumerate_accepted(m: Machine, max_len: int) -> set:
    """All accepted words of length at most max_len.

    Work is shared across common prefixes: the first sweep of a run only
    ever touches input letters in order, so a walk over prefixes carries
    each partial first sweep along and finishes full words from their
    recorded mid-run position.

    The walk goes one length at a time over the nodes of equivalent_up_to
    (_product_side): a node is the row a first sweep reached and the tape
    it appended, and every word below goes on from there.  A layer maps
    each node to its links, (the parent's entry, the letter), so a node
    that several prefixes reach is one node, run once, with a link per
    parent.  A first sweep that gets stuck drops its node; one that
    accepts puts its words in the cone, every extension of which is
    accepted.  A plain node's verdict is _product_side's: the verdict
    table's, else a completion run (_CompletionRuns).

    A node's children are its row's slots (_bundles): a letter, or a group
    of letters whose first steps from the row reach one row and write
    different letters.  A group's child is a bundle node: its tape ends in
    a vector letter, the tuple of the letters its members wrote, and it
    has one more axis, of as many worlds as members.  A world of a node
    picks one member of each axis, and the node stands for the words of
    each of its worlds, one per path of links.  Groups open at the root,
    and a path has at most _BUNDLE_AXES axes.  A bundle node's
    completion run is a simulate._decide run on the bundle form, which
    steps the runs of all its worlds at once while they agree, so its
    verdict holds for every world; where they part ways it splits, and
    forks on the axis that parted into a run on the form per member, each
    with the other axes still bundled (_bundle_worlds).  Until a split,
    every cell a bundle run takes has one next row for all worlds and
    erases in all or none of them, so their tapes stay aligned; and two
    letter codes are equal only when every world's letters are, so a loop
    cut holds for every world.  Words are spelled only for accepted nodes
    (_spelled).

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
    # the set is built once the walk and its verdict table are gone
    return set().union(*_accepted_layers(m, max_len))


def _accepted_layers(m: Machine, max_len: int):
    """The accepted words of each length from 0 to max_len, a list per
    length, by enumerate_accepted's walk."""
    if max_len < 0:
        raise ValueError("max_len must be at least 0")
    comp = _verdict_form(_compile(m))
    sigma = sorted(m.input_alphabet, key=comp.code.__getitem__)
    root, _, verdict, _ = _product_side(comp, sigma)
    form, tables, parts = _bundles(comp)
    key_of = form.key_of
    yield [()] if m.mode is Mode.ET or m.accepts_empty else []
    # layer maps each node (row, tape, the number of worlds on each axis)
    # to its entry: its words per world once accepted, then its links,
    # each the parent's entry and the letter or group members; cone
    # holds the layer's words below an accepting first step
    layer, cone = {(*root, ()): [[[()]]]}, []
    for depth in range(1, max_len + 1):
        below, halts = {}, []
        for (row, tape, arities), entry in layer.items():
            for x, step in tables[len(arities)][row]:
                if step.__class__ is bool:
                    if step:
                        halts.append((entry, x, arities))
                    continue
                target, written = step
                if x.__class__ is tuple:  # a group's members
                    node = target, key_of(tape) + written, (*arities, len(x))
                else:
                    node = target, tape + written, arities
                below.setdefault(node, [None]).extend((entry, x))
        cone = [w + (x,) for w in cone for x in sigma]
        for entry, x, arities in halts:
            cone += [w + (x,) for world in range(prod(arities))
                     for w in _spelled(entry, world)]
        found = cone.copy()
        for (row, tape, arities), entry in below.items():
            if arities:
                worlds = _bundle_worlds(comp, form, parts, row, tape,
                                        arities, depth)
            else:
                worlds = [0] if verdict((row, tape), depth) else []
            words = [None] * prod(arities) if worlds else None
            for world in worlds:
                words[world] = spelled = _spelled(entry, world)
                found += spelled
            if depth < max_len:  # the last layer has no child to spell
                entry[0] = words
        yield found
        layer = below


def _bundle_worlds(comp: _Compiled, form: _Compiled, parts: list, row: int,
                   tape, arities: tuple, depth: int) -> list:
    """The accepting worlds of a bundle node of enumerate_accepted's walk,
    by runs on the bundle form.  A world picks one member of each axis,
    where arities[k] is the number of members of axis k.  It is numbered
    by its picks as digits, the last axis's lowest, so where the link to a
    parent adds the last axis, the world's number there is
    world // arities[-1].

    Each run carries the picks fixed so far, None on an axis that has not
    parted, and stands for the worlds that agree with them.  A run that
    splits parts on the axis k of its split cell's vector letter: it forks
    into arities[k] runs from the split, where run j has each vector
    letter of axis k replaced by its component j.  A cell on an axis-k
    vector writes one on axis k, so that is the configuration of the
    worlds that pick j on axis k, and the other axes stay bundled.  An
    axis that parts never comes back, so a world's path is a chain of at
    most len(arities) splits."""
    stride = comp.stride
    accepting = []
    todo = [(row // stride * form.stride, [*tape], (None,) * len(arities))]
    while todo:
        at, queue, picks = todo.pop()
        result = _decide(form, at, queue, depth)
        if result is _ACCEPTED:
            worlds = [0]
            for arity, pick in zip(arities, picks):
                worlds = [w * arity + j for w in worlds
                          for j in (range(arity) if pick is None else (pick,))]
            accepting += worlds
        elif result.__class__ is tuple:
            at, rest = result
            k = parts[rest[0]][0]
            for j in range(arities[k]):
                queue = [c if c < stride or parts[c][0] != k
                         else parts[c][1][j] for c in rest]
                todo.append((at, queue, (*picks[:k], j, *picks[k + 1:])))
    return accepting


def _spelled(entry: list, world: int) -> list:
    """The words of a world (see _bundle_worlds) of an entry of
    enumerate_accepted's walk, 0 for a plain node.

    A backward walk over links, each step a pending (entry, world, the
    letters after it), which stops at entries that hold the world's
    words: the accepted ones but the last layer's, and the root.  A link
    with a group's members is its child's last axis, of len(members)
    worlds."""
    out, todo = [], [(entry, world, ())]
    while todo:
        entry, world, tail = todo.pop()
        words = entry[0] and entry[0][world]
        if words is not None:
            out += [w + tail for w in words]
            continue
        for i in range(1, len(entry), 2):
            parent, x = entry[i], entry[i + 1]
            if x.__class__ is tuple:
                up, pick = divmod(world, len(x))
                todo.append((parent, up, (x[pick], *tail)))
            else:
                todo.append((parent, world, (x, *tail)))
    return out


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
    it (_first_steps) reach one row and write one letter each, not all
    the same: letters that write the same letter reach one node anyway.
    Its vector letter is the tuple of the letters they write.  tables[k]
    maps each row to its slots for a node with k axes: (letter, first
    step) for a letter in no group, and (its members, (the row they
    reach, (the code of their vector letter on axis k,))) for a group
    whose vector is in the block.  A step of tables[0] appends a key
    (comp.key_of), of the others a tuple.  tables[_BUNDLE_AXES] has no
    group, and a machine with no group has only tables[0].

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
    plain = {row: [(x, steps[row + comp.code[x]]) for x in sigma]
             for row in rows}

    def cell(row: int, vector: tuple):
        """(next row, the letter written) of vector's cell in row, -1 for
        an erasure; None where its components part ways."""
        targets = {next_row[row + c] for c in vector}
        outs = tuple(output[row + c] for c in vector)
        if len(targets) > 1 or min(outs) < 0 <= max(outs):
            return None
        return targets.pop(), outs if len(set(outs)) > 1 else outs[0]

    groups = {}  # per row, each group's members, first step and vector
    index, block = {}, []  # the block's vectors, each by its place in it
    for row in rows:
        reach = {}
        for x, step in plain[row]:
            if step.__class__ is tuple and len(step[1]) == 1:
                reach.setdefault(step[0], []).append((x, step[1][0]))
        groups[row] = [(tuple(x for x, _ in g), tuple(y for _, y in g))
                       for g in reach.values() if len({y for _, y in g}) > 1]
        block += (v for _, v in groups[row])
    # a worklist: the groups' vectors, then those their cells write
    for v in block:
        if v not in index and len(index) < stride:
            index[v] = len(index)
            for row in rows:
                step = cell(row, v)
                if step and step[1].__class__ is tuple:
                    block.append(step[1])
    block = list(index)
    if not block:
        object.__setattr__(comp, "bundles", (comp, [plain], None))
        return comp.bundles
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
    key_of = bytes if form_stride <= 256 else tuple
    form = replace(comp, stride=form_stride, start=moved(comp.start),
                   next_row=tuple(rows_out), output=tuple(outs_out),
                   empty_verdicts={moved(row): v
                                   for row, v in comp.empty_verdicts.items()},
                   key_of=key_of, blocks=None, verdict=None, first_steps=None)
    keyed = {row: [(x, s if s.__class__ is bool else (s[0], key_of(s[1])))
                   for x, s in slots] for row, slots in plain.items()}
    tables = []
    for axis in range(_BUNDLE_AXES):
        table = {}
        for row in rows:
            table[row] = slots = []
            for members, v in groups[row]:
                c = code(v, axis)
                if c is not None:
                    target = steps[row + comp.code[members[0]]][0]
                    slots.append((members, (target, key_of((c,)))))
            grouped = {x for members, _ in slots for x in members}
            slots += (s for s in (keyed if axis else plain)[row]
                      if s[0] not in grouped)
        tables.append(table)
    parts = [None] * stride + [(axis, v) for axis in range(_BUNDLE_AXES)
                               for v in block]
    object.__setattr__(comp, "bundles", (form, [*tables, keyed], parts))
    return comp.bundles


def _product_side(comp: _Compiled, sigma: list) -> tuple:
    """(root, kids, verdict, runner) of one machine in the prefix walks of
    equivalent_up_to and enumerate_accepted, on comp, its verdict form;
    runner makes its completion runs.  kids serves equivalent_up_to.  A
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
    then letter order.  Each length is compared as enumerate_accepted's
    walk reaches it, so a short disagreement costs a short walk."""
    sigma = sorted(m.input_alphabet, key=m.tape.rank)
    for r, got in enumerate(_accepted_layers(m, max_len)):
        got = set(got)
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
