"""Execution engine: configurations, sweeps, verdicts.

A run proceeds in sweeps.  Sweep i consumes exactly the r_i letters present
on the tape when the sweep starts; outputs appended during the sweep belong
to sweep i+1.  Because every step consumes one letter and writes at most
one, the tape never grows, so each sweep start can be compared against the
previous one.  A run is cut as a loop at the (state_count + 1)-th
unchanged sweep-start tape in a row: by then a state has repeated on
identical tapes, which proves the run is circling.  The engine stops at
the first such repeat, whose period it knows, and works out the cut's
state, steps, sweeps and records from there instead of stepping to it.
Runs, enumeration and sweep_bound refuse a machine that is not freezing
(_compile), and on a freezing one the cut ends every run, so the loops
keep no step budget; step steps any machine.

Freezing bounds how often a letter is rewritten, so long runs spend most
steps either in cells (q, x) -> (q, y) or cycling through a short period
of states.  On bytes tapes of at least _BLOCK_MIN letters a sweep copies
each block of letters its state loops on in one go, and steps a row that
neither has such a cell nor leads to one by a memo of _CHUNK-letter
chunks.  The caller keeps that memo, one per run or per enumeration, and
it files at most _CHUNK_MEMO_MAX chunks.  The tables are built on a
machine's first long tape (_block_tables) and bound once per _core call.

A long tape of a few runs of one letter can shrink by the same pattern
sweep after sweep, as a^k b^k does under a machine that erases one a and
one b per sweep.  What a sweep does to a run depends only on the row it
enters the run in and on whether the run outlasts that row's short walk
to a self-loop cell (_walk).  So _jump works such a sweep out run by
run, and when it ends in its start row with each run's count moved by a
constant, the sweeps that repeat it are skipped at once by arithmetic
(Marxen and Buntrock's run-length tapes for Turing machines, 1990).
None of them halts and their tapes all differ, so the verdict, steps,
sweeps, loop cut and step-limit error stay those of stepping them.

_core steps sweep by sweep from any sweep boundary: every run, and each
enumeration completion run with a verdict table or a long tape.  _decide
makes the others, reading the tape as one queue in chunks.
"""

from __future__ import annotations

import enum
import re
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional

from .exceptions import LimitExceededError, PreconditionError
from .model import Machine, Mode, Word


class Verdict(enum.Enum):
    ACCEPTED = "Accepted"
    REJECTED_STUCK = "RejectedStuck"
    REJECTED_LOOP = "RejectedLoop"
    REJECTED_EMPTY_TAPE = "RejectedEmptyTape"


# Loading a member through its class costs about 140 ns on Python 3.11, a
# module global about 10 ns, so the run loops return these.
_ACCEPTED, _STUCK, _LOOP, _EMPTY = (
    Verdict.ACCEPTED, Verdict.REJECTED_STUCK, Verdict.REJECTED_LOOP,
    Verdict.REJECTED_EMPTY_TAPE)
# the next row of a bundle form's cells that cannot step every component
# of their vector letter at once (see oracle._bundles), below every
# accepting value
_SPLIT = -sys.maxsize


class SweepCase(enum.Enum):
    SHRUNK = "Shrunk"
    REWROTE = "Rewrote"
    UNCHANGED = "Unchanged"


class HaltReason(enum.Enum):
    EMPTY_TAPE = "EmptyTape"
    STUCK = "Stuck"


@dataclass(frozen=True)
class Configuration:
    """Snapshot between steps; sweep bookkeeping rolls over eagerly."""

    state: str
    tape: Word
    steps_taken: int
    sweep_index: int
    steps_into_sweep: int
    sweep_start_length: int


@dataclass(frozen=True)
class Halted:
    reason: HaltReason
    configuration: Configuration


@dataclass(frozen=True)
class SweepRecord:
    index: int
    start_state: str
    start_tape: Word
    length: int
    case: Optional[SweepCase]  # None for the first sweep of a run


@dataclass(frozen=True)
class RunLimits:
    max_steps: Optional[int] = None
    trace: bool = False

    def __post_init__(self):
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError("max_steps must be at least 0")


@dataclass(frozen=True)
class RunResult:
    """The verdict of a run and where it ended.  ``loop_start`` certifies a
    RejectedLoop verdict: the (sweep index, state) of the sweep-start
    configuration that the run met again; None for other verdicts."""

    verdict: Verdict
    halting_state: str
    sweeps: Optional[list]
    total_steps: int
    total_sweeps: int
    loop_start: Optional[tuple] = None

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPTED


def _check_word(m: Machine, word: Iterable[str]) -> Word:
    w = tuple(word)
    for letter in w:
        if letter not in m.input_alphabet:
            raise ValueError(f"letter {letter!r} not in the input alphabet")
    return w


def initial_configuration(m: Machine, word: Iterable[str]) -> Configuration:
    w = _check_word(m, word)
    return Configuration(state=m.start, tape=w, steps_taken=0, sweep_index=1,
                         steps_into_sweep=0, sweep_start_length=len(w))


def step(m: Machine, c: Configuration):
    """One step from c: Configuration, or Halted when no step exists."""
    if not c.tape:
        return Halted(HaltReason.EMPTY_TAPE, c)
    hit = m.transitions.get((c.state, c.tape[0]))
    if hit is None:
        return Halted(HaltReason.STUCK, c)
    state, out = hit
    tape = c.tape[1:] + ((out,) if out is not None else ())
    sweep_index = c.sweep_index
    into = c.steps_into_sweep + 1
    length = c.sweep_start_length
    if into == length:
        sweep_index += 1
        into = 0
        length = len(tape)
    return Configuration(state=state, tape=tape, steps_taken=c.steps_taken + 1,
                         sweep_index=sweep_index, steps_into_sweep=into,
                         sweep_start_length=length)


def sweep_bound(m: Machine, n: int) -> int:
    """Sweeps a length-n run can start before looping is certain, counting
    every state of m and every letter its transitions name."""
    comp = _compile(m)
    return (n + n * (len(comp.letters) - 1) + 1) * (comp.state_count + 1)


@dataclass(frozen=True)
class _Compiled:
    """A machine's table with letters coded in tape order (then any letter
    an unvalidated machine uses off the tape) and each state by its row,
    index * stride.  ``input_code`` codes the input letters only.
    ``next_row[row + letter]`` is the next row, -1 for no transition and
    ``-2 - row`` for an accepting row in AS mode; ``output[row + letter]``
    is the letter written, -1 for an erasure.  ``key_of`` makes the tape,
    and verdict-table key, of a list of codes: bytes when every code fits
    in a byte, else a tuple.  With bytes, ``input_bytes`` is the input
    letters that are one Latin-1 character, encoded, and the
    bytes.translate table that codes them; None with tuples.  Sweeps over
    at least ``gate`` letters take the block loop, on bytes only.
    ``empty_verdicts`` maps a row to the verdict of an ET run whose tape
    runs out there, Accepted for a row it lacks; only an ET verdict form
    (see oracle._verdict_form) fills it.
    ``blocks``, ``verdict`` (see oracle._verdict_form), ``first_steps``
    (see oracle._first_steps) and ``bundles`` (see oracle._bundles) are
    built on first use and kept."""

    letters: tuple
    code: dict
    input_code: dict
    states: tuple
    stride: int
    start: int
    next_row: tuple
    output: tuple
    as_mode: bool
    accepts_empty: bool
    state_count: int
    gate: int
    key_of: type
    input_bytes: Optional[tuple]
    empty_verdicts: dict
    blocks: Optional[tuple] = None
    verdict: Optional[_Compiled] = None
    first_steps: Optional[tuple] = None
    bundles: Optional[tuple] = None


# The gate of a machine with at most 256 letters; on shorter tapes blocks
# and chunks are short and a block copy or a chunk lookup costs more than
# the steps it saves.
_BLOCK_MIN = 32
# Letters a chunk row (see _block_tables) steps per memo lookup.
_CHUNK = 32
# Chunks a chunk memo files at most, as many as one sweep of a 65,536-letter
# tape can; it looks chunks up after that but files no new ones.
_CHUNK_MEMO_MAX = (1 << 16) // _CHUNK
# The end of a block that at most this many letters can end is found by
# bytes.find, one call per letter; a regex match finds the others.
_FIND_MAX = 2
# Runs of one letter a long tape may have for _core to work its sweep out
# run by run; a tape with more ends the tries of a _core call.
_RUNS_MAX = 8


def _compile(m: Machine) -> _Compiled:
    """The compiled form of m, built on first use and kept on m.  Its rows
    are the states of m, the start first and the rest sorted.

    m must be freezing in code order: a transition that writes a letter
    coded above the one it reads raises PreconditionError.  That is why
    the run loops need no step budget.  A letter is only rewritten to a
    lower one and erased at most once, so a run on n letters makes at most
    n * len(letters) steps that rewrite or erase, and a sweep with none
    leaves its start tape as it was.  _core cuts a loop at the
    (state_count + 1)-th unchanged start tape in a row, so a run starts at
    most sweep_bound(m, n) sweeps of at most n steps.  _decide cuts a loop
    in the first chunk of state_count * n steps that all write back, so it
    steps at most n * len(letters) + 1 chunks."""
    if m._compiled is not None:
        return m._compiled
    items = m.transitions.items()
    letters = tuple(dict.fromkeys([
        *m.tape.letters, *sorted(m.input_alphabet),
        *(x for (_, a), (_, out) in items for x in (a, out) if x is not None)]))
    states = (m.start, *sorted(m.states - {m.start}))
    code = {x: i for i, x in enumerate(letters)}
    stride = max(len(letters), 1)
    row = {q: i * stride for i, q in enumerate(states)}
    as_mode = m.mode is Mode.AS
    target = {q: -2 - r if as_mode and q in m.accepting else r
              for q, r in row.items()}
    next_row = [-1] * (len(states) * stride)
    output = next_row.copy()
    for (q, a), (q2, out) in items:
        at = row[q] + code[a]
        next_row[at] = target[q2]
        if out is not None:
            output[at] = code[out]
            if output[at] > code[a]:
                raise PreconditionError(
                    f"not freezing: transition {q} {a} -> {q2} {out} writes "
                    f"a letter above the one it reads")
    narrow = len(letters) <= 256
    latin1 = [x for x in m.input_alphabet if len(x) == 1 and ord(x) < 256]
    raw = "".join(latin1).encode("latin-1")
    object.__setattr__(m, "_compiled", _Compiled(
        letters=letters, code=code,
        input_code={x: code[x] for x in m.input_alphabet}, states=states,
        stride=stride, start=row[m.start], next_row=tuple(next_row),
        output=tuple(output), as_mode=as_mode, accepts_empty=m.accepts_empty,
        state_count=len(states),
        gate=_BLOCK_MIN if narrow else sys.maxsize,
        key_of=bytes if narrow else tuple, empty_verdicts={},
        input_bytes=(raw, bytes.maketrans(raw, bytes(code[x] for x in latin1)))
        if narrow else None))
    return m._compiled


def _block_tables(comp: _Compiled) -> tuple:
    """(skip, loops, blocks, walks, runs), kept on comp.  loops is next_row
    with each self-loop cell set to -2 - len(next_row) - row, below every
    accepting value.  skip is loops with each cell of a chunk row set to
    -2 - 2 * len(next_row) - row, below those: a row that, like every row
    it moves to, has no self-loop cell, so that a chunk from it seldom
    stops at a block.  blocks[row] finds the end of a run of letters row
    loops on, by bytes.find of the letters that end it when there are at
    most _FIND_MAX of them and by a regex match otherwise, and copies it,
    by the translate table of its outputs and the bytes of those it
    erases, or None when every such cell writes back the letter it read.
    walks files _walk by cell as _jump meets them, and runs iterates over
    the runs of one letter of a tape, or is None with no self-loop cell."""
    loops, blocks, output = list(comp.next_row), {}, comp.output
    size, codes = len(loops), range(comp.stride)
    cells = {row: [c for c in codes if loops[row + c] == row]
             for row in range(0, size, comp.stride)}
    skip = loops.copy()
    for row, cs in cells.items():
        if not cs:
            if not any(cells.get(loops[row + c]) for c in codes):
                for c in codes:
                    skip[row + c] = -2 - 2 * size - row
            continue
        for c in cs:
            loops[row + c] = skip[row + c] = -2 - size - row
        ends = [c for c in codes if c not in cs]
        kept = [c for c in cs if output[row + c] >= 0]
        blocks[row] = (
            ends if len(ends) <= _FIND_MAX else
            re.compile(b"[%s]*" % re.escape(bytes(cs))).match,
            None if all(output[row + c] == c for c in cs) else
            bytes.maketrans(bytes(kept), bytes(output[row + c] for c in kept)),
            bytes(c for c in cs if output[row + c] < 0))
    runs = re.compile(b"|".join(re.escape(bytes((c,))) + b"+" for c in codes)
                      ).finditer if blocks else None
    object.__setattr__(comp, "blocks", (tuple(skip), tuple(loops), blocks, {},
                                        runs))
    return comp.blocks


def _walk(comp: _Compiled, at: int) -> Optional[tuple]:
    """What reading the letter c of cell at = row + c over and over does:
    (t, s, tail, y) when t steps that write tail reach a row s that loops
    on c writing y (-1 for an erasure), None when the steps halt or
    circle without such a row."""
    next_row, output = comp.next_row, comp.output
    c = at % comp.stride
    tail = bytearray()
    for t in range(comp.state_count):
        row = next_row[at]
        if row == at - c:
            return t, row, bytes(tail), output[at]
        if row < 0:
            return None
        if output[at] >= 0:
            tail.append(output[at])
        at = row + c
    return None


def _jump(comp: _Compiled, start: int, tape: bytes):
    """The sweeps from boundary (start, tape) that repeat its sweep's
    pattern, worked out from the runs of one letter of tape: (sweeps,
    steps, tape before the last of them, tape after them); None when tape
    has more than _RUNS_MAX runs, () when its sweep repeats no pattern.

    A run of c letters x entered in row r takes the t steps of r's walk
    on x (see _walk), then c - t alike in the row s the walk ends in.  So
    while each run outlasts its tail (c > t), the row a sweep ends in and
    the runs it writes depend on the counts only through those c - t
    steps.  A run of at most state_count letters that has no walk, or
    does not outlast its walk's tail, is stepped letter by letter, so its
    count must hold.  When the sweep ends in start and writes the same
    letters in runs, each count c_j moved by a constant d_j, the next
    sweep does the same, and so on until a shrinking run would no longer
    outlast its tail.  With n letters, sweep i of them takes
    n + i * sum(d) steps and none halts; the counts do not all hold, or
    the tape would repeat."""
    next_row, output = comp.next_row, comp.output
    walks, runs = comp.blocks[3:]
    spans = []
    for match in runs(tape):
        if len(spans) == _RUNS_MAX:
            return None
        spans.append(match.span())
    read = []  # (letter, count, tail steps) of each run
    # the runs written: [letter, count less the source run's count, the
    # source run, or -1 for a count the tails write alone]
    written = []
    row = start
    for j, (i, end) in enumerate(spans):
        x, c = tape[i], end - i
        at = row + x
        if at not in walks:
            walks[at] = _walk(comp, at)
        walk = walks[at]
        if walk is not None and walk[0] < c:
            t, row, tail, y = walk
            pieces = [(z, 1, -1) for z in tail]
            if y >= 0:
                pieces.append((y, -t, j))
        elif c <= comp.state_count:
            t, pieces = c, []
            for _ in range(c):
                at = row + x
                row = next_row[at]
                if row < 0:
                    return ()
                if output[at] >= 0:
                    pieces.append((output[at], 1, -1))
        else:
            return ()
        read.append((x, c, t))
        for z, k, source in pieces:
            if written and written[-1][0] == z:
                if source >= 0:
                    if written[-1][2] >= 0:
                        return ()  # two runs' counts add up
                    written[-1][2] = source
                written[-1][1] += k
            else:
                written.append([z, k, source])
    if row != start or len(written) != len(read):
        return ()
    sweeps, moves = sys.maxsize, []
    for j, ((x, c, t), (z, k, source)) in enumerate(zip(read, written)):
        if z != x:
            return ()
        if source == j:
            d = k
        elif source < 0 and k == c:
            d = 0
        else:
            return ()
        if d < 0:
            sweeps = min(sweeps, (c - t - 1) // -d + 1)
        moves.append(d)
    if sweeps == sys.maxsize:
        return ()  # every count holds: the loop cut's case
    shrink = sum(moves)
    return (sweeps, sweeps * len(tape) + shrink * sweeps * (sweeps - 1) // 2,
            *(b"".join(bytes((x,)) * (c + i * d)
                       for (x, c, _), d in zip(read, moves))
              for i in (sweeps - 1, sweeps)))


def _core(comp: _Compiled, row: int, tape, steps: int,
          max_steps: Optional[int], records: Optional[list], chunk_memo: dict,
          memo: Optional[dict] = None, passed: Optional[list] = None):
    """Run one sweep per pass, from row and a coded tape (see _Compiled)
    after steps steps; returns (verdict, row of the last state, steps,
    sweeps, loop).  A sweep boundary (row, tape) in memo ends the run with
    its verdict and row None; passed gets the others.
    chunk_memo maps (chunk row, chunk) to (row after, bytes written) for
    the block loop; it may come from earlier runs of the same machine, and
    it files no new chunk once it holds _CHUNK_MEMO_MAX.

    first and later hold the rows of the current streak of unchanged
    sweep-start tapes, seen = (first, *later).  When a row comes back,
    (row, tape) has repeated and the rows go round seen[a:] for good, with
    period p = len(seen) - a.  The run stops there and reports the cut at
    the (state_count + 1)-th unchanged tape in a row, k sweeps of n steps
    on: row seen[a + k % p], with the k records a trace would have met.
    loop is (sweep index, row) of the repeated boundary's first visit for
    a loop verdict, else None.

    An untraced run with no memo tries a sweep jump (_jump) at a long
    boundary in the row of the boundary before it, on a shorter tape, when
    the machine has a self-loop cell: such a tape can repeat its last
    sweep's pattern.  It stops trying once a tape has more than _RUNS_MAX
    runs, so other long tapes pay one test per sweep.  After k tries in a
    row that find no pattern it lets the next 2**k - 1 such boundaries
    pass, so a few-run tape that repeats none makes about log2 of its
    sweeps in tries.  The jumped sweeps never halt, so the step limit is
    checked once over them; they change their tapes, so none of them is
    in a loop cut's streak, and the boundary after them sees prev_tape as
    the last of them left it.  The sweep loops make every other sweep,
    halts and loop cuts included."""
    next_row, output, gate = comp.next_row, comp.output, comp.gate
    key_of, state_count = comp.key_of, comp.state_count
    limit = sys.maxsize if max_steps is None else max_steps
    sweep_index, prev_tape, skip, last = 1, None, None, -1
    misses = wait = 0  # failed tries in a row bar the next 1, 3, 7, ... ones
    while tape:
        if memo is not None:
            key = row, tape
            known = memo.get(key)
            if known is not None:
                return known, None, steps, sweep_index, None
            passed.append(key)
        n = len(tape)
        # tapes of different lengths compare unequal without a letter read
        same = tape == prev_tape
        if records is not None:
            case = (None if sweep_index == 1 else
                    SweepCase.UNCHANGED if same else
                    SweepCase.SHRUNK if n < len(prev_tape) else
                    SweepCase.REWROTE)
            records.append(SweepRecord(
                index=sweep_index, start_state=comp.states[row // comp.stride],
                start_tape=tuple(comp.letters[c] for c in tape),
                length=n, case=case))
        if not same:
            first, later = row, ()  # a new streak allocates nothing
        elif row != first and row not in later:
            later += row,
        else:
            seen = first, *later
            a = seen.index(row)
            p, k = len(seen) - a, state_count + 1 - len(seen)
            steps += k * n
            if steps > limit:
                _exhausted(limit)
            if records is not None:
                start_tape = records[-1].start_tape
                records += [SweepRecord(
                    index=sweep_index + j,
                    start_state=comp.states[seen[a + j % p] // comp.stride],
                    start_tape=start_tape, length=n,
                    case=SweepCase.UNCHANGED) for j in range(1, k + 1)]
            return (_LOOP, seen[a + k % p], steps, sweep_index + k,
                    (sweep_index - p, row))
        room = limit - steps
        if n < gate:
            written: list = []
            write = written.append
            erased = 0  # with len(written), the steps taken in this sweep
            for c in tape if n <= room else tape[:room]:
                at = row + c
                row = next_row[at]
                if row < 0:
                    steps += len(written) + erased
                    if row == -1:
                        return _STUCK, at - c, steps, sweep_index, None
                    return _ACCEPTED, -2 - row, steps + 1, sweep_index, None
                out = output[at]
                if out >= 0:
                    write(out)
                else:
                    erased += 1
        else:
            if skip is None:  # bound at the first long sweep of the call
                skip, loops, blocks, _, runs = (comp.blocks
                                                or _block_tables(comp))
                # skip values below floor mark self-loop cells, and below
                # chunks rows with none
                floor = -1 - len(skip)
                chunks = floor - len(skip)
                tries = runs is not None and records is None and memo is None
            if tries:
                if row == last and n < len(prev_tape):
                    if wait:
                        wait -= 1
                    else:
                        jump = _jump(comp, row, tape)
                        if jump is None:
                            tries = False
                        elif jump:
                            sweeps, taken, prev_tape, tape = jump
                            if taken > room:
                                _exhausted(limit)
                            steps += taken
                            sweep_index += sweeps
                            misses = 0
                            continue
                        else:
                            misses = wait = 2 * misses + 1
                last = row
            end, written = min(n, room), bytearray()
            write = written.append
            i = 0  # letters read, so the steps taken in this sweep
            while True:
                while i < end:
                    c = tape[i]
                    at = row + c
                    row = skip[at]
                    if row < 0:
                        break
                    out = output[at]
                    if out >= 0:
                        write(out)
                    i += 1
                else:
                    break
                if row < chunks:
                    # step chunk rows by chunk_memo, filling in what it lacks;
                    # a chunk row marks every cell, so its first one tells
                    row = chunks - 1 - row
                    while i < end and skip[row] < chunks:
                        j = min(i + _CHUNK, end)
                        key = row, tape[i:j]
                        hit = chunk_memo.get(key)
                        if hit is not None:
                            row, out = hit
                            written += out
                            i = j
                            continue
                        before = len(written)
                        erased = i - before
                        for c in tape[i:j]:
                            at = row + c
                            row = loops[at]
                            if row < 0:
                                break
                            out = output[at]
                            if out >= 0:
                                write(out)
                            else:
                                erased += 1
                        else:
                            if len(chunk_memo) < _CHUNK_MEMO_MAX:
                                chunk_memo[key] = row, bytes(written[before:])
                            i = j
                            continue
                        # a halt, or a self-loop cell copied below
                        i = len(written) + erased
                        break
                    else:
                        continue  # back to single steps
                if row >= floor:
                    steps += i
                    if row == -1:
                        return _STUCK, at - c, steps, sweep_index, None
                    return _ACCEPTED, -2 - row, steps + 1, sweep_index, None
                # copy the whole block this row loops on in one go
                row = floor - 1 - row
                ends, table, erases = blocks[row]
                if type(ends) is list:
                    j = end
                    for x in ends:
                        k = tape.find(x, i, j)
                        if k >= 0:
                            j = k
                else:
                    j = ends(tape, i, end).end()
                if table is None:
                    written += tape[i:j]
                else:
                    written += tape[i:j].translate(table, erases)
                i = j
        if n > room:
            # the letter after the limit's last step may have no transition
            if next_row[row + tape[room]] == -1:
                return _STUCK, row, limit, sweep_index, None
            _exhausted(limit)
        steps += n
        # each sweep consumes its whole start tape, so what it wrote is the next
        prev_tape, tape = tape, key_of(written)
        sweep_index += 1
    if comp.as_mode and not (steps == 0 and comp.accepts_empty):
        return _EMPTY, row, steps, sweep_index - 1, None
    return (comp.empty_verdicts.get(row, _ACCEPTED), row, steps,
            sweep_index - 1, None)


def _exhausted(max_steps: int):
    """Raise the error of a run that would pass its step limit."""
    raise LimitExceededError(f"step limit of {max_steps} exhausted")


def _decide(comp: _Compiled, row: int, queue: list, n: int):
    """Verdict of a run that has taken a step and reached row with at most
    n codes in queue, which it appends to: the run is one pass over queue
    with no sweep bookkeeping.

    A chunk of state_count * n steps that each write back the letter they
    read, on a tape of L <= n letters, meets one tape state_count + 1
    times, L steps apart, so a state repeats and the run is a loop.  This
    is checked once per chunk, so the run may start from any
    configuration.

    On a bundle form (see oracle._bundles) a cell whose next row is
    _SPLIT ends the run with no verdict: it returns (the row before the
    cell, [the cell's letter, *the rest of the queue]), the configuration
    that the bundle's runs forked on the parting axis go on from."""
    next_row, output, count = comp.next_row, comp.output, comp.state_count
    write, letters = queue.append, iter(queue)  # letters yields appends too
    i = 0  # steps taken
    end = len(queue)
    while i < end:
        stop = i + count * n
        for c in islice(letters, count * n):
            at = row + c
            row = next_row[at]
            if row < 0:
                if row == _SPLIT:
                    return at - c, [c, *letters]
                return _STUCK if row == -1 else _ACCEPTED
            out = output[at]
            if out >= 0:
                write(out)
        top = len(queue)
        if top <= stop:
            break
        # with no erasure, step i + j wrote queue[end + j]
        if top - end == stop - i and queue[i:stop] == queue[end:]:
            return _LOOP
        i, end = stop, top
    return _EMPTY if comp.as_mode else comp.empty_verdicts.get(row, _ACCEPTED)


def run(m: Machine, word: Iterable[str], limits: Optional[RunLimits] = None) -> RunResult:
    limits = limits or RunLimits()
    comp = _compile(m)
    w = tuple(word)
    tape = None
    if comp.input_bytes is not None:
        allowed, table = comp.input_bytes
        try:
            raw = "".join(w).encode("latin-1")
        except (TypeError, UnicodeEncodeError):
            pass
        else:
            # as many characters as letters and no empty letter: each letter
            # is one character, so translate checks and codes them
            if (len(raw) == len(w) and all(w)
                    and not raw.translate(None, allowed)):
                tape = raw.translate(table)
    if tape is None:  # any other word is checked and coded in one pass
        try:
            tape = comp.key_of(map(comp.input_code.__getitem__, w))
        except KeyError:
            # raises, naming the first letter not in the input alphabet
            _check_word(m, w)
            raise
    records: Optional[list] = [] if limits.trace else None
    verdict, row, steps, sweeps, loop = _core(
        comp, comp.start, tape, 0, limits.max_steps, records, {})
    if loop is not None:
        loop = loop[0], comp.states[loop[1] // comp.stride]
    return RunResult(verdict=verdict, halting_state=comp.states[row // comp.stride],
                     sweeps=records, total_steps=steps, total_sweeps=sweeps,
                     loop_start=loop)


def accepts(m: Machine, word: Iterable[str]) -> bool:
    return run(m, word).verdict is Verdict.ACCEPTED


def flatten_trace(m: Machine, word: Iterable[str]) -> Optional[Word]:
    """Concatenate the sweep-start tapes of the run on word.

    Only meaningful when the machine writes input letters exclusively,
    so the result is again a word the machine can read; returns None
    otherwise, and for runs that were cut off as loops.
    """
    if not m.is_no_aux():
        return None
    result = run(m, word, RunLimits(trace=True))
    if result.verdict is Verdict.REJECTED_LOOP:
        return None
    flat: list = []
    for record in result.sweeps:
        flat.extend(record.start_tape)
    return tuple(flat)
