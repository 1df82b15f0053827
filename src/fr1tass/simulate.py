"""Execution engine: configurations, sweeps, verdicts.

A run proceeds in sweeps.  Sweep i consumes exactly the r_i letters present
on the tape when the sweep starts; outputs appended during the sweep belong
to sweep i+1.  Because every step consumes one letter and writes at most
one, the tape never grows, so each sweep start can be compared against the
previous one.  A long enough run of unchanged sweep-start tapes forces a
state to repeat on identical tapes, which proves the run is circling; the
engine rejects such runs instead of spinning forever.

Freezing bounds how often a letter is rewritten, so long runs spend most
steps either in cells (q, x) -> (q, y) or cycling through a short period
of states.  On bytes tapes of at least _BLOCK_MIN letters a sweep copies
each block of letters its state loops on in one go, and steps a row that
neither has such a cell nor leads to one by a memo of _CHUNK-letter
chunks, which lives for the sweep.  The tables are built on a machine's
first long tape (_block_tables).

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

from .exceptions import LimitExceededError
from .model import Machine, Mode, Word, named_states


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
    verdict: Verdict
    halting_state: str
    sweeps: Optional[list]
    total_steps: int
    total_sweeps: int

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
    every state and letter the transitions name."""
    comp = _compile(m)
    return (n + n * (len(comp.letters) - 1) + 1) * (comp.state_count + 1)


def _step_budget(comp: _Compiled, n: int) -> int:
    """Most steps a run on a word of n letters takes to a verdict,
    sweep_bound(m, n) * max(n, 1) + n + 1.  A letter is only rewritten to
    a lower one and erased at most once, so a run makes at most
    n * len(letters) steps that rewrite or erase, and a sweep with none
    leaves its start tape as it was.  _core, entered at a sweep boundary,
    cuts a loop at the (state_count + 1)-th unchanged start tape in a row,
    so it steps at most sweep_bound sweeps of at most n steps from there;
    n + 1 covers a first sweep before the boundary.  _decide cuts a loop
    in the first chunk of state_count * n steps that all write back, so
    it steps at most n * len(letters) + 1 chunks, fewer steps."""
    return ((n * len(comp.letters) + 1) * (comp.state_count + 1) * (n or 1)
            + n + 1)


@dataclass(frozen=True)
class _Compiled:
    """A machine's table with letters coded in tape order (then any letter
    an unvalidated machine uses off the tape) and each state by its row,
    index * stride.  ``input_code`` codes the input letters only.
    ``next_row[row + letter]`` is the next row, -1 for no transition and
    ``-2 - row`` for an accepting row in AS mode; ``output[row + letter]``
    is the letter written, -1 for an erasure.  ``key_of`` makes the tape,
    and verdict-table key, of a list of codes: bytes when every code fits
    in a byte, else a tuple.  Sweeps over at least ``gate`` letters take
    the block loop, on bytes only."""

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
    blocks: Optional[tuple] = None


# The gate of a machine with at most 256 letters; on shorter tapes blocks
# and chunks are short and a block copy or a chunk lookup costs more than
# the steps it saves.
_BLOCK_MIN = 32
# Letters a chunk row (see _block_tables) steps per memo lookup.
_CHUNK = 32
# The end of a block that at most this many letters can end is found by
# bytes.find, one call per letter; a regex match finds the others.
_FIND_MAX = 2


def _compile(m: Machine) -> _Compiled:
    """The compiled form of m, built on first use and kept on m."""
    if m._compiled is not None:
        return m._compiled
    items = m.transitions.items()
    letters = tuple(dict.fromkeys([
        *m.tape.letters, *sorted(m.input_alphabet),
        *(x for (_, a), (_, out) in items for x in (a, out) if x is not None)]))
    states = named_states(m)
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
    narrow = len(letters) <= 256
    object.__setattr__(m, "_compiled", _Compiled(
        letters=letters, code=code,
        input_code={x: code[x] for x in m.input_alphabet}, states=states,
        stride=stride, start=row[m.start], next_row=tuple(next_row),
        output=tuple(output), as_mode=as_mode, accepts_empty=m.accepts_empty,
        state_count=len(states),
        gate=_BLOCK_MIN if narrow else sys.maxsize,
        key_of=bytes if narrow else tuple))
    return m._compiled


def _block_tables(comp: _Compiled) -> tuple:
    """(skip, loops, blocks), kept on comp.  loops is next_row with each
    self-loop cell set to -2 - len(next_row) - row, below every accepting
    value.  skip is loops with each cell of a chunk row set to
    -2 - 2 * len(next_row) - row, below those: a row that, like every row
    it moves to, has no self-loop cell, so that a chunk from it seldom
    stops at a block.  blocks[row] finds the end of a run of letters row
    loops on, by bytes.find of the letters that end it when there are at
    most _FIND_MAX of them and by a regex match otherwise, and copies it,
    by the translate table of its outputs and the bytes of those it
    erases, or None when every such cell writes back the letter it read."""
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
    object.__setattr__(comp, "blocks", (tuple(skip), tuple(loops), blocks))
    return comp.blocks


def _core(comp: _Compiled, row: int, tape, steps: int, length: int,
          max_steps: Optional[int], records: Optional[list],
          memo: Optional[dict] = None, passed: Optional[list] = None):
    """Run on a word of length letters, one sweep per pass, from row and a
    coded tape (see _Compiled) after steps steps; returns (verdict, row of
    the last state, steps, sweeps).  A sweep boundary (row, tape) in memo
    ends the run with its verdict and row None; passed gets the others."""
    next_row, output, gate = comp.next_row, comp.output, comp.gate
    key_of, state_count = comp.key_of, comp.state_count
    budget = _step_budget(comp, length) if max_steps is None else max_steps
    sweep_index, prev_tape, unchanged = 1, None, 0
    while tape:
        if memo is not None:
            key = row, tape
            known = memo.get(key)
            if known is not None:
                return known, None, steps, sweep_index
            passed.append(key)
        n = len(tape)
        # tapes of different lengths compare unequal without a letter read
        unchanged = unchanged + 1 if tape == prev_tape else 0
        if records is not None:
            case = (None if sweep_index == 1 else
                    SweepCase.UNCHANGED if unchanged else
                    SweepCase.SHRUNK if n < len(prev_tape) else
                    SweepCase.REWROTE)
            records.append(SweepRecord(
                index=sweep_index, start_state=comp.states[row // comp.stride],
                start_tape=tuple(comp.letters[c] for c in tape),
                length=n, case=case))
        if unchanged > state_count:
            # state must have repeated on identical sweep-start tapes
            return _LOOP, row, steps, sweep_index
        room = budget - steps
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
                        return _STUCK, at - c, steps, sweep_index
                    return _ACCEPTED, -2 - row, steps + 1, sweep_index
                out = output[at]
                if out >= 0:
                    write(out)
                else:
                    erased += 1
        else:
            skip, loops, blocks = comp.blocks or _block_tables(comp)
            floor = -1 - len(skip)  # skip values below it mark self-loop cells
            chunks = floor - len(skip)  # and below this rows with none
            end, view, written = min(n, room), memoryview(tape), bytearray()
            write = written.append
            chunk_memo: dict = {}  # (row, chunk) -> (row after, bytes written)
            erased = i = 0
            while True:
                for c in view[i:end]:
                    at = row + c
                    row = skip[at]
                    if row < 0:
                        break
                    out = output[at]
                    if out >= 0:
                        write(out)
                    else:
                        erased += 1
                else:
                    break
                i = len(written) + erased
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
                            erased, i = j - len(written), j
                            continue
                        before = len(written)
                        for c in view[i:j]:
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
                            chunk_memo[key] = row, bytes(written[before:])
                            i = j
                            continue
                        break  # a halt, or a self-loop cell copied below
                    else:
                        continue  # back to single steps
                    i = len(written) + erased
                if row >= floor:
                    steps += len(written) + erased
                    if row == -1:
                        return _STUCK, at - c, steps, sweep_index
                    return _ACCEPTED, -2 - row, steps + 1, sweep_index
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
                    written += view[i:j]
                else:
                    written += tape[i:j].translate(table, erases)
                erased, i = j - len(written), j
        if n > room:
            if max_steps is not None:
                raise LimitExceededError(f"step limit of {budget} exhausted")
            raise RuntimeError("internal step budget exhausted")
        steps += n
        # each sweep consumes its whole start tape, so what it wrote is the next
        prev_tape, tape = tape, key_of(written)
        sweep_index += 1
    if comp.as_mode and not (steps == 0 and comp.accepts_empty):
        return _EMPTY, row, steps, sweep_index - 1
    return _ACCEPTED, row, steps, sweep_index - 1


def _decide(comp: _Compiled, row: int, queue: list, n: int):
    """Verdict of a run that has taken a step and reached row with at most
    n codes in queue, which it appends to: the run is one pass over queue
    with no sweep bookkeeping.

    state_count * L steps in a row that each write back the letter they
    read, on a tape of L letters, meet one tape state_count + 1 times, so
    a state repeats and the run is a loop.  This is checked once per chunk
    of state_count * n steps."""
    next_row, output, count = comp.next_row, comp.output, comp.state_count
    write, letters = queue.append, iter(queue)  # letters yields appends too
    i = streak = 0  # steps taken, the last streak of them writing back
    end = len(queue)
    while i < end:
        stop = i + count * n
        for c in islice(letters, count * n):
            at = row + c
            row = next_row[at]
            if row < 0:
                return _STUCK if row == -1 else _ACCEPTED
            out = output[at]
            if out >= 0:
                write(out)
        top = len(queue)
        if top <= stop:
            break
        # with no erasure, step i + j wrote queue[end + j]
        if top - end == stop - i and queue[i:stop] == queue[end:]:
            streak += stop - i
            if streak >= count * (top - stop):
                return _LOOP
        elif stop > _step_budget(comp, n):
            raise RuntimeError("internal step budget exhausted")
        else:
            streak = 0
        i, end = stop, top
    return _EMPTY if comp.as_mode else _ACCEPTED


def run(m: Machine, word: Iterable[str], limits: Optional[RunLimits] = None) -> RunResult:
    limits = limits or RunLimits()
    comp = _compile(m)
    w = tuple(word)
    codes = map(comp.input_code.__getitem__, w)
    try:
        tape = comp.key_of(codes)  # checked and coded in one pass
    except KeyError:
        _check_word(m, w)  # raises, naming the first letter not in the input
        raise
    records: Optional[list] = [] if limits.trace else None
    verdict, row, steps, sweeps = _core(
        comp, comp.start, tape, 0, len(w), limits.max_steps, records)
    return RunResult(verdict=verdict, halting_state=comp.states[row // comp.stride],
                     sweeps=records, total_steps=steps, total_sweeps=sweeps)


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
