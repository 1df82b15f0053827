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
of states.  On bytes tapes (see _BLOCK_MIN) a sweep copies each block of
letters its state loops on in one go, and steps a row that neither has
such a cell nor leads to one by a memo of _CHUNK-letter chunks, which
lives for the sweep.  The tables are built on a machine's first bytes
tape (_block_tables).
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


@dataclass(frozen=True)
class _Compiled:
    """A machine's table with letters coded in tape order (then any letter
    an unvalidated machine uses off the tape) and each state by its row,
    index * stride.  ``input_code`` codes the input letters only.
    ``next_row[row + letter]`` is the next row, -1 for no transition and
    ``-2 - row`` for an accepting row in AS mode; ``output[row + letter]``
    is the letter written, -1 for an erasure.  Tapes of at least ``gate``
    letters are bytes and shorter ones tuples, so the format depends only
    on the length and equal tapes compare equal."""

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
    object.__setattr__(m, "_compiled", _Compiled(
        letters=letters, code=code,
        input_code={x: code[x] for x in m.input_alphabet}, states=states,
        stride=stride, start=row[m.start], next_row=tuple(next_row),
        output=tuple(output), as_mode=as_mode, accepts_empty=m.accepts_empty,
        state_count=len(states),
        gate=_BLOCK_MIN if len(letters) <= 256 else sys.maxsize))
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


def _core(comp: _Compiled, tape, budget: int, budget_is_user: bool,
          records: Optional[list]):
    """Run from the start on a coded tape (see _Compiled), one sweep per
    pass; returns (verdict, row of the last state, steps, sweeps)."""
    next_row, output, gate = comp.next_row, comp.output, comp.gate
    row, state_count = comp.start, comp.state_count
    sweep_index, prev_tape, steps, unchanged = 1, None, 0, 0
    while tape:
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
            after = tuple(written)
        else:
            skip, loops, blocks = comp.blocks or _block_tables(comp)
            floor = -1 - len(skip)  # skip values below it mark self-loop cells
            chunks = floor - len(skip)  # and below this rows with none
            end, view, written = min(n, room), memoryview(tape), bytearray()
            write = written.append
            memo: dict = {}  # (row, chunk) -> (row after, bytes written)
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
                    # step chunk rows by the memo, filling in what it lacks;
                    # a chunk row marks every cell, so its first one tells
                    row = chunks - 1 - row
                    while i < end and skip[row] < chunks:
                        j = min(i + _CHUNK, end)
                        key = row, tape[i:j]
                        hit = memo.get(key)
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
                            memo[key] = row, bytes(written[before:])
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
            after = bytes(written) if len(written) >= gate else tuple(written)
        if n > room:
            if budget_is_user:
                raise LimitExceededError(f"step limit of {budget} exhausted")
            raise RuntimeError("internal step budget exhausted")
        steps += n
        # each sweep consumes its whole start tape, so what it wrote is the next
        prev_tape, tape = tape, after
        sweep_index += 1
    if comp.as_mode and not (steps == 0 and comp.accepts_empty):
        return _EMPTY, row, steps, sweep_index - 1
    return _ACCEPTED, row, steps, sweep_index - 1


def _decide(comp: _Compiled, row: int, queue: list, n: int,
            memo: Optional[dict] = None, passed: Optional[list] = None):
    """(verdict, whether memo gave it) of a run that has taken a step and
    reached row with at most n codes in queue, which it appends to: the
    run is one pass over queue with no sweep bookkeeping.

    state_count * L steps in a row that each write back the letter they
    read, on a tape of L letters, meet one tape state_count + 1 times, so
    a state repeats and the run is a loop.  This is checked once per chunk
    of state_count * n steps, or with a memo once per sweep.  Then a sweep
    boundary (row, tape) found in memo ends the run with its verdict, and
    every other boundary met is appended to passed, for the caller to
    file under the final verdict."""
    next_row, output, count = comp.next_row, comp.output, comp.state_count
    write, letters = queue.append, iter(queue)  # letters yields appends too
    key_of = bytes if len(comp.letters) <= 256 else tuple
    # a freezing run makes at most n * len(letters) erasures and rewrites,
    # with fewer than count * n steps between two
    budget = (n * len(comp.letters) + 2) * count * n
    i = streak = 0  # steps taken, the last streak of them writing back
    end = len(queue)
    tape = key_of(queue) if memo is not None else None  # the sweep's tape
    while i < end:
        if memo is None:
            stop = i + count * n
            span = islice(letters, count * n)
        else:
            key = (row, tape)
            known = memo.get(key)
            if known is not None:
                return known, True
            passed.append(key)
            span, stop = tape, end
        for c in span:
            at = row + c
            row = next_row[at]
            if row < 0:
                return (_STUCK if row == -1 else _ACCEPTED), False
            out = output[at]
            if out >= 0:
                write(out)
        top = len(queue)
        if top <= stop:
            break
        if memo is None:
            # with no erasure, step i + j wrote queue[end + j]
            same = top - end == stop - i and queue[i:stop] == queue[end:]
        else:
            prev, tape = tape, key_of(queue[end:])
            same = tape == prev
        if same:
            streak += stop - i
            if streak >= count * (top - stop):
                return _LOOP, False
        elif stop > budget:
            raise RuntimeError("internal step budget exhausted")
        else:
            streak = 0
        i, end = stop, top
    return (_EMPTY if comp.as_mode else _ACCEPTED), False


def run(m: Machine, word: Iterable[str], limits: Optional[RunLimits] = None) -> RunResult:
    limits = limits or RunLimits()
    comp = _compile(m)
    w = tuple(word)
    codes = map(comp.input_code.__getitem__, w)
    try:
        # checked and coded in one pass
        tape = bytes(codes) if len(w) >= comp.gate else tuple(codes)
    except KeyError:
        _check_word(m, w)  # raises, naming the first letter not in the input
        raise
    records: Optional[list] = [] if limits.trace else None
    if limits.max_steps is not None:
        budget, budget_is_user = limits.max_steps, True
    else:
        n = len(w)
        budget, budget_is_user = sweep_bound(m, n) * max(n, 1) + n + 1, False
    verdict, row, steps, sweeps = _core(
        comp, tape, budget, budget_is_user, records)
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
