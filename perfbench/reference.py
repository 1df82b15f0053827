"""Reference answers the benchmark checks every op against.

Nothing here calls into fr1tass: the languages are plain predicates on
words, and `reference_run` re-derives a run's verdict, step count and
sweep count from a machine's public fields by the documented semantics
(sweeps consume the letters present at their start; a run that keeps the
same sweep-start tape for more sweeps than the machine has states is
circling).  A faster engine that changes any of these shows up as failed
ops, not as a gain.
"""

from __future__ import annotations

import itertools
from collections import deque


def is_center_a(word) -> bool:
    return len(word) % 2 == 1 and word[len(word) // 2] == "a"


def is_balanced_ab(word) -> bool:
    """As many a as b, or one extra a."""
    return set(word) <= {"a", "b"} and word.count("a") - word.count("b") in (0, 1)


def is_marked_copy(word) -> bool:
    half = len(word) // 2
    return (len(word) % 2 == 0 and half >= 1 and word[0] == "#"
            and word[half] == "#" and word[1:half] == word[half + 1:]
            and set(word[1:half]) <= {"a", "b"})


def is_power_of_two_block(word) -> bool:
    n = len(word)
    return n >= 1 and n & (n - 1) == 0 and set(word) <= {"a"}


def is_even_length(word) -> bool:
    return len(word) % 2 == 0


def all_words(sigma, max_len: int):
    for r in range(max_len + 1):
        yield from itertools.product(sigma, repeat=r)


def marked_copies(max_len: int) -> set:
    """{#u#u : |#u#u| <= max_len}, built directly instead of filtered."""
    return {("#",) + u + ("#",) + u
            for u in all_words(("a", "b"), (max_len - 2) // 2)}


def reference_run(m, word) -> tuple:
    """(verdict name, total steps, total sweeps) of m on word."""
    accept_by_state = m.mode.value == "AS"
    tape = deque(word)
    state, steps, sweep, previous, unchanged = m.start, 0, 1, None, 0
    while True:
        if not tape:
            if accept_by_state and not (steps == 0 and m.accepts_empty):
                return "RejectedEmptyTape", steps, sweep - 1
            return "Accepted", steps, sweep - 1
        start_tape = tuple(tape)
        unchanged = unchanged + 1 if start_tape == previous else 0
        if unchanged > len(m.states):
            return "RejectedLoop", steps, sweep
        previous = start_tape
        for _ in range(len(start_tape)):
            hit = m.transitions.get((state, tape[0]))
            if hit is None:
                return "RejectedStuck", steps, sweep
            tape.popleft()
            state, out = hit
            if out is not None:
                tape.append(out)
            steps += 1
            if accept_by_state and state in m.accepting:
                return "Accepted", steps, sweep
        sweep += 1


# (machine, word description) -> (verdict, total steps, total sweeps), as
# recorded at the commit that introduced the benchmark.  These runs are too
# long to re-derive on every benchmark run.
PINNED_RUNS = {
    ("power_of_two", "a^65536"): ("Accepted", 131072, 18),
    ("power_of_two", "a^65535"): ("RejectedStuck", 65535, 2),
    ("balance", "a^2000 b^2000"): ("Accepted", 4002000, 2000),
    ("balance", "b^2000 a^2000"): ("Accepted", 4004000, 2001),
    ("balance", "a^2002 b^2000"): ("RejectedLoop", 4006005, 2005),
    ("balance", "a^1999 b^2000"): ("RejectedLoop", 4000002, 2003),
}
