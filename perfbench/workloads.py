"""The four workloads: which ops a round runs, and how each op is checked.

An op is one call the single closed-loop client makes and waits for.  A
workload returns groups of ops; every round runs the groups in order, each
in a freshly shuffled order, so every round does the same work.  Inputs
come from the seeded generator handed in at set-up; reference answers are
computed before the first timed op, outside set-up, and cached for the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import fr1tass as F

from desk import (CONSTRUCTIONS, LANGUAGES, enumerate_counts, parse_counts,
                  run_cli, sigma, words_up_to)
from reference import PINNED_RUNS, all_words, marked_copies, reference_run
from spans import run_counts


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable  # (tracer) -> result
    check: Callable  # (result) -> True when the result matches the reference
    prepare: Optional[Callable] = None  # computes the cached reference


# --- enumerate ---------------------------------------------------------------

# (machine, max_len); the largest length of each machine goes through the CLI.
# Thirteen op kinds of spread-out cost put the median and p90 inside one
# kind's group of attempts, not on the edge between two.
ENUMERATE_API = (("center", 11), ("center", 12), ("center_et", 10),
                 ("center_et", 11), ("marked_copy", 10), ("marked_copy", 11),
                 ("marked_copy", 12), ("power_of_two", 256),
                 ("power_of_two", 512))
# power_of_two at 1200 is past the depth at which the recursive prefix walk
# in enumerate_accepted raises RecursionError.
ENUMERATE_CLI = (("center", 13), ("center_et", 12), ("marked_copy", 13),
                 ("power_of_two", 1200))


def _accepted_up_to(m, name: str, max_len: int) -> set:
    if name == "marked_copy":
        return marked_copies(max_len)
    if name == "power_of_two":
        return {("a",) * 2 ** k for k in range(max_len.bit_length())
                if 2 ** k <= max_len}
    language = LANGUAGES[name]
    return {w for w in all_words(sigma(m), max_len) if language(w)}


def enumerate_workload(desk, rng) -> list:
    ops = []
    for name, max_len in ENUMERATE_API:
        m = desk.machines[name]
        expected = cache(lambda m=m, name=name, n=max_len:
                         _accepted_up_to(m, name, n))
        ops.append(Op(
            f"enumerate_accepted {name} L={max_len}",
            lambda tr, m=m, n=max_len: tr.call(
                "oracle.enumerate_accepted", F.enumerate_accepted, m, n,
                counts=enumerate_counts(m, n)),
            lambda got, expected=expected: got == expected(), expected))
    for name, max_len in ENUMERATE_CLI:
        m = desk.machines[name]
        expected = cache(lambda m=m, name=name, n=max_len:
                         _accepted_up_to(m, name, n))
        argv = ["enumerate", desk.files[name], "--max-len", str(max_len)]
        ops.append(Op(
            f"cli enumerate {name} --max-len {max_len}",
            lambda tr, argv=argv: tr.call("cli.main", run_cli, argv),
            lambda got, expected=expected: got[0] == 0 and {
                tuple(line.split()) for line in got[1].splitlines()
            } == expected(), expected))
    return [ops]


# --- equivalence -------------------------------------------------------------

EQUIVALENCE_PAIRS = (("balance", "balance_as"), ("balance", "balance_et"),
                     ("balance", "even_dfa"))
# every other length: costs step by about 4x, so the median and p90 fall
# inside a group of ops of similar cost
EQUIVALENCE_LENGTHS = (8, 10, 12)


def equivalence_workload(desk, rng) -> list:
    ops = []
    for first, second in EQUIVALENCE_PAIRS:
        for max_len in EQUIVALENCE_LENGTHS:
            a, b = desk.machines[first], desk.machines[second]
            swap = rng.random() < 0.5
            if swap:
                a, b = b, a
            # the first disagreement, if any, is the word "a": balance
            # accepts it and an even-length language does not
            expected = None
            if LANGUAGES[second](("a",)) != LANGUAGES[first](("a",)):
                expected = F.Counterexample(word=("a",), in_first=not swap,
                                            in_second=swap)
            words = 2 * words_up_to(a, max_len)
            ops.append(Op(
                f"equivalent_up_to {first} {second} L={max_len}"
                + (" swapped" if swap else ""),
                lambda tr, a=a, b=b, n=max_len, words=words: tr.call(
                    "oracle.equivalent_up_to", F.equivalent_up_to, a, b, n,
                    counts=lambda _: {"words": words}),
                lambda got, expected=expected: got == expected))
    return [ops]


# --- membership --------------------------------------------------------------

MEMBERSHIP_MAX_LEN = 5  # every word up to this length, on every machine
MEMBERSHIP_RANDOM_LENGTHS = (6, 7, 8, 9)  # plus four seeded words of each
MEMBERSHIP_OPERANDS = ("center", "balance_as", "balance")


def membership_workload(desk, rng) -> list:
    built: dict = {}  # construction -> the machine read back this round

    def construct(tr, name):
        m = CONSTRUCTIONS[name][0](tr, desk.machines)
        text = tr.call("model.serialize_machine", F.serialize_machine, m)
        built[name] = tr.call("model.parse_machine", F.parse_machine, text,
                              counts=parse_counts)
        return m, built[name]

    constructions = [
        Op(f"construct {name}", lambda tr, name=name: construct(tr, name),
           lambda got: got[0] == got[1])
        for name in CONSTRUCTIONS]

    words = list(all_words(("a", "b"), MEMBERSHIP_MAX_LEN))
    for length in MEMBERSHIP_RANDOM_LENGTHS:
        words += [tuple(rng.choice("ab") for _ in range(length))
                  for _ in range(4)]
    runs = []
    machines = [("", name, built) for name in CONSTRUCTIONS] + [
        ("operand ", name, desk.machines) for name in MEMBERSHIP_OPERANDS]
    for role, name, source in machines:
        language = LANGUAGES[name]
        for w in words:
            runs.append(Op(
                f"run {role}{name} {''.join(w) or '(empty)'}",
                lambda tr, source=source, name=name, w=w: tr.call(
                    "simulate.run", F.run, source[name], w,
                    counts=run_counts).accepted,
                lambda got, expected=language(w): got == expected))
    return [constructions, runs]


# --- long_run ----------------------------------------------------------------

# One center length and four balance runs (a seventh of the ops) keep the
# median among the center runs and p90 among the balance runs.  Sixteen
# center words give the median that many attempts per round.
CENTER_WORDS, CENTER_LENGTH = 16, 501
COPY_LENGTHS = (200, 220, 240, 260, 280, 300)  # |u| in #u#u
LONG_PINNED = {
    ("power_of_two", "a^65536"): ("a",) * 65536,
    ("power_of_two", "a^65535"): ("a",) * 65535,
    ("balance", "a^2000 b^2000"): ("a",) * 2000 + ("b",) * 2000,
    ("balance", "b^2000 a^2000"): ("b",) * 2000 + ("a",) * 2000,
    ("balance", "a^2002 b^2000"): ("a",) * 2002 + ("b",) * 2000,
    ("balance", "a^1999 b^2000"): ("a",) * 1999 + ("b",) * 2000,
}


def _outcome(result) -> tuple:
    return result.verdict.value, result.total_steps, result.total_sweeps


def _long_op(name, m, label, word, expected) -> Op:
    return Op(f"run {name} {label}",
              lambda tr: _outcome(tr.call("simulate.run", F.run, m, word,
                                          counts=run_counts)),
              lambda got: got == expected(), expected)


def long_run_workload(desk, rng) -> list:
    ops = [_long_op(name, desk.machines[name], label, word,
                    lambda key=(name, label): PINNED_RUNS[key])
           for (name, label), word in LONG_PINNED.items()]
    seeded = [("center", tuple(rng.choice("ab") for _ in range(CENTER_LENGTH)))
              for _ in range(CENTER_WORDS)]
    for n in COPY_LENGTHS:
        u = tuple(rng.choice("ab") for _ in range(n))
        seeded.append(("marked_copy", ("#",) + u + ("#",) + u))
    for name, word in seeded:
        m = desk.machines[name]
        ops.append(_long_op(name, m, f"|w|={len(word)}", word, cache(
            lambda m=m, name=name, word=word: _checked_reference(m, name, word))))
    return [ops]


def _checked_reference(m, name, word) -> tuple:
    outcome = reference_run(m, word)
    if (outcome[0] == "Accepted") != LANGUAGES[name](word):
        raise RuntimeError(f"reference run disagrees with the {name} language")
    return outcome


WORKLOADS = {
    "enumerate": enumerate_workload,
    "equivalence": equivalence_workload,
    "membership": membership_workload,
    "long_run": long_run_workload,
}
