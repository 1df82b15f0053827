"""The desk every workload starts from.

Setting up the desk is what a fresh process pays before its first timed
op: build the gallery machines and the constructions made from them, and
write each machine to the file the CLI reads.  Every workload sets up the
same desk.  `check_desk` then checks it once, outside the timed set-up:
each file reads back as its machine and passes `fr1tass validate`, and
each machine agrees with its reference language on short words.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import fr1tass as F
from fr1tass import cli

from reference import (all_words, is_balanced_ab, is_center_a, is_even_length,
                       is_marked_copy, is_power_of_two_block)
from spans import run_counts, size_counts

EVEN_LENGTH = F.DfaSpec(
    alphabet=("a", "b"), states={"even", "odd"}, start="even",
    accepting={"even"},
    transitions={("even", "a"): "odd", ("even", "b"): "odd",
                 ("odd", "a"): "even", ("odd", "b"): "even"})


def _gallery() -> dict:
    return {"center": F.center_language(), "balance": F.balance_ab_et(),
            "marked_copy": F.marked_copy(), "power_of_two": F.power_of_two()}


def _transform(tr, op, *machines):
    return tr.call("transform." + op.__name__, op, *machines,
                   counts=size_counts)


def _binary(op):
    return lambda tr, d: _transform(tr, op, d["center"], d["balance_as"])


def _complement_of(operand):
    return lambda tr, d: _transform(
        tr, F.complement, _transform(tr, F.remove_erasing, d[operand]))


# name -> (how to build it from the desk machines, its language).  The
# bridges come first because the products read "balance_as".
CONSTRUCTIONS = {
    "center_et": (lambda tr, d: _transform(tr, F.as_to_et, d["center"]),
                  lambda w: is_center_a(w) or not w),
    "balance_as": (lambda tr, d: _transform(tr, F.et_to_as, d["balance"]),
                   is_balanced_ab),
    "intersect": (_binary(F.intersect),
                  lambda w: is_center_a(w) and is_balanced_ab(w)),
    "union": (_binary(F.union),
              lambda w: is_center_a(w) or is_balanced_ab(w)),
    "intersect_seq": (_binary(F.intersect_sequential),
                      lambda w: is_center_a(w) and is_balanced_ab(w)),
    "union_seq": (_binary(F.union_sequential),
                  lambda w: is_center_a(w) or is_balanced_ab(w)),
    "complement_center": (_complement_of("center"),
                          lambda w: not is_center_a(w)),
    "complement_balance_as": (_complement_of("balance_as"),
                              lambda w: not is_balanced_ab(w)),
}

LANGUAGES = {
    "center": is_center_a,
    "balance": is_balanced_ab,
    "marked_copy": is_marked_copy,
    "power_of_two": is_power_of_two_block,
    "balance_et": is_balanced_ab,
    "even_dfa": is_even_length,
    **{name: language for name, (_, language) in CONSTRUCTIONS.items()},
}


# the files the CLI ops read; each is checked once with `fr1tass validate`
CLI_FILES = ("center", "center_et", "marked_copy", "power_of_two")


class DeskError(RuntimeError):
    """The program disagreed with a reference while the desk was set up."""


@dataclass
class Desk:
    machines: dict
    files: dict


def run_cli(argv) -> tuple:
    """cli.main in-process, with its output captured: (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def sigma(m) -> tuple:
    return tuple(sorted(m.input_alphabet))


def words_up_to(m, max_len: int) -> int:
    k = len(m.input_alphabet)
    return sum(k ** r for r in range(max_len + 1))


def enumerate_counts(m, max_len: int):
    return lambda accepted: {"words": words_up_to(m, max_len),
                             "accepted": len(accepted)}


def parse_counts(m) -> dict:
    return {"transitions": len(m.transitions)}


def build_desk(tr, workdir: str) -> Desk:
    machines = tr.call("gallery.build", _gallery)
    for name, (build, _) in CONSTRUCTIONS.items():
        machines[name] = build(tr, machines)
    machines["balance_et"] = tr.call("transform.as_to_et", F.as_to_et,
                                     machines["balance_as"])
    machines["even_dfa"] = tr.call("transform.from_dfa", F.from_dfa,
                                   EVEN_LENGTH)
    os.makedirs(workdir, exist_ok=True)
    files = {}
    for name, m in machines.items():
        text = tr.call("model.serialize_machine", F.serialize_machine, m)
        files[name] = os.path.join(workdir, name + ".machine")
        with open(files[name], "w", encoding="utf-8") as handle:
            handle.write(text)
    return Desk(machines=machines, files=files)


def check_desk(tr, desk: Desk) -> None:
    machines = desk.machines
    for name, m in machines.items():
        _check_machine(tr, name, m, desk.files[name])
    if tr.call("oracle.equivalent_up_to", F.equivalent_up_to,
               machines["balance"], machines["balance_as"], 4,
               counts=lambda _: {"words": 2 * words_up_to(machines["balance"], 4)}
               ) is not None:
        raise DeskError("balance and et_to_as(balance) differ up to length 4")


def _check_machine(tr, name, m, path) -> None:
    language = LANGUAGES[name]
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if tr.call("model.parse_machine", F.parse_machine, text,
               counts=parse_counts) != m:
        raise DeskError(f"{name}: file does not read back as the same machine")
    if name in CLI_FILES and \
            tr.call("cli.main", run_cli, ["validate", path]) != (0, "ok\n"):
        raise DeskError(f"{name}: the CLI does not validate its file")
    for w in all_words(sigma(m), 2):
        if tr.call("simulate.run", F.run, m, w,
                   counts=run_counts).accepted != language(w):
            raise DeskError(f"{name}: wrong verdict on {' '.join(w)!r}")
    got = tr.call("oracle.enumerate_accepted", F.enumerate_accepted, m, 4,
                  counts=enumerate_counts(m, 4))
    if got != {w for w in all_words(sigma(m), 4) if language(w)}:
        raise DeskError(f"{name}: wrong accepted words up to length 4")
