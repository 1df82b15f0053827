"""Command line front end.

Exit codes: 0 for success (accepted, equivalent, valid), 1 for a negative
outcome (rejected, counterexample found, violations reported), 2 for
errors of any kind.
"""

from __future__ import annotations

import argparse
import sys

from . import gallery, oracle, pcp, transform
from .exceptions import Fr1tassError
from .model import Machine, parse_machine, serialize_machine, to_dot, validate
from .simulate import RunLimits, _compile, run


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load(path: str) -> Machine:
    return parse_machine(_read(path))


def _emit(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _word_of(args) -> tuple:
    if args.chars is not None:
        return tuple(args.chars)
    if args.word is not None:
        return tuple(args.word.split())
    return ()


def cmd_validate(args) -> int:
    report = validate(parse_machine(_read(args.machine), strict=False))
    if not report:
        print("ok")
        return 0
    for violation in report:
        print(violation)
    return 1


def cmd_run(args) -> int:
    m = _load(args.machine)
    limits = RunLimits(max_steps=args.max_steps, trace=args.trace)
    result = run(m, _word_of(args), limits)
    if args.trace:
        for rec in result.sweeps:
            case = rec.case.value if rec.case is not None else "-"
            print(f"sweep {rec.index} state={rec.start_state} "
                  f"len={rec.length} case={case} "
                  f"tape={' '.join(rec.start_tape)}")
    print(f"verdict={result.verdict.value} steps={result.total_steps} "
          f"sweeps={result.total_sweeps} state={result.halting_state}")
    return 0 if result.accepted else 1


def cmd_enumerate(args) -> int:
    m = _load(args.machine)
    # by length, then letter by letter in tape order; a length's words are
    # distinct, and a string of letter codes sorts them as the codes do
    code = {x: chr(c) for x, c in _compile(m).code.items()}.__getitem__
    layers = list(oracle._accepted_layers(m, args.max_len))
    for words in layers:
        words.sort(key=lambda w: "".join(map(code, w)))
        sys.stdout.write("".join(" ".join(w) + "\n" for w in words))
    return 0


def cmd_equal(args) -> int:
    a = _load(args.first)
    b = _load(args.second)
    cex = oracle.equivalent_up_to(a, b, args.max_len)
    if cex is None:
        print("equivalent")
        return 0
    print("counterexample:", " ".join(cex.word) if cex.word else "(empty word)")
    print("in first:", cex.in_first)
    print("in second:", cex.in_second)
    return 1


def cmd_classify_unary(args) -> int:
    print(oracle.classify_unary_noaux(_load(args.machine)))
    return 0


_UNARY_OPS = {
    "remove-erasing": transform.remove_erasing,
    "as2et": transform.as_to_et,
    "et2as": transform.et_to_as,
    "complement": transform.complement,
}
_BINARY_OPS = {
    "intersect": transform.intersect,
    "union": transform.union,
    "intersect-seq": transform.intersect_sequential,
    "union-seq": transform.union_sequential,
}


def cmd_transform(args) -> int:
    if args.op == "from-dfa":
        if args.second is not None:
            print("error: from-dfa takes one file", file=sys.stderr)
            return 2
        result = transform.from_dfa(transform.parse_dfa(_read(args.machine)))
    elif args.op in _UNARY_OPS:
        if args.second is not None:
            print(f"error: {args.op} takes one machine", file=sys.stderr)
            return 2
        result = _UNARY_OPS[args.op](_load(args.machine))
    else:
        if args.second is None:
            print(f"error: {args.op} takes two machines", file=sys.stderr)
            return 2
        result = _BINARY_OPS[args.op](_load(args.machine), _load(args.second))
    _emit(serialize_machine(result), args.output)
    return 0


def cmd_gallery(args) -> int:
    if args.action == "list":
        for name in gallery.GALLERY:
            print(name)
        return 0
    build = gallery.GALLERY.get(args.name)
    if build is None:
        known = ", ".join(gallery.GALLERY)
        print(f"error: unknown machine {args.name!r} (have: {known})",
              file=sys.stderr)
        return 2
    _emit(serialize_machine(build()), args.output)
    return 0


def cmd_pcp(args) -> int:
    instance = pcp.parse_pcp_instance(_read(args.instance))
    if args.action == "build":
        _emit(serialize_machine(pcp.pcp_machine(instance)), args.output)
        return 0
    try:
        indices = [int(tok) for tok in args.indices.replace(",", " ").split()]
    except ValueError:
        print("error: --indices needs comma-separated numbers", file=sys.stderr)
        return 2
    print(" ".join(pcp.encode_pcp_candidate(instance, indices)))
    return 0


def cmd_dot(args) -> int:
    _emit(to_dot(_load(args.machine)), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fr1tass",
        description="Workbench for freezing 1-tag systems with states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a machine file against the rules")
    p.add_argument("machine")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("run", help="run a machine on one word")
    p.add_argument("machine")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--word", help="letters separated by spaces")
    group.add_argument("--chars", help="one letter per character")
    p.add_argument("--trace", action="store_true",
                   help="print one line per sweep")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("enumerate", help="list accepted words up to a length")
    p.add_argument("machine")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("equal", help="compare two machines up to a length")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(handler=cmd_equal)

    p = sub.add_parser("classify-unary",
                       help="closed form for a one-letter machine")
    p.add_argument("machine")
    p.set_defaults(handler=cmd_classify_unary)

    p = sub.add_parser("transform", help="build a derived machine")
    p.add_argument("op", choices=sorted(_UNARY_OPS) + sorted(_BINARY_OPS)
                   + ["from-dfa"])
    p.add_argument("machine")
    p.add_argument("second", nargs="?")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("gallery", help="built-in example machines")
    actions = p.add_subparsers(dest="action", required=True)
    q = actions.add_parser("list")
    q.set_defaults(handler=cmd_gallery)
    q = actions.add_parser("emit")
    q.add_argument("name")
    q.add_argument("-o", "--output")
    q.set_defaults(handler=cmd_gallery)

    p = sub.add_parser("pcp", help="correspondence instances")
    actions = p.add_subparsers(dest="action", required=True)
    q = actions.add_parser("build", help="machine accepting solution encodings")
    q.add_argument("instance")
    q.add_argument("-o", "--output")
    q.set_defaults(handler=cmd_pcp)
    q = actions.add_parser("encode", help="encode one candidate sequence")
    q.add_argument("instance")
    q.add_argument("--indices", required=True)
    q.set_defaults(handler=cmd_pcp)

    p = sub.add_parser("dot", help="render a machine as graphviz input")
    p.add_argument("machine")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_dot)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (Fr1tassError, ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
