"""fr1tass benchmark: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced and traced

Run from anywhere; the package is imported from `src/` next to this
directory and nowhere else.  `--seconds` defaults to BENCHMARK.json's
`run_seconds`.  A run sets up the desk (see desk.py) several times and
keeps the median as `setup_s`, then repeats rounds of the workload's ops
until the ops have been busy for `--seconds` seconds and have made at
least MIN_ATTEMPTS attempts.  Every op's answer is checked against a
reference outside the timed region.  Reported times are at reference
speed (see speed.py).

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics.  With `--trace 1` rounds alternate between untraced and
traced, the per-layer metrics come from the traced ones, and the spans are
written to `.perfbench/trace-<workload>-<seed>.json` at the repository root.
"""

from __future__ import annotations

import argparse
import ast
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("enumerate", "equivalence", "membership", "long_run")
SETUP_REPEATS = 9
# op_p90_ms needs at least ten attempts beyond it
MIN_ATTEMPTS = 100
# Seed 1 is the development seed.  Confirm a claimed gain on HELD_OUT_SEED,
# which was not used while the benchmark or any change was tuned.
DEFAULT_SEED = 1
HELD_OUT_SEED = 271828


class SelfCheckError(RuntimeError):
    pass


def private_imports(paths) -> list:
    """Places where the benchmark reaches for an underscore name of fr1tass."""
    found = []
    for path in paths:
        tree = ast.parse(Path(path).read_text(encoding="utf-8"))
        package_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "fr1tass":
                        package_names.add(alias.asname or "fr1tass")
                        if any(p.startswith("_") for p in alias.name.split(".")):
                            found.append(f"{path}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "fr1tass":
                parts = node.module.split(".") + [a.name for a in node.names]
                if any(p.startswith("_") for p in parts):
                    found.append(f"{path}:{node.lineno}")
                package_names.update(a.asname or a.name for a in node.names)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or \
                    not node.attr.startswith("_") or node.attr.startswith("__"):
                continue
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in package_names:
                found.append(f"{path}:{node.lineno}")
    return found


def run_seconds() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)["run_seconds"]


def import_package():
    """Import fr1tass from this checkout's src/; (seconds taken, module)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import fr1tass
        import fr1tass.cli  # the CLI ops drive it; not imported by fr1tass
    except ImportError as err:
        raise SelfCheckError(f"cannot import fr1tass from {src}: {err}") from err
    elapsed = time.perf_counter() - start
    if Path(fr1tass.__file__).resolve().parent.parent != src.resolve():
        raise SelfCheckError(f"fr1tass was imported from {fr1tass.__file__}")
    return elapsed, fr1tass


def attempt(op, tr) -> tuple:
    """(start, seconds busy, True when answered and matching, the name of
    the exception raised or None).

    Only the exception's name leaves: its traceback would keep the failed
    call's frames, and all they hold, alive into the next op.
    """
    start = time.perf_counter()
    try:
        result, error = tr.call("bench.op", op.call, tr), None
    except Exception as err:  # a raised exception is a failed op
        result, error = None, type(err).__name__
    # The op pays, in its own time, for collecting the cyclic garbage it
    # left, so no op inherits another's and peak_rss_mb does not depend on
    # when the collector happened to run.
    gc.collect()
    busy = time.perf_counter() - start
    return start, busy, error is None and op.check(result), error


def rank(n: int, q: float) -> int:
    """Index of the q quantile in n sorted samples (nearest rank)."""
    return max(0, math.ceil(q * n) - 1)


def run_workload(args) -> dict:
    from spans import CHECK, NullTracer, Tracer, layer_metrics
    from speed import SpeedClock

    paths = sorted(HERE.glob("*.py"))
    leaks = private_imports(paths)
    if leaks:
        raise SelfCheckError("private fr1tass names used at " + ", ".join(leaks))
    clock = SpeedClock()
    clock.calibrate()
    import_start = time.perf_counter()
    import_s, F = import_package()
    clock.calibrate()
    from desk import build_desk, check_desk
    from workloads import WORKLOADS, Op

    null = NullTracer()
    tracer = Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            desk = build_desk(tracer or null, os.path.join(workdir, str(rep)))
            groups = WORKLOADS[args.workload](desk, random.Random(args.seed))
            setups.append((start, time.perf_counter() - start))
            clock.calibrate()
        if tracer is not None:
            tracer.op = CHECK
        check_desk(tracer or null, desk)

        wrong = Op("self-check: a deliberately wrong expected answer",
                   lambda tr: F.run(desk.machines["power_of_two"],
                                    ("a", "a")).accepted,
                   lambda got: got is False)
        if attempt(wrong, null)[2]:
            raise SelfCheckError("a wrong expected answer was not counted "
                                 "as a failed op")

        for group in groups:
            for op in group:
                if op.prepare is not None:
                    op.prepare()
        # The desk and the cached reference answers live for the whole
        # run; keep the collector from re-scanning them during timed ops,
        # so the collection each op pays for scans the package's objects.
        gc.collect()
        gc.freeze()

        schedule = random.Random(f"{args.seed}/schedule")
        # (start, seconds, ok, traced) for every attempt
        timings, raised, mismatched = [], {}, {}
        busy = rounds = traced_rounds = 0
        while True:
            # untraced and traced rounds alternate as U T T U, so drift
            # over the run falls on both alike
            traced = tracer is not None and rounds % 4 in (1, 2)
            tr = tracer if traced else null
            for group in groups:
                order = list(group)
                schedule.shuffle(order)
                for index, op in enumerate(order):
                    clock.calibrate_if_due()
                    if traced:
                        tracer.op = f"{rounds}/{index}"
                    start, seconds, ok, err = attempt(op, tr)
                    timings.append((start, seconds, ok, traced))
                    busy += seconds
                    if err is not None:
                        key = f"{op.label}: {err}"
                        raised[key] = raised.get(key, 0) + 1
                    elif not ok:
                        mismatched[op.label] = mismatched.get(op.label, 0) + 1
            rounds += 1
            traced_rounds += traced
            if busy >= args.seconds and len(timings) >= MIN_ATTEMPTS and \
                    (tracer is None or rounds % 2 == 0):
                break
        clock.calibrate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(raised.values()) + sum(mismatched.values())
    n = len(timings)
    scaled = [(seconds * clock.scale(start), ok, traced)
              for start, seconds, ok, traced in timings]
    # Percentiles are over single attempts.  A failed attempt ranks as
    # slower than every answered one and reads as the slowest answered time.
    answered = sorted(seconds for seconds, ok, _ in scaled if ok)
    ordered = answered + [max(answered, default=0.0)] * (n - len(answered))
    summary = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "ops": n, "failed": failed, "error_rate": failed / n,
        "kernel_ms": 1e3 * clock.median_kernel(),
        "raised": raised, "mismatched": mismatched,
    }
    if tracer is None:
        setup_s = statistics.median(seconds * clock.scale(start)
                                    for start, seconds in setups)
        metrics = {
            "setup_s": (import_s * clock.scale(import_start) + setup_s, "s"),
            "ops_per_s": (len(answered) / sum(s for s, _, _ in scaled),
                          "1/s"),
            "op_p50_ms": (1e3 * ordered[rank(n, 0.5)], "ms"),
            "op_p90_ms": (1e3 * ordered[rank(n, 0.9)], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, traced_rounds, SETUP_REPEATS,
                                clock.scale)
        rates = {t: sum(1 for _, ok, x in scaled if x == t and ok)
                 / sum(s for s, _, x in scaled if x == t)
                 for t in (False, True)}
        metrics["trace.overhead_pct"] = (
            100.0 * (1 - rates[True] / rates[False]), "%")
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
    return {"summary": summary, "correct": not mismatched, "attempted": n,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def print_result(result) -> None:
    summary = result["summary"]
    print(f"# {summary['workload']} seed={summary['seed']} "
          f"rounds={summary['rounds']} ops={summary['ops']} "
          f"failed={summary['failed']} error_rate={summary['error_rate']:.4f} "
          f"kernel_ms={summary['kernel_ms']:.3f}")
    for label, count in {**summary["raised"], **summary["mismatched"]}.items():
        print(f"#   failed x{count}: {label}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="omit to run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed; confirm claims on {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=None,
                        help="busy time to measure; default run_seconds "
                             "from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.workload is None:
        return run_all(args)
    try:
        result = run_workload(args)
    except SelfCheckError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
