"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload membership --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out FILE

Runs are untraced and use BENCHMARK.json's run_seconds; each is a fresh
process, run one after another.  The spread of a metric is the distance
between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(config: dict, workload: str, seed: int) -> dict:
    argv = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeat for several; default every workload")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    workloads = args.workload or [w["name"] for w in config["workloads"]]

    report = {}
    for workload in workloads:
        runs = [one_run(config, workload, seed) for seed in args.seeds]
        report[workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": {name: summarize([r["metrics"][name]["value"]
                                         for r in runs])
                        for name in runs[0]["metrics"]},
        }
        print(f"{workload}: correct={report[workload]['correct']} "
              f"attempted={report[workload]['attempted']} "
              f"failed={report[workload]['failed']}")
        for name, s in report[workload]["metrics"].items():
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f" bound {bound:.2f} " + ("ok" if s["spread"] < bound / 3
                                          else "WIDE"))
            print(f"  {name:<44} median {s['median']:<14.6g} "
                  f"spread {s['spread']:.4f}{verdict}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
