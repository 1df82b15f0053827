"""Spans around the benchmark's own calls into fr1tass, and the per-layer
metrics computed from them.

A span is recorded only where the benchmark calls a public function of a
runtime module, so tracing changes nothing inside the package.  Span names
are `<layer>.<function>`; the benchmark's own op and set-up spans use the
layer name `bench`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("bench", "gallery", "transform", "model", "simulate", "oracle", "cli")
TRANSFORM_OPS = ("remove_erasing", "as_to_et", "et_to_as", "complement",
                 "intersect", "union", "intersect_sequential",
                 "union_sequential")
SETUP = "setup"
CHECK = "check"  # op id of the desk check that follows set-up


class NullTracer:
    """Calls straight through; used for every untraced round."""

    def call(self, name, fn, *args, counts=None):
        return fn(*args)


class Tracer:
    """Keeps spans in memory: [name, start, end, parent, op, counts].

    `counts` turns a call's result into counters recorded on its span, so
    counts are taken at the same boundary as the time.
    """

    def __init__(self):
        self.spans: list = []
        self.op = SETUP
        self._stack: list = []

    def call(self, name, fn, *args, counts=None):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            span[2] = time.perf_counter()
            span[1] = start
            self._stack.pop()
        if counts is not None:
            span[5] = counts(result)
        return result

    def self_times(self) -> list:
        """Each span's duration minus the part its child spans cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        rows = [{"name": name, "start": start, "end": end, "parent": parent,
                 "op": op, "self": own, "counts": counts}
                for (name, start, end, parent, op, counts), own
                in zip(self.spans, self.self_times())]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


def run_counts(result) -> dict:
    return {"steps": result.total_steps, "sweeps": result.total_sweeps,
            "loops": int(result.verdict.value == "RejectedLoop")}


def size_counts(m) -> dict:
    return {"states": len(m.states), "tape_letters": len(m.tape),
            "transitions": len(m.transitions)}


def layer_metrics(tracer: Tracer, traced_rounds: int, traced_setups: int,
                  scale) -> dict:
    """Per-layer metrics, as {name: (value, unit)}.

    `scale(start)` converts a time measured from `start` to reference
    speed (see speed.py).
    Times are means over every traced call, set-up and desk check
    included, so a layer a workload only reaches outside its ops still
    reports a measured time.
    Counts are per timed round, and rounds repeat the same ops, so they
    repeat exactly from run to run.  Construction sizes are summed over
    one set-up of the desk, which builds every construction once.
    """
    durations = defaultdict(list)
    per_round = defaultdict(float)
    per_setup = defaultdict(float)
    totals = defaultdict(float)
    for name, start, end, _, op, counts in tracer.spans:
        durations[name].append((end - start) * scale(start))
        if counts is None:
            continue
        for key, value in counts.items():
            totals[name, key] += value
            if op == SETUP:
                per_setup[name, key] += value / traced_setups
            elif op != CHECK:
                per_round[name, key] += value / traced_rounds

    def mean(name, scale):
        values = durations[name]
        return scale * sum(values) / len(values) if values else 0.0

    def rate(names, key):
        busy = sum(sum(durations[n]) for n in names)
        return sum(totals[n, key] for n in names) / busy if busy else 0.0

    def calls_per_round(name):
        return sum(1 for span in tracer.spans
                   if span[0] == name and span[4] not in (SETUP, CHECK)
                   ) / traced_rounds

    run, enum, equal = ("simulate.run", "oracle.enumerate_accepted",
                        "oracle.equivalent_up_to")
    out = {
        "simulate.run_calls": (calls_per_round(run), "count"),
        "simulate.call_us": (mean(run, 1e6), "us"),
        "simulate.steps": (per_round[run, "steps"], "count"),
        "simulate.sweeps": (per_round[run, "sweeps"], "count"),
        "simulate.steps_per_s": (rate([run], "steps"), "1/s"),
        "simulate.loop_verdicts": (per_round[run, "loops"], "count"),
        "oracle.enumerate_ms": (mean(enum, 1e3), "ms"),
        "oracle.equivalent_ms": (mean(equal, 1e3), "ms"),
        "oracle.words_decided": (per_round[enum, "words"]
                                 + per_round[equal, "words"], "count"),
        "oracle.words_per_s": (rate([enum, equal], "words"), "1/s"),
        "oracle.accepted_words": (per_round[enum, "accepted"], "count"),
    }
    for op in TRANSFORM_OPS:
        name = "transform." + op
        out[name + ".ms"] = (mean(name, 1e3), "ms")
        for key in ("states", "tape_letters", "transitions"):
            out[f"{name}.{key}"] = (per_setup[name, key], "count")
    out["model.parse_ms"] = (mean("model.parse_machine", 1e3), "ms")
    out["model.parse_transitions_per_s"] = (
        rate(["model.parse_machine"], "transitions"), "1/s")
    out["model.serialize_ms"] = (mean("model.serialize_machine", 1e3), "ms")
    out["cli.main_ms"] = (mean("cli.main", 1e3), "ms")
    out["gallery.build_ms"] = (mean("gallery.build", 1e3), "ms")

    own = defaultdict(float)
    wall = 0.0
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        own[span[0].split(".", 1)[0]] += self_time
        if span[3] is None:
            wall += span[2] - span[1]
    for layer in LAYERS:
        out[layer + ".self_pct"] = (100.0 * own[layer] / wall, "%")
    return out
