"""Measurement process for one benchmark run; started by run.py.

Runs the workload's operation in a closed loop (the next operation
starts when the previous one has finished) for the given number of
seconds, checks every output, and prints one JSON object as its last
stdout line.  Untraced runs (``--trace 0``) time the operations and
spread fresh-interpreter set-up probes evenly over the run.  Traced runs
(``--trace 1``) alternate an untraced and a traced operation, check that
both give bit-identical outputs, and report per-layer numbers from the
traced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_SAMPLES = 9
MIN_OPS = 3
MIN_TRACED_OPS = 2
# Stop starting operations after this long even if MIN_OPS is not reached,
# so a badly regressed program still ends within run.py's 170 s limit.
HARD_STOP_S = 120.0
MAX_LOGGED_FAILURES = 5


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _import_lvie():
    import lvie

    origin = Path(lvie.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"lvie imported from {origin}, not from {SRC}")


def _summary(label: str, samples: list[float]) -> str:
    """Median, sample count, and the highest percentile with >=10 samples beyond it."""
    n = len(samples)
    text = f"{label}: n={n} median={statistics.median(samples):.6f}s"
    ordered = sorted(samples)
    pct = 100 * (n - 10) // n if n >= 20 else None
    if pct:
        text += f" p{pct}={ordered[math.ceil(pct / 100 * n) - 1]:.6f}s"
    return text


class Run:
    """Outcome counters shared by both modes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errs: list[float] = []
        self.correct = True

    def op(self, tracer=None):
        """One checked operation; returns (seconds, outputs or None).

        With a tracer, the operation runs instrumented under a root span.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                outputs = self.workload.run()
            else:
                with tracing.instrument(tracer), tracer.span("op"):
                    outputs = self.workload.run(tracer)
        except Exception:  # noqa: BLE001 -- a raising op is a failed op, not a crash
            elapsed = time.perf_counter() - start
            self.fail("operation raised:\n" + traceback.format_exc())
            return elapsed, None
        elapsed = time.perf_counter() - start
        err, problems = self.workload.check(outputs)
        self.errs.append(err)
        if problems:
            self.fail("; ".join(problems))
        return elapsed, outputs

    def fail(self, message: str) -> None:
        self.failed += 1
        self.correct = False
        if self.failed <= MAX_LOGGED_FAILURES:
            _log(f"FAILED: {message}")

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.correct and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _due(done: int, total: int, elapsed: float, seconds: float) -> bool:
    """Whether the next of ``total`` samples spread evenly over the run is due."""
    return done < total and done <= total * elapsed / seconds


def timed(workload, seconds: float) -> dict:
    run = Run(workload)
    op_times: list[float] = []
    setup_times: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if _due(len(setup_times), SETUP_SAMPLES, elapsed, seconds):
            try:
                setup_times.append(workload.setup_probe())
            except (RuntimeError, ValueError, OSError, subprocess.SubprocessError) as err:
                run.correct = False
                _log(f"FAILED set-up probe: {err}")
                setup_times.append(math.inf)
            continue
        if elapsed >= seconds and len(op_times) >= MIN_OPS or elapsed >= HARD_STOP_S:
            break
        op_times.append(run.op()[0])
    _log(_summary("op_s", op_times))
    _log(_summary("setup_s", setup_times))
    return run.result(
        {
            "op_s": {"value": statistics.median(op_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "err_max": {"value": max(run.errs, default=math.inf), "unit": "1"},
            "ok_frac": {"value": (run.attempted - run.failed) / run.attempted, "unit": "frac"},
        }
    )


def traced(workload, seconds: float, trace_path: Path) -> dict:
    run = Run(workload)
    extra = workload.setup_layers()
    plain_times, traced_times, per_op = [], [], []
    mismatches: list[str] = []
    first_dump = None
    reference = None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(traced_times) < MIN_TRACED_OPS) and (
        time.perf_counter() - start < HARD_STOP_S
    ):
        elapsed, outputs = run.op()
        plain_times.append(elapsed)
        if reference is None:
            reference = outputs

        tracer = tracing.Tracer()
        elapsed, outputs = run.op(tracer)
        traced_times.append(elapsed)
        if outputs is not None and outputs != reference:
            run.fail("traced outputs differ from untraced outputs")
        tree = tracing.SpanTree.from_tracer(tracer)
        layers = tracing.layer_metrics(tree)
        broken, found = tracing.bookkeeping(tree, layers, workload.expected_counts(tree))
        for message in broken:
            run.fail(f"span bookkeeping: {message}")
        mismatches = mismatches or found
        per_op.append(layers)
        if first_dump is None:
            first_dump = {"levels": tracing.levels(tree), **tracer.dump()}

    for message in mismatches:
        _log(f"closed-form count mismatch: {message}")
    _log(_summary("untraced op_s", plain_times))
    _log(_summary("traced op_s", traced_times))
    metrics = {
        name: {"value": float(np.median([m[name] for m in per_op])), "unit": _unit(name)}
        for name in per_op[0]
    }
    for name in ("config.load_problem_config.s", "cli.import_s"):
        metrics[name] = {"value": extra.get(name, 0.0), "unit": "s"}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced_times) / statistics.median(plain_times) - 1,
        "unit": "frac",
    }
    metrics["trace.count_mismatches"] = {"value": len(mismatches), "unit": "count"}

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(
        json.dumps({"per_op": per_op, "mismatches": mismatches, "first_op": first_dump}),
        encoding="utf-8",
    )
    return run.result(metrics)


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("flops"):
        return "flop"
    if name.endswith("bytes"):
        return "B"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    _import_lvie()
    import workloads

    workload = workloads.make(args.workload, dict(os.environ), args.seed, bool(args.trace))
    workload.setup()
    if args.trace:
        trace_path = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        result = traced(workload, args.seconds, trace_path)
    else:
        result = timed(workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
