"""lvie benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The measurement happens in a fresh
child process (worker.py) with BLAS pinned to one thread and
``LVIE_THREADS`` unset, so every run is the plain single-threaded
baseline and the child's peak RSS belongs to this workload alone.  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The workloads and metrics
are described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("config-sqrt-ladder", "analyze-sweep", "cli-study-dense")
# The whole run, child included, must end within 180 s.
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("LVIE_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "lvie" / "__init__.py").is_file():
        print(f"error: no lvie sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if not lines:
        print("error: worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux: the largest of the worker and the
        # processes it started and waited for.
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
