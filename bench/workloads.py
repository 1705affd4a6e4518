"""The benchmark's workloads: inputs, one operation, and its checks.

Each workload builds its inputs from the seed, runs one operation
(``run``), and checks the operation's output against the reference
fixtures recorded in ``fixtures/`` (``check``).  README.md says why each
workload was chosen and which layers it exercises or bypasses.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import lvie
import lvie.cli
import lvie.study

from tracing import Tracer, counted_problem

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
REFERENCE = json.loads((FIXTURES / "reference.json").read_text(encoding="utf-8"))
PROBE = HERE / "probe.py"
# The package re-exports a function named ``resolvent`` over its submodule.
RESOLVENT = importlib.import_module("lvie.resolvent")

# An error may shrink freely but may grow by at most this share of its
# reference before the operation counts as failed.
ERR_RTOL = 0.05
SUBPROCESS_TIMEOUT_S = 60


def _probe(env, *args) -> float:
    """Seconds a fresh interpreter reports for ``probe.py args``."""
    proc = subprocess.run(
        [sys.executable, str(PROBE), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe {args} failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def _err_problems(label: str, err: float, reference: float) -> list[str]:
    if not math.isfinite(err) or err > reference * (1 + ERR_RTOL):
        return [f"{label} {err!r} exceeds reference {reference!r} by more than {ERR_RTOL:.0%}"]
    return []


class ProblemWorkload:
    """Set-up shared by the in-process workloads: build and validate a problem."""

    def __init__(self, name: str, env: dict, seed: int):
        self.name = name
        self.env = env
        self.ref = REFERENCE[name]

    def load_problem(self):
        return lvie.builtin_problem(self.ref["builtin"])

    def setup(self) -> None:
        self.problem = self.load_problem()
        report = lvie.validate_problem(self.problem)
        if not report:
            raise RuntimeError(f"{self.name}: invalid problem: {report.violation}")

    def setup_probe(self) -> float:
        return _probe(self.env, "builtin", self.ref["builtin"])

    def setup_layers(self) -> dict[str, float]:
        """Layer times measured once per traced run, outside the operations."""
        return {}


class ConfigLadder(ProblemWorkload):
    """A structured convergence ladder, ``run_study(p, h0, levels, "structured")``,
    on a problem file parsed by ``load_problem_config``."""

    LOADS = 5  # parses per traced run, for the config layer's median

    def __init__(self, name: str, env: dict, seed: int):
        super().__init__(name, env, seed)
        self.config = FIXTURES / self.ref["config"]
        self.h0 = Fraction(self.ref["h0"])
        self.levels = len(self.ref["N"])

    def load_problem(self):
        return lvie.load_problem_config(self.config)

    def setup_probe(self) -> float:
        return _probe(self.env, "config", str(self.config))

    def setup_layers(self) -> dict[str, float]:
        times = []
        for _ in range(self.LOADS):
            start = time.perf_counter()
            lvie.load_problem_config(self.config)
            times.append(time.perf_counter() - start)
        return {"config.load_problem_config.s": float(np.median(times))}

    def run(self, tracer: Tracer | None = None):
        problem = self.problem if tracer is None else counted_problem(tracer, self.problem)
        rows = lvie.study.run_study(problem, self.h0, self.levels, "structured")
        return tuple((row.N, row.eps, row.r) for row in rows)

    def check(self, rows) -> tuple[float, list[str]]:
        problems = []
        if [n for n, _, _ in rows] != self.ref["N"]:
            problems.append(f"node counts {[n for n, _, _ in rows]} != {self.ref['N']}")
        for (n, eps, _), ref in zip(rows, self.ref["eps"]):
            problems += _err_problems(f"eps at N={n}", eps, ref)
        return rows[-1][1], problems

    def expected_counts(self, tree) -> dict[str, int]:
        return {"solvers.gauss_jordan.calls": self.levels}


class AnalyzeSweep(ProblemWorkload):
    """A fresh resolvent, a 41-point solvability sweep, and one semi-analytic solve."""

    LAMBDAS = 41
    LAMBDA_RANGE = (-10.0, 10.0)
    DENSITY = 512
    SOLVE_LAMBDA = 0.25
    SAMPLES = np.linspace(0.0, 1.0, 1025)

    def __init__(self, name: str, env: dict, seed: int):
        super().__init__(name, env, seed)
        # One draw per stratum keeps the work per sweep (the Neumann terms
        # each lambda needs) nearly the same from seed to seed.
        rng = random.Random(seed)
        lo, hi = self.LAMBDA_RANGE
        width = (hi - lo) / self.LAMBDAS
        self.lambdas = [lo + width * (k + rng.random()) for k in range(self.LAMBDAS)]

    def run(self, tracer: Tracer | None = None):
        problem = self.problem if tracer is None else counted_problem(tracer, self.problem)
        res = RESOLVENT
        cfg = res.ResolventApprox(problem, quad_density=self.DENSITY)
        reports = res.solvability_sweep(problem, self.lambdas, cfg)
        values = res.semi_analytic_solve(problem, self.SAMPLES, cfg, lam=self.SOLVE_LAMBDA)
        sweep = tuple(
            (r.lam, r.det, r.rank, r.label, None if r.load_values is None else r.load_values.tobytes())
            for r in reports
        )
        return sweep, values.tobytes()

    def check(self, outputs) -> tuple[float, list[str]]:
        sweep, values = outputs
        problems = [
            f"lambda={lam!r} classified {label}, expected {self.ref['label']}"
            for lam, _, _, label, _ in sweep
            if label != self.ref["label"]
        ]
        err = float(np.abs(np.frombuffer(values) - np.cos(self.SAMPLES)).max())
        return err, problems + _err_problems("semi-analytic error", err, self.ref["semi_analytic_err"])

    def expected_counts(self, tree) -> dict[str, int]:
        classify_calls = self.LAMBDAS + 1  # the sweep, then semi_analytic_solve
        terms = [tree.attrs[i].get("terms", 0) for i in np.flatnonzero(tree.where("resolvent.terms_needed"))]
        return {
            "solvers.rank_and_det.calls": classify_calls,
            "solvers.gauss_jordan.calls": classify_calls,
            "resolvent.compositions": max(terms, default=1) - 1,
            "problems.kernel.calls": 1,
        }


class CliStudyDense:
    """``lvie study`` on model2 with the dense Gauss-Jordan reference solver.

    Untraced runs (``--trace 0``) start one CLI process per operation.
    Traced runs call ``lvie.cli.main`` in-process for the untraced and the
    traced operations alike, so the overhead ratio compares like with like.
    """

    ARGV = ["study", "--builtin", "model2", "--h0", "1/8", "--levels", "7",
            "--solver", "dense", "--no-timing"]
    LEVELS = 7

    def __init__(self, name: str, env: dict, seed: int, in_process: bool = False):
        self.name = name
        self.env = env
        self.ref = REFERENCE[name]
        self.in_process = in_process
        self.stdout = (FIXTURES / self.ref["stdout"]).read_bytes()
        self.list_stdout = (FIXTURES / self.ref["list_problems_stdout"]).read_bytes()

    def setup(self) -> None:
        pass

    def setup_probe(self) -> float:
        start = time.perf_counter()
        proc = self._cli(["list-problems"])
        elapsed = time.perf_counter() - start
        if proc != (0, self.list_stdout):
            raise RuntimeError(f"lvie list-problems gave {proc!r}")
        return elapsed

    def setup_layers(self) -> dict[str, float]:
        imports = [_probe(self.env, "import-cli") for _ in range(3)]
        return {"cli.import_s": float(np.median(imports))}

    def _cli(self, argv) -> tuple[int, bytes]:
        proc = subprocess.run(
            [sys.executable, "-m", "lvie.cli", *argv],
            env=self.env,
            capture_output=True,
            timeout=SUBPROCESS_TIMEOUT_S,
            check=False,
        )
        return proc.returncode, proc.stdout

    def run(self, tracer: Tracer | None = None):
        if not self.in_process:
            return self._cli(self.ARGV)
        out = io.StringIO()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                original = lvie.cli.builtin_problem
                stack.callback(setattr, lvie.cli, "builtin_problem", original)
                lvie.cli.builtin_problem = lambda name: counted_problem(tracer, original(name))
                stack.enter_context(tracer.span("cli.main"))
            stack.enter_context(contextlib.redirect_stdout(out))
            code = lvie.cli.main(list(self.ARGV))
        return code, out.getvalue().encode()

    def check(self, outputs) -> tuple[float, list[str]]:
        code, stdout = outputs
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if stdout != self.stdout:
            problems.append("stdout differs from fixtures/" + self.ref["stdout"])
        try:
            err = float(stdout.decode().strip().splitlines()[-1].split(",")[2])
        except (IndexError, ValueError, UnicodeDecodeError):
            return math.inf, problems + ["no eps in the last stdout row"]
        return err, problems + _err_problems("eps", err, self.ref["eps"])

    def expected_counts(self, tree) -> dict[str, int]:
        # validate_problem samples the kernel once; each dense level once more.
        return {
            "solvers.gauss_jordan.calls": self.LEVELS,
            "problems.kernel.calls": 1 + self.LEVELS,
            "assembly.row_weights.calls": 0,
        }


WORKLOADS = {
    "config-sqrt-ladder": ConfigLadder,
    "analyze-sweep": AnalyzeSweep,
    "cli-study-dense": CliStudyDense,
}


def make(name: str, env: dict, seed: int, trace: bool):
    if name == "cli-study-dense":
        return CliStudyDense(name, env, seed, in_process=trace)
    return WORKLOADS[name](name, env, seed)
