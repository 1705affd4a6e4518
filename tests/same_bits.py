"""Same bits: every reproduced number of this tree against a base ref, with the standard library and numpy only.

Run from anywhere::

    python tests/same_bits.py [BASE]        # BASE defaults to HEAD

It checks ``BASE`` out with ``git worktree`` into a temporary directory,
computes one manifest in that tree and one in this working tree (each in a
subprocess that imports ``lvie`` from that tree's ``src``; the inputs are
this tree's files), prints every entry that differs, with its largest
relative difference, and exits 1 on any difference.  The manifest holds,
for model1, model2 and ``bench/fixtures/sqrt_ladder.cfg``:

* at h = 1/8 ... 1/512, the streaming system's ``a0_values``, ``rhs``,
  ``load_entries`` and every weight J_p^i (read through ``weights``, so
  from the lag table where there is one), the structured solution and its
  residual, the
  dense matrix, its Gauss-Jordan solution and that solution's residual,
  and the dense ``solve_collocation`` solution (the in-place elimination
  the CLI runs);
* a seeded 41-lambda ``solvability_sweep`` (det, rank, label, defect and
  load values), ``semi_analytic_solve`` at 101 points, and
  ``iterated_kernel`` (n = 1, 2, 3) and ``resolvent`` at a few points;
* at h = 1/64 ... 1/512, in both modes (dense assembly and the structured
  solve), the outcome of six failing problems, as ``type: message`` or
  ``none`` when the call returns, and the ``AssemblyError.row`` where there
  is one: model1 with the kernel ``sqrt(0.9 - t) * (t - 2*s^2)``,
  ``sqrt_ladder`` (a uniform mesh) with the difference kernel
  ``sqrt(0.6-(t-s))``, model1 with a callable a1 that is nan past 0.7,
  model1 at lambda = 1e308 with a callable kernel that is 1e10 past
  t = 0.5, whose weights overflow there, model1 at lambda = 1e308 with
  K = 155, whose pair sums of weights overflow, and lambda = 0, a0 = 1,
  f = 1e308 with the one load (0.5, 1 - 2t), whose pair sums of nodal
  values overflow;

plus the ``--no-timing`` stdout of ``lvie study`` and the stdout of
``lvie analyze`` on every problem.  Entries are compared byte for byte,
so -0.0 against 0.0 or another NaN payload is a difference too.
``python tests/same_bits.py --manifest OUT [TREE]`` writes the manifest of
the ``lvie`` on ``sys.path`` to ``OUT`` (an ``.npz`` file), once it has
checked that this ``lvie`` is the one in ``TREE``'s ``src`` (by default, the
checkout this script is in).  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SQRT_LADDER = ROOT / "bench" / "fixtures" / "sqrt_ladder.cfg"
FIXTURES = ROOT / "tests" / "fixtures"
STEPS = [Fraction(1, 2**k) for k in range(3, 10)]  # h = 1/8 ... 1/512
FAILING_STEPS = STEPS[3:]  # h = 1/64 ... 1/512
SWEEP_SEED = 20250
KERNEL_POINTS = [(0.9, 0.1), (0.5, 0.5), (0.7, 0.2), (1.0, 0.0)]
STUDIES = [
    ["--builtin", "model1", "--h0", "1/8", "--levels", "8"],
    ["--builtin", "model2", "--h0", "1/8", "--levels", "8"],
    ["--builtin", "model1", "--h0", "1/8", "--levels", "6", "--solver", "dense", "--format", "md"],
    ["--config", str(SQRT_LADDER), "--h0", "1/8", "--levels", "8", "--samples-per-interval", "3"],
]
ANALYSES = [
    ["--builtin", "model1", "--lambda-from", "-2", "--lambda-to", "2", "--steps", "41"],
    ["--builtin", "model2", "--lambda", "50"],
    ["--config", str(SQRT_LADDER), "--lambda-from", "-4", "--lambda-to", "4", "--steps", "9"],
    ["--config", str(FIXTURES / "family.cfg"), "--density", "64"],
    ["--config", str(FIXTURES / "no_solution.cfg"), "--density", "64"],
]


def _problems():
    from lvie import builtin_problem, load_problem_config

    return {"model1": builtin_problem("model1"), "model2": builtin_problem("model2"),
            "sqrt_ladder": load_problem_config(SQRT_LADDER)}


def _collocation(entries: dict, name: str, problem) -> None:
    from lvie import assemble, build_grid, gauss_jordan, solve_collocation, structured_solve

    for h in STEPS:
        key = f"{name}/h={h}"
        grid = build_grid(problem, h)
        system = assemble(problem, grid)
        x = structured_solve(system)
        entries[f"{key}/a0_values"] = system.a0_values
        entries[f"{key}/rhs"] = system.rhs
        entries[f"{key}/load_entries"] = system.load_entries
        entries[f"{key}/weights"] = system.weights(0, system.size, 0, system.size - 1)
        entries[f"{key}/x_structured"] = x
        entries[f"{key}/residual_structured"] = system.residual(x)
        dense = assemble(problem, grid, mode="dense")
        xd = gauss_jordan(dense.matrix, dense.rhs)
        entries[f"{key}/matrix"] = dense.matrix
        entries[f"{key}/x_gauss_jordan"] = xd
        entries[f"{key}/residual_dense"] = dense.residual(xd)
        entries[f"{key}/x_dense_solve"] = solve_collocation(problem, h, "dense").values


def _resolvent(entries: dict, name: str, problem) -> None:
    from lvie import ResolventApprox, iterated_kernel, resolvent, semi_analytic_solve, solvability_sweep

    cfg = ResolventApprox(problem)
    lams = np.random.default_rng(SWEEP_SEED).uniform(-3.0, 3.0, 41)
    reports = solvability_sweep(problem, lams, cfg)
    m = len(problem.loads)
    entries[f"{name}/sweep/det"] = [rep.det for rep in reports]
    entries[f"{name}/sweep/rank"] = [rep.rank for rep in reports]
    entries[f"{name}/sweep/defect"] = [rep.orthogonality_defect for rep in reports]
    entries[f"{name}/sweep/label"] = " ".join(rep.label for rep in reports)
    entries[f"{name}/sweep/load_values"] = [
        np.full(m, np.nan) if rep.load_values is None else rep.load_values for rep in reports
    ]
    ts = np.linspace(problem.t0, problem.T, 101)
    entries[f"{name}/semi_analytic_solve"] = semi_analytic_solve(problem, ts, cfg)
    entries[f"{name}/iterated_kernel"] = [
        [iterated_kernel(problem, n, t, s) for t, s in KERNEL_POINTS] for n in (1, 2, 3)
    ]
    entries[f"{name}/resolvent"] = [resolvent(problem, t, s, cfg) for t, s in KERNEL_POINTS]


def _failing_problems(problems: dict) -> dict:
    from lvie import ScalarFunction
    from lvie.problems import LoadTerm

    model1, a1 = problems["model1"], problems["model1"].loads[0].coeff
    nan_a1 = ScalarFunction(lambda t: np.where(t > 0.7, np.nan, a1(t)), 1)
    return {
        "model1_sqrt_kernel": dataclasses.replace(
            model1, kernel=ScalarFunction.from_expression("sqrt(0.9 - t) * (t - 2*s^2)", 2)),
        "sqrt_ladder_lag_kernel": dataclasses.replace(
            problems["sqrt_ladder"], kernel=ScalarFunction.from_expression("sqrt(0.6-(t-s))", 2)),
        "model1_nan_a1": dataclasses.replace(model1, loads=(LoadTerm(0.3, nan_a1), *model1.loads[1:])),
        "model1_weight_overflow": dataclasses.replace(
            model1, lam=1e308, kernel=ScalarFunction(lambda t, s: np.where(t > 0.5, 1e10, 1.0), 2)),
        "model1_sum_overflow": dataclasses.replace(model1, lam=1e308, kernel=ScalarFunction.constant(155.0, 2)),
        "pair_sum_overflow": dataclasses.replace(
            model1, lam=0.0, a0=ScalarFunction.constant(1.0), rhs=ScalarFunction.constant(1e308),
            loads=(LoadTerm(0.5, ScalarFunction.from_expression("1 - 2*t", 1)),)),
    }


def _failure_rows(entries: dict, name: str, problem) -> None:
    from lvie import AssemblyError, assemble, build_grid, structured_solve

    for h in FAILING_STEPS:
        grid = build_grid(problem, h)
        for mode, call in [("dense", lambda: assemble(problem, grid, mode="dense")),
                           ("structured", lambda: structured_solve(assemble(problem, grid)))]:
            key = f"failing/{name}/h={h}/{mode}"
            try:
                call()
            except Exception as err:  # every refusal is pinned, typed or not
                entries[f"{key}/outcome"] = f"{type(err).__name__}: {err}"
                if isinstance(err, AssemblyError):
                    entries[f"{key}/row"] = err.row
            else:
                entries[f"{key}/outcome"] = "none"


def _stdout(argv: list) -> str:
    from lvie.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def manifest() -> dict:
    """Every entry of the manifest of the ``lvie`` on ``sys.path``, by name."""
    entries = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncated series at large lambda
        problems = _problems()
        for name, problem in problems.items():
            _collocation(entries, name, problem)
            _resolvent(entries, name, problem)
        for name, problem in _failing_problems(problems).items():
            _failure_rows(entries, name, problem)
        for argv in STUDIES:
            entries["lvie study " + " ".join(argv)] = _stdout(["study", *argv, "--no-timing"])
        for argv in ANALYSES:
            entries["lvie analyze " + " ".join(argv)] = _stdout(["analyze", *argv])
    return {key: np.asarray(value) for key, value in entries.items()}


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| / max(|a|, |b|) over the entries that differ (inf where one is not finite)."""
    a, b = a.astype(float).ravel(), b.astype(float).ravel()
    differ = (a != b) & ~(np.isnan(a) & np.isnan(b))
    if not differ.any():
        return 0.0  # bits differ, values equal: -0.0 against 0.0, or a NaN payload
    a, b = a[differ], b[differ]
    with np.errstate(all="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return float(np.where(np.isfinite(rel), rel, np.inf).max())


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)", re.IGNORECASE)


def describe(base: np.ndarray, new: np.ndarray) -> str:
    """How ``new`` differs from ``base``: the largest relative difference, or what else changed."""
    if base.dtype.kind == "U" or new.dtype.kind == "U":
        a, b = str(base), str(new)
        if _NUMBER.sub("#", a) == _NUMBER.sub("#", b):
            nums = [np.array([float(x) for x in _NUMBER.findall(text)]) for text in (a, b)]
            return f"text numbers differ, largest relative difference {_rel_diff(*nums):.3g}"
        lines = zip(a.splitlines(keepends=True) + [""], b.splitlines(keepends=True) + [""])
        first = next(i for i, (x, y) in enumerate(lines) if x != y)
        return f"text differs from line {first + 1}"
    if base.shape != new.shape or base.dtype != new.dtype:
        return f"shape or type {base.dtype}{base.shape} -> {new.dtype}{new.shape}"
    return f"largest relative difference {_rel_diff(base, new):.3g}"


def compare(base: dict, new: dict) -> list[str]:
    """One line per entry that is not bit-identical in ``base`` and ``new``."""
    lines = []
    for key in sorted(base.keys() | new.keys()):
        if key not in new or key not in base:
            lines.append(f"{key}: only in {'base' if key in base else 'this tree'}")
        elif base[key].dtype != new[key].dtype or base[key].shape != new[key].shape or (
            base[key].tobytes() != new[key].tobytes()
        ):
            lines.append(f"{key}: {describe(base[key], new[key])}")
    return lines


def _tree_manifest(tree: Path, out: Path) -> dict:
    """The manifest of ``tree``'s ``src/lvie``, computed by this script in a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    script = str(Path(__file__).resolve())  # this tree's script and inputs, for both trees
    subprocess.run([sys.executable, script, "--manifest", str(out), str(tree)], cwd=tree, env=env, check=True)
    with np.load(out) as data:
        return {key: data[key] for key in data.files}


def _write_manifest(out: str, tree: str = str(ROOT)) -> None:
    import lvie

    src = Path(tree).resolve() / "src"
    if src not in Path(lvie.__file__).resolve().parents:
        sys.exit(f"same_bits: imported {lvie.__file__}, not the lvie of {src}")
    np.savez(out, **manifest())


def main(argv: list) -> int:
    if argv[:1] == ["--manifest"]:
        _write_manifest(*argv[1:3])
        return 0
    base_ref = argv[0] if argv else "HEAD"
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run(
        [*git, "rev-parse", "--verify", f"{base_ref}^{{commit}}"], capture_output=True, text=True,
    )
    if commit.returncode != 0:
        sys.exit(f"same_bits: not a commit: {base_ref}")
    with tempfile.TemporaryDirectory(prefix="same_bits-") as tmp:
        tmp = Path(tmp)
        worktree = tmp / "base"
        subprocess.run([*git, "worktree", "add", "--quiet", "--detach", str(worktree), commit.stdout.strip()],
                       check=True)
        try:
            base = _tree_manifest(worktree, tmp / "base.npz")
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", str(worktree)], check=False)
            subprocess.run([*git, "worktree", "prune"], check=False)
        new = _tree_manifest(ROOT, tmp / "new.npz")
    differences = compare(base, new)
    print("\n".join(differences) if differences else
          f"same bits: {len(new)} entries identical to {base_ref} ({commit.stdout.strip()[:12]})")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
