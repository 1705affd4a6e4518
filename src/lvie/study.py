"""Solution representation and the convergence-study harness.

A solve returns the nodal values wrapped as a piecewise-linear
interpolant.  The harness runs a ladder of halved steps, measures the
sup-norm deviation from a known exact solution, computes empirical
convergence orders

    r = ln(eps_prev / eps_cur) / ln(h_prev / h_cur),

and renders the rows as CSV, a markdown table, or (ln h, ln eps) plot
data.  Steps are carried as exact rationals so halving never drifts
the floored node counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .assembly import assemble, check_dense_size, structured_solve
from .grid import Grid, build_grid
from .problems import Problem, ScalarFunction, check_inside
# gauss_jordan is unused here but stays: bench/tracing.py wraps it by name in this module.
from .solvers import gauss_jordan, solve_augmented  # noqa: F401

__all__ = [
    "PiecewiseLinearSolution",
    "StudyRow",
    "StudyError",
    "solve_collocation",
    "sup_error",
    "convergence_order",
    "run_study",
    "emit",
]

SOLVER_CHOICES = ("dense", "structured")


class StudyError(RuntimeError):
    """A study level failed; the message names the level and step."""


@dataclass(frozen=True)
class PiecewiseLinearSolution:
    """Nodal values on a grid, evaluable anywhere by linear interpolation."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError(
                f"{values.shape} values for {self.grid.n_nodes} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("nodal values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def evaluate(self, t):
        """Interpolant value(s) at ``t``; exact nodal values at nodes.

        A point outside the grid raises ``ValueError`` naming the first one ("t=nan outside [0, 1]").
        """
        t_arr = np.asarray(t, dtype=float)
        tau = self.grid.nodes
        check_inside(tau[0], tau[-1], t=t_arr)
        out = np.interp(t_arr, tau, self.values)
        return float(out) if np.ndim(t) == 0 else out

    __call__ = evaluate


def solve_collocation(p: Problem, h, solver: str = "structured") -> PiecewiseLinearSolution:
    """Build the grid, assemble, and solve at step ``h``.

    ``solver``: ``"dense"`` runs Gauss-Jordan on the materialized
    matrix, eliminating the system's one ``augmented`` array in place
    (the reference path, O(N^2) memory and O(N^3) time);
    ``"structured"`` (the default) runs the triangular-plus-load-columns
    path on a streaming system, which recomputes the weights panel by
    panel and never builds the matrix.  Both treat pivots below
    ``solvers.SINGULAR_TOL`` (1e-12, relative) as singular; the dense
    path refuses grids above ``assembly.DENSE_MAX_NODES`` nodes.
    """
    if solver not in SOLVER_CHOICES:
        raise ValueError(f"solver must be one of {SOLVER_CHOICES}")
    g = build_grid(p, h)
    if solver == "dense":
        x = solve_augmented(assemble(p, g, mode="dense").augmented)
    else:
        x = structured_solve(assemble(p, g))
    return PiecewiseLinearSolution(grid=g, values=x)


def sup_error(
    sol: PiecewiseLinearSolution,
    exact: ScalarFunction,
    samples_per_interval: int = 1,
) -> float:
    """Max-abs deviation of the interpolant from ``exact``.

    Sampled at all grid nodes plus ``samples_per_interval - 1``
    equispaced interior points per subinterval (default: nodes only).
    """
    if samples_per_interval < 1:
        raise ValueError("samples_per_interval must be at least 1")
    tau = sol.grid.nodes
    worst = float(np.abs(sol.values - exact(tau)).max())
    if samples_per_interval > 1:
        offsets = np.arange(1, samples_per_interval) / samples_per_interval
        pts = (tau[:-1, None] + np.diff(tau)[:, None] * offsets[None, :]).ravel()
        worst = max(worst, float(np.abs(sol.evaluate(pts) - exact(pts)).max()))
    return worst


def convergence_order(eps_prev: float, eps_cur: float, h_prev, h_cur) -> float:
    """Empirical order r = ln(eps_prev/eps_cur) / ln(h_prev/h_cur)."""
    h_prev = float(h_prev)
    h_cur = float(h_cur)
    if eps_prev <= 0 or eps_cur <= 0:
        raise ValueError("convergence order is undefined for non-positive errors")
    if h_prev <= 0 or h_cur <= 0 or h_prev == h_cur:
        raise ValueError("steps must be positive and distinct")
    return math.log(eps_prev / eps_cur) / math.log(h_prev / h_cur)


@dataclass(frozen=True)
class StudyRow:
    """One refinement level: step, unknown count, error, order, wall time."""

    h: Fraction
    N: int
    eps: float
    r: Optional[float]
    wall_time: float


def run_study(
    p: Problem,
    h0,
    levels: int,
    solver: str = "structured",
    samples_per_interval: int = 1,
) -> list[StudyRow]:
    """Solve at h0, h0/2, ..., h0/2^(levels-1) and tabulate errors.

    The problem must carry an exact solution.  Rows come back ordered by
    decreasing step.
    """
    if p.exact is None:
        raise ValueError("a convergence study requires a problem with an exact solution")
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if samples_per_interval < 1:
        raise ValueError("samples_per_interval must be at least 1")
    steps = [Fraction(h0) / 2**k for k in range(levels)]

    def at_level(k: int, work):
        """``work(steps[k])``; any failure is a :class:`StudyError` naming level k."""
        try:
            return work(steps[k])
        except Exception as err:
            raise StudyError(f"study level {k} (h={steps[k]}) failed: {err}") from err

    def solve(h) -> tuple[int, float]:
        sol = solve_collocation(p, h, solver)
        return sol.grid.last_index, sup_error(sol, p.exact, samples_per_interval)

    if solver == "dense":  # refuse an oversized ladder before its first O(N^3) solve
        at_level(levels - 1, lambda h: check_dense_size(build_grid(p, h).n_nodes))
    rows: list[StudyRow] = []
    for k, h in enumerate(steps):
        start = time.perf_counter()
        n_idx, eps = at_level(k, solve)
        wall = time.perf_counter() - start
        r = None
        if rows and eps > 0 and rows[-1].eps > 0:
            r = convergence_order(rows[-1].eps, eps, rows[-1].h, h)
        rows.append(StudyRow(h=h, N=n_idx, eps=eps, r=r, wall_time=wall))
    return rows


def emit(rows, fmt: str = "csv", include_timing: bool = True) -> str:
    """Render study rows as ``csv``, ``md`` (markdown), or ``plotdata``.

    CSV columns are ``h,N,eps,r,wall_time_s`` (r empty on the first
    row); numbers use scientific notation with 6 significant digits.
    Plot data is two whitespace-separated columns (ln h, ln eps) for
    log-log order fitting, and needs every eps > 0.
    ``include_timing=False`` drops the wall-time column for
    byte-deterministic output.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no study rows to emit")
    if fmt == "csv":
        header = "h,N,eps,r" + (",wall_time_s" if include_timing else "")
        lines = [header]
        for row in rows:
            r_txt = f"{row.r:.5E}" if row.r is not None else ""
            line = f"{float(row.h):.5E},{row.N},{row.eps:.5E},{r_txt}"
            if include_timing:
                line += f",{row.wall_time:.5E}"
            lines.append(line)
        return "\n".join(lines) + "\n"
    if fmt == "md":
        lines = ["| h | eps | r |", "| --- | --- | --- |"]
        for row in rows:
            r_txt = f"{row.r:.2f}" if row.r is not None else "-"
            lines.append(f"| {row.h} | {row.eps:.2E} | {r_txt} |")
        return "\n".join(lines) + "\n"
    if fmt == "plotdata":
        for row in rows:
            if row.eps <= 0:
                raise ValueError(f"plot data needs eps > 0; eps is {row.eps:.5E} at h={row.h}")
        lines = [
            f"{math.log(float(row.h)):.5E} {math.log(row.eps):.5E}" for row in rows
        ]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
