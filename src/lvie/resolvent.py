"""Resolvent series, reduced equation, and solvability classification.

For the pure Volterra part of a loaded equation the resolvent kernel is
the Neumann series

    R(t, s, lam) = lam K_1(t,s) + lam^2 K_2(t,s) + ...,
    K_1 = K,   K_n(t,s) = int_s^t K_1(t,z) K_{n-1}(z,s) dz,

which converges for every lam when K is bounded.  Applying it to the
loaded equation moves all coupling into the load values c_j = x(t_j):

    x(t) = F(t, lam) - sum_j b_j(t, lam) c_j,
    F   = f~ + int R f~ ds,      b_j = a~_j + int R a~_j ds,

and collocating at the load points gives the small load system

    [delta_ij + b_j(t_i, lam)] c = [F(t_i, lam)].

Whether that matrix is regular decides everything: full rank means a
unique solution; otherwise the equation has a parametric family when
the right-hand side is orthogonal to the null space of the adjoint,
and no solution at all when it is not.

The theory takes the coefficient of x(t) to be identically one, so all
inputs are normalized internally: K, a_j and f are divided by a0(t)
(tilde quantities above).  For problems with a0 == 1 the formulas act
on the raw data.

Numerics: iterated kernels live as lower-triangular tables on a uniform
tensor grid and are composed by the composite trapezoid rule; the
series is truncated once the next term falls below ``term_tolerance``.
Off-grid evaluations interpolate linearly (bilinear on the triangle),
but the lam-independent parts (f~, a~_j) are always evaluated exactly,
so lam = 0 results carry no quadrature error at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import Problem
from .solvers import SolvabilityError, gauss_jordan, nullspace, rank_and_det

__all__ = [
    "ResolventApprox",
    "SolvabilityReport",
    "TruncationWarning",
    "iterated_kernel",
    "resolvent",
    "reduced_coeffs",
    "load_matrix",
    "classify",
    "semi_analytic_solve",
    "solvability_sweep",
    "sweep_csv",
]

DEFAULT_TERM_TOLERANCE = 1e-12
DEFAULT_MAX_TERMS = 40
DEFAULT_QUAD_DENSITY = 512  # tensor-grid nodes per unit interval length


class TruncationWarning(UserWarning):
    """The series budget ran out before the term tolerance was met."""


def _compose(first: np.ndarray, prev: np.ndarray, dz: float) -> np.ndarray:
    """One kernel composition step on a uniform grid (trapezoid weights).

    ``first`` and ``prev`` are lower-triangular tables; the endpoint
    half-weights of the trapezoid rule appear as the two corrections.
    """
    d_prev = np.diagonal(prev)
    d_first = np.diagonal(first)
    return dz * (
        first @ prev
        - 0.5 * (first * d_prev[None, :] + d_first[:, None] * prev)
    )


def _first_table(problem: Problem, z: np.ndarray) -> np.ndarray:
    """Normalized kernel K(t,s)/a0(t) tabulated on the lower triangle."""
    npts = z.shape[0]
    rows, cols = np.tril_indices(npts)
    table = np.zeros((npts, npts))
    table[rows, cols] = problem.kernel(z[rows], z[cols]) / problem.a0(z[rows])
    return table


class ResolventApprox:
    """Cached iterated-kernel tables plus truncation/quadrature settings.

    The tables are lam-independent, so one instance supports sweeps over
    many lam values; they grow lazily up to ``max_terms``.
    """

    def __init__(
        self,
        problem: Problem,
        lam: Optional[float] = None,
        term_tolerance: float = DEFAULT_TERM_TOLERANCE,
        max_terms: int = DEFAULT_MAX_TERMS,
        quad_density: int = DEFAULT_QUAD_DENSITY,
    ):
        if term_tolerance <= 0:
            raise ValueError("term_tolerance must be positive")
        if max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if quad_density < 1:
            raise ValueError("quad_density must be at least 1")
        self.problem = problem
        self.lam = problem.lam if lam is None else float(lam)
        self.term_tolerance = term_tolerance
        self.max_terms = max_terms
        self.quad_density = quad_density

        span = problem.T - problem.t0
        intervals = max(1, math.ceil(quad_density * span))
        self.z = np.linspace(problem.t0, problem.T, intervals + 1)
        self.dz = span / intervals
        self._tables = [_first_table(problem, self.z)]
        self._max_abs = [float(np.abs(self._tables[0]).max())]
        self._resolvent_cache: dict[float, tuple[np.ndarray, bool]] = {}
        self._reduced_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def kernel_table(self, n: int) -> np.ndarray:
        """Table of the n-th iterated kernel (1-based) on the tensor grid."""
        if n < 1:
            raise ValueError("iterated-kernel order must be at least 1")
        while len(self._tables) < n:
            nxt = _compose(self._tables[0], self._tables[-1], self.dz)
            self._tables.append(nxt)
            self._max_abs.append(float(np.abs(nxt).max()))
        return self._tables[n - 1]

    def terms_needed(self, lam: float) -> tuple[int, bool]:
        """Series length for ``lam``: the last included term is below tolerance.

        Returns (count, converged); ``converged`` is False when the
        ``max_terms`` budget ran out first.
        """
        if lam == 0.0:
            return 1, True
        for n in range(1, self.max_terms + 1):
            self.kernel_table(n)
            if abs(lam) ** n * self._max_abs[n - 1] < self.term_tolerance:
                return n, True
        return self.max_terms, False

    def resolvent_table(self, lam: Optional[float] = None) -> np.ndarray:
        """Resolvent values on the tensor grid (lower triangle)."""
        lam = self.lam if lam is None else float(lam)
        cached = self._resolvent_cache.get(lam)
        if cached is None:
            count, converged = self.terms_needed(lam)
            table = np.zeros_like(self._tables[0])
            for n in range(1, count + 1):
                table += lam**n * self.kernel_table(n)
            cached = (table, converged)
            self._resolvent_cache[lam] = cached
        table, converged = cached
        if not converged:
            warnings.warn(
                f"resolvent series truncated at {self.max_terms} terms above "
                f"tolerance {self.term_tolerance:g} (lam={lam:g})",
                TruncationWarning,
                stacklevel=2,
            )
        return table

    def reduced_tables(self, lam: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
        """Integral parts of F and of every b_j on the tensor grid.

        Returns ``(F_int, B_int)`` with ``F_int[i] = int R(z_i, s) f~(s) ds``
        and ``B_int[j, i]`` the same against a~_j.  The lam-free parts
        (f~ and a~_j themselves) are added at evaluation time.
        """
        lam = self.lam if lam is None else float(lam)
        cached = self._reduced_cache.get(lam)
        if cached is not None:
            return cached
        R = self.resolvent_table(lam)
        a0_vals = self.problem.a0(self.z)
        f_norm = self.problem.rhs(self.z) / a0_vals
        F_int = self._volterra_integrals(R, f_norm)
        B_int = np.empty((len(self.problem.loads), self.z.shape[0]))
        for j, term in enumerate(self.problem.loads):
            B_int[j] = self._volterra_integrals(R, term.coeff(self.z) / a0_vals)
        self._reduced_cache[lam] = (F_int, B_int)
        return F_int, B_int

    def _volterra_integrals(self, R: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Row-wise trapezoid of int_{t0}^{z_i} R(z_i, s) v(s) ds."""
        full = R @ vals
        corr = 0.5 * (R[:, 0] * vals[0] + np.diagonal(R) * vals)
        return self.dz * (full - corr)


def _check_order(problem: Problem, t: float, s: float) -> None:
    if not (problem.t0 <= s <= t <= problem.T):
        raise ValueError(
            f"need t0 <= s <= t <= T, got s={s:.6g}, t={t:.6g} "
            f"on [{problem.t0:.6g}, {problem.T:.6g}]"
        )


def iterated_kernel(
    problem: Problem,
    n: int,
    t: float,
    s: float,
    quad_density: int = DEFAULT_QUAD_DENSITY,
) -> float:
    """n-th iterated kernel at (t, s), built bottom-up on a local grid.

    The composition integrals use the composite trapezoid rule on
    ceil(quad_density * (t - s)) + 1 nodes spanning [s, t].
    """
    if n < 1:
        raise ValueError("iterated-kernel order must be at least 1")
    _check_order(problem, t, s)
    if n == 1:
        return float(problem.kernel(t, s) / problem.a0(t))
    if t == s:
        return 0.0
    q = max(1, math.ceil(quad_density * (t - s)))
    first = _first_table(problem, np.linspace(s, t, q + 1))
    table = first
    for _ in range(n - 1):
        table = _compose(first, table, (t - s) / q)
    return float(table[-1, 0])


def _triangle_interp(table: np.ndarray, z: np.ndarray, dz: float, t: float, s: float) -> float:
    """Piecewise-linear interpolation of a lower-triangular table at s <= t."""
    q = z.shape[0] - 1
    a = min(int((t - z[0]) / dz), q - 1)
    b = min(int((s - z[0]) / dz), q - 1)
    u = (t - z[a]) / dz
    w = (s - z[b]) / dz
    if b < a:
        return float(
            table[a, b] * (1 - u) * (1 - w)
            + table[a + 1, b] * u * (1 - w)
            + table[a, b + 1] * (1 - u) * w
            + table[a + 1, b + 1] * u * w
        )
    # Diagonal cell: the valid region is the half below the diagonal,
    # a triangle with vertices (a,a), (a+1,a), (a+1,a+1).
    return float(
        table[a, a] * (1 - u) + table[a + 1, a] * (u - w) + table[a + 1, a + 1] * w
    )


def resolvent(
    problem: Problem,
    t: float,
    s: float,
    cfg: Optional[ResolventApprox] = None,
    lam: Optional[float] = None,
) -> float:
    """Truncated resolvent series R(t, s, lam).

    Pass a shared :class:`ResolventApprox` to reuse kernel tables across
    calls; otherwise one is built on the spot.
    """
    if cfg is None:
        cfg = ResolventApprox(problem, lam=lam)
    _check_order(problem, t, s)
    table = cfg.resolvent_table(lam)
    return _triangle_interp(table, cfg.z, cfg.dz, t, s)


def reduced_coeffs(
    problem: Problem,
    t: float,
    cfg: Optional[ResolventApprox] = None,
    lam: Optional[float] = None,
) -> tuple[float, np.ndarray]:
    """Reduced-equation coefficients (F(t, lam), [b_j(t, lam)])."""
    if cfg is None:
        cfg = ResolventApprox(problem, lam=lam)
    if not (problem.t0 <= t <= problem.T):
        raise ValueError(f"t={t:.6g} outside [{problem.t0:.6g}, {problem.T:.6g}]")
    F_int, B_int = cfg.reduced_tables(lam)
    a0_t = problem.a0(t)
    F = problem.rhs(t) / a0_t + float(np.interp(t, cfg.z, F_int))
    b = np.array(
        [
            term.coeff(t) / a0_t + float(np.interp(t, cfg.z, B_int[j]))
            for j, term in enumerate(problem.loads)
        ]
    )
    return F, b


def load_matrix(
    problem: Problem,
    cfg: Optional[ResolventApprox] = None,
    lam: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Load system (A, d): A_ij = delta_ij + b_j(t_i), d_i = F(t_i)."""
    if cfg is None:
        cfg = ResolventApprox(problem, lam=lam)
    m1 = len(problem.loads)
    A = np.eye(m1)
    d = np.empty(m1)
    for i, term in enumerate(problem.loads):
        F, b = reduced_coeffs(problem, term.point, cfg, lam)
        A[i] += b
        d[i] = F
    return A, d


@dataclass(frozen=True)
class SolvabilityReport:
    """Classification of the load system at one lam.

    ``classification`` is ``"unique"``, ``"family"`` (with
    ``family_dim`` free parameters), or ``"no_solution"``;
    ``load_values`` holds the load vector in the unique case.
    """

    lam: float
    det: float
    rank: int
    classification: str
    family_dim: int = 0
    load_values: Optional[np.ndarray] = None
    orthogonality_defect: float = 0.0

    @property
    def label(self) -> str:
        if self.classification == "family":
            return f"family({self.family_dim})"
        return self.classification


def classify(
    problem: Problem,
    cfg: Optional[ResolventApprox] = None,
    lam: Optional[float] = None,
    tol: float = 1e-10,
) -> SolvabilityReport:
    """Solvability of the loaded equation at ``lam`` (default: the problem's).

    Full rank of the load matrix gives a unique solution (the load
    vector is solved for); otherwise the right-hand side is tested for
    orthogonality against the null space of the adjoint: orthogonal
    means a parametric family, anything else means no solution.
    """
    if cfg is None:
        cfg = ResolventApprox(problem, lam=lam)
    lam_val = cfg.lam if lam is None else float(lam)
    m1 = len(problem.loads)
    if m1 == 0:
        return SolvabilityReport(
            lam=lam_val,
            det=1.0,
            rank=0,
            classification="unique",
            load_values=np.empty(0),
        )

    A, d = load_matrix(problem, cfg, lam)
    report = rank_and_det(A, tol)
    if report.rank == m1:
        c = gauss_jordan(A, d, tol_singular=tol)
        return SolvabilityReport(
            lam=lam_val,
            det=report.det,
            rank=report.rank,
            classification="unique",
            load_values=c,
        )

    basis = nullspace(A.T, tol)
    d_norm = float(np.linalg.norm(d))
    if d_norm == 0.0:
        defect = 0.0
    else:
        defect = float(max(abs(basis @ d) / d_norm))
    if defect <= tol:
        return SolvabilityReport(
            lam=lam_val,
            det=report.det,
            rank=report.rank,
            classification="family",
            family_dim=m1 - report.rank,
            orthogonality_defect=defect,
        )
    return SolvabilityReport(
        lam=lam_val,
        det=report.det,
        rank=report.rank,
        classification="no_solution",
        orthogonality_defect=defect,
    )


def semi_analytic_solve(
    problem: Problem,
    t_samples,
    cfg: Optional[ResolventApprox] = None,
    lam: Optional[float] = None,
) -> np.ndarray:
    """Evaluate x(t) = F(t) - sum_j b_j(t) c_j at the sample points.

    Requires a uniquely solvable load system; raises
    :class:`SolvabilityError` otherwise.
    """
    if cfg is None:
        cfg = ResolventApprox(problem, lam=lam)
    report = classify(problem, cfg, lam)
    if report.classification != "unique":
        raise SolvabilityError(
            f"load system is not uniquely solvable ({report.label})"
        )

    ts = np.asarray(t_samples, dtype=float)
    if np.any(ts < problem.t0) or np.any(ts > problem.T):
        raise ValueError("sample points must lie inside the problem interval")
    F_int, B_int = cfg.reduced_tables(lam)
    a0_vals = problem.a0(ts)
    values = problem.rhs(ts) / a0_vals + np.interp(ts, cfg.z, F_int)
    for j, term in enumerate(problem.loads):
        b_j = term.coeff(ts) / a0_vals + np.interp(ts, cfg.z, B_int[j])
        values = values - b_j * report.load_values[j]
    return values


def solvability_sweep(
    problem: Problem,
    lambdas,
    cfg: Optional[ResolventApprox] = None,
    tol: float = 1e-10,
) -> list[SolvabilityReport]:
    """Classify at every lam in ``lambdas``, reusing one table cache."""
    if cfg is None:
        cfg = ResolventApprox(problem)
    return [classify(problem, cfg, lam=lam, tol=tol) for lam in lambdas]


def sweep_csv(reports) -> str:
    """CSV rows ``lambda,detA,rank,classification,orthogonality_defect``."""
    lines = ["lambda,detA,rank,classification,orthogonality_defect"]
    for rep in reports:
        lines.append(
            f"{rep.lam:.5E},{rep.det:.5E},{rep.rank},{rep.label},"
            f"{rep.orthogonality_defect:.5E}"
        )
    return "\n".join(lines) + "\n"
