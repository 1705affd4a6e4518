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
and no solution at all when it is not, each decided at ``RANK_TOL``.

The theory takes the coefficient of x(t) to be identically one, so all
inputs are normalized internally: K, a_j and f are divided by a0(t)
(tilde quantities above).  For problems with a0 == 1 the formulas act
on the raw data.

Numerics: every integral is the composite trapezoid rule on a uniform
tensor grid.  Every function takes ``lam`` and defaults it to
``problem.lam``, and an optional shared ``cfg``, which must have been
built for the same problem.  F and the b_j need only the lam-free
integrals I_n(z_i) = int K_n(z_i, s) v(s) ds for v in f~ and every a~_j,
and those follow a recursion on vectors: the diagonal of K_n is zero for
n >= 2, so I_{n+1} = dz D I_n with D = K - diag(K)/2 (one more endpoint
correction for I_2), the same discrete quantities composed tables give.
K enters only as the product of the 1+m rows with K^T.  A kernel whose
formula is a sum of r products u_r(t) v_r(s) (a degenerate kernel, read
off its ``source`` and checked against its callable) gives that product
as r running sums: O(terms * r * n) work and no n x n array.  Any other
kernel is tabulated once on at most ``TABLE_MAX_NODES`` nodes, and the
recursion costs O(terms * n^2).  At each lam, F and the b_j are sums of
lam^n I_n, O(terms * n) work, and nothing is kept per lam.  Only the
point evaluator ``resolvent(t, s)`` tabulates K and composes the tables
K_n, when first called, and keeps the resolvent table of the last lam it
was asked for.  Either series stops at the first term below
``TERM_TOLERANCE`` (1e-12), measured by |lam|^n max|I_n| or
|lam|^n max|K_n|, or at ``MAX_TERMS`` (40) terms with a
:class:`TruncationWarning`.  Off-grid evaluations interpolate linearly
(bilinear on the triangle), but f~ and a~_j are always evaluated
exactly, so lam = 0 results carry no quadrature error at all.
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

TERM_TOLERANCE = 1e-12
MAX_TERMS = 40
DEFAULT_QUAD_DENSITY = 512  # tensor-grid nodes per unit interval length
RANK_TOL = 1e-10  # classify's rank, pivot and orthogonality tolerance
COMPOSE_PANEL_ROWS = 64  # rows per matrix product in _compose
TABLE_MAX_NODES = 4097  # largest grid a kernel table is built on (134 MB)
SPLIT_TOL = 1e-12  # relative agreement a kernel split must show with the callable


class TruncationWarning(UserWarning):
    """The series budget ran out before the term tolerance was met."""


def _compose(first: np.ndarray, prev: np.ndarray, dz: float) -> np.ndarray:
    """One kernel composition step on a uniform grid (trapezoid weights).

    ``first`` and ``prev`` are lower-triangular tables, so rows ``r0:r1``
    of their product need only columns and inner indices below ``r1``:
    computed by row panels, that is about a third of a full product's
    work, and the upper triangle is exactly zero.  The endpoint
    half-weights of the trapezoid rule appear as the two corrections,
    applied panel by panel to the same entries.
    """
    npts = first.shape[0]
    dp = np.diagonal(prev)
    df = np.diagonal(first)
    product = np.zeros_like(first)
    for r0 in range(0, npts, COMPOSE_PANEL_ROWS):
        r1 = min(r0 + COMPOSE_PANEL_ROWS, npts)
        f = first[r0:r1, :r1]
        blk = f @ prev[:r1, :r1]
        blk -= 0.5 * (f * dp[:r1] + df[r0:r1, None] * prev[r0:r1, :r1])
        blk *= dz
        product[r0:r1, :r1] = blk
    return product


def _first_table(problem: Problem, z: np.ndarray, density: int) -> np.ndarray:
    """Normalized kernel K(t,s)/a0(t) tabulated on the lower triangle.

    A grid of more than ``TABLE_MAX_NODES`` nodes (``density`` per unit
    length) is refused before anything is allocated.
    """
    npts = z.shape[0]
    if npts > TABLE_MAX_NODES:
        raise ValueError(
            f"a kernel table at quad_density {density} has {npts} nodes and needs "
            f"{8 * npts * npts / 1e6:.0f} MB; the limit is {TABLE_MAX_NODES} nodes"
        )
    rows, cols = np.tril_indices(npts)
    table = np.zeros((npts, npts))
    table[rows, cols] = problem.kernel(z[rows], z[cols]) / problem.a0(z)[rows]
    return table


def _running_sums(factors: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """``rows @ K~.T`` for the lower-triangular K~(z_i, z_j) = sum_r U[r, i] V[r, j].

    Row i needs sum_{j <= i} V[r, j] rows[:, j] only: one running sum per r.
    """
    U, V = factors
    out = np.zeros_like(rows)
    for u, v in zip(U, V):
        out += u * np.cumsum(v * rows, axis=1)
    return out


def _kernel_split(problem: Problem, z: np.ndarray, data: np.ndarray):
    """The kernel's rank-r split on the grid, checked against the callable.

    Returns ``((U, V), diag, col0)``: the rows u_r/a0 and v_r on the grid,
    and the callable's K/a0 on the diagonal and on column 0.  None keeps
    the table: the kernel has no split (``ScalarFunction.separable``), a
    factor or the callable raises (the table then reports it as it always
    did), the split's values differ from the callable's by more than
    ``SPLIT_TOL`` max|K| on the diagonal, on column 0 or on the last row,
    or the running sums of ``data`` on the last row differ from the direct
    sums by more than ``SPLIT_TOL`` times the sums of magnitudes.
    """
    pairs = problem.kernel.separable
    if pairs is None:
        return None
    try:
        a0 = problem.a0(z)
        factors = (np.array([u(z) for u, _ in pairs]) / a0, np.array([v(z) for _, v in pairs]))
        diag = problem.kernel(z, z) / a0
        col0 = problem.kernel(z, z[0]) / a0
        last = problem.kernel(z[-1], z) / a0[-1]
    except (ArithmeticError, ValueError, TypeError):
        return None
    U, V = factors
    scale = SPLIT_TOL * max(np.abs(diag).max(), np.abs(col0).max(), np.abs(last).max())
    sums_tol = SPLIT_TOL * (np.abs(data) @ np.abs(last))
    checks = [
        (np.sum(U * V, axis=0), diag, scale),
        (U.T @ V[:, 0], col0, scale),
        (U[:, -1] @ V, last, scale),
        (_running_sums(factors, data)[:, -1], data @ last, sums_tol),
    ]
    if not all(np.all(np.abs(split - exact) <= tol) for split, exact, tol in checks):
        return None
    return factors, diag, col0


def _lam(problem: Problem, lam: Optional[float]) -> float:
    """The lam a call works at: ``lam`` if given, else ``problem.lam``; must be finite."""
    lam = problem.lam if lam is None else float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    return lam


def _tilde(problem: Problem, ts) -> np.ndarray:
    """Rows f~, a~_1, ..., a~_m at the points ``ts``."""
    data = [problem.rhs(ts)] + [term.coeff(ts) for term in problem.loads]
    return np.array(data) / problem.a0(ts)


def _series(lam: float, count: int, terms: list) -> np.ndarray:
    """lam terms[0] + lam^2 terms[1] + ... + lam^count terms[count - 1]."""
    total = np.zeros_like(terms[0])
    for n in range(1, count + 1):
        total += lam**n * terms[n - 1]
    return total


class ResolventApprox:
    """Lam-free resolvent data on a tensor grid, shared by every lam.

    The grid has ``quad_density`` nodes per unit length.  The object
    keeps f~ and a~_j on the grid and at the load points, K on the
    diagonal and on column 0, and the integrals I_n against f~ and every
    a~_j, grown lazily by the vector recursion (at most ``MAX_TERMS``).
    The recursion needs K only as the product ``rows @ K.T``.  For a
    kernel of rank r (``ScalarFunction.separable``, checked against the
    callable by ``_kernel_split``) that product is r running sums, O(r n)
    work, and no table is built; otherwise the object tabulates K itself,
    on at most ``TABLE_MAX_NODES`` nodes.  The tables K_n exist only
    once the point evaluator has asked for them.  Each method takes the
    lam it works at (default ``problem.lam``); per lam nothing is kept
    but the resolvent table of the last lam :meth:`resolvent_table` built.
    """

    def __init__(self, problem: Problem, quad_density: int = DEFAULT_QUAD_DENSITY):
        if quad_density < 1:
            raise ValueError("quad_density must be at least 1")
        self.problem = problem
        span = problem.T - problem.t0
        intervals = max(1, math.ceil(quad_density * span))
        self.z = np.linspace(problem.t0, problem.T, intervals + 1)
        self.dz = span / intervals
        self.quad_density = quad_density
        self._data = _tilde(problem, self.z)
        self._load_data = _tilde(problem, problem.load_points)
        self._tables: list[np.ndarray] = []
        self._tables_max: list[float] = []
        self._last_resolvent: Optional[tuple[float, np.ndarray]] = None
        split = _kernel_split(problem, self.z, self._data)
        if split is None:
            first = self.kernel_table(1)
            split = None, np.diagonal(first), first[:, 0]
        self._factors, self._diag, self._col0 = split
        data = self._data
        first_ints = self._product(data) - 0.5 * (self._col0 * data[:, :1] + self._diag * data)
        self._ints = [self.dz * first_ints]
        self._ints_max = [float(np.abs(self._ints[0]).max())]

    def kernel_table(self, n: int) -> np.ndarray:
        """Table of the n-th iterated kernel (1-based) on the tensor grid, built on first use."""
        if n < 1:
            raise ValueError("iterated-kernel order must be at least 1")
        while len(self._tables) < n:
            if self._tables:
                nxt = _compose(self._tables[0], self._tables[-1], self.dz)
            else:
                nxt = _first_table(self.problem, self.z, self.quad_density)
            self._tables.append(nxt)
            self._tables_max.append(float(np.abs(nxt).max()))
        return self._tables[n - 1]

    def _product(self, rows: np.ndarray) -> np.ndarray:
        """``rows @ K.T``: running sums for a split kernel, else the product with the table."""
        if self._factors is None:
            return rows @ self._tables[0].T
        return _running_sums(self._factors, rows)

    def _grow_integrals(self) -> None:
        """Append I_{n+1}: one trapezoid Volterra step on the rows of I_n.

        K_n has a zero diagonal for n >= 2, so I_n = dz K_n w, where w is
        the data with its first entry at half weight; then
        I_2 = dz^2 (D K w - K (diag(K) w) / 2) and I_{n+1} = dz D I_n with
        D = K - diag(K)/2.  Rows are vectors, so K acts as ``@ K.T``.
        """
        diag = self._diag
        if len(self._ints) == 1:
            w = self._data.copy()
            w[:, 0] *= 0.5
            kw = self._product(w)
            nxt = self._product(kw) - 0.5 * diag * kw - 0.5 * self._product(diag * w)
            nxt *= self.dz**2
        else:
            prev = self._ints[-1]
            nxt = self.dz * (self._product(prev) - 0.5 * diag * prev)
        self._ints.append(nxt)
        self._ints_max.append(float(np.abs(nxt).max()))

    def _count(self, lam: float, bound) -> tuple[int, bool]:
        """First n with |lam|^n bound(n) below ``TERM_TOLERANCE``, or ``MAX_TERMS``."""
        if lam == 0.0:
            return 1, True
        for n in range(1, MAX_TERMS + 1):
            if abs(lam) ** n * bound(n) < TERM_TOLERANCE:
                return n, True
        warnings.warn(
            f"resolvent series truncated at {MAX_TERMS} terms above "
            f"tolerance {TERM_TOLERANCE:g} (lam={lam:g})",
            TruncationWarning,
            stacklevel=4,
        )
        return MAX_TERMS, False

    def _int_bound(self, n: int) -> float:
        while len(self._ints) < n:
            self._grow_integrals()
        return self._ints_max[n - 1]

    def _table_bound(self, n: int) -> float:
        self.kernel_table(n)
        return self._tables_max[n - 1]

    def terms_needed(self, lam: float) -> tuple[int, bool]:
        """Series length of F and the b_j at ``lam``, counted by |lam|^n max|I_n|.

        Returns (count, converged); ``converged`` is False, with a
        :class:`TruncationWarning`, when the ``MAX_TERMS`` budget ran out first.
        """
        return self._count(lam, self._int_bound)

    def resolvent_table(self, lam: Optional[float] = None) -> np.ndarray:
        """Resolvent values on the tensor grid (lower triangle); kept for the last lam.

        Its terms are counted by |lam|^n max|K_n|, which does not vanish
        with the data as the I_n can.
        """
        lam = _lam(self.problem, lam)
        count, _ = self._count(lam, self._table_bound)
        if self._last_resolvent is None or self._last_resolvent[0] != lam:
            self._last_resolvent = None  # free the old table before the new one
            self.kernel_table(count)  # lam = 0 counts one term without reading K
            self._last_resolvent = (lam, _series(lam, count, self._tables))
        return self._last_resolvent[1]

    def reduced_tables(self, lam: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
        """Integral parts of F and of every b_j on the tensor grid.

        Returns ``(F_int, B_int)`` with ``F_int[i] = int R(z_i, s) f~(s) ds``
        and ``B_int[j, i]`` the same against a~_j.  The integrals are linear
        in R, so this is the series of the I_n: O(terms * n) work and no
        resolvent table.  The lam-free parts (f~ and a~_j themselves) are
        added at evaluation time.
        """
        lam = _lam(self.problem, lam)
        ints = _series(lam, self.terms_needed(lam)[0], self._ints)
        return ints[0], ints[1:]

    def _integrals(self, table: np.ndarray) -> np.ndarray:
        """``_volterra_integrals`` of ``table`` against f~ and every a~_j, one row each.

        The reference the recursion is tested against, on the tables K_n.
        """
        return np.array([self._volterra_integrals(table, v) for v in self._data])

    def _volterra_integrals(self, R: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Row-wise trapezoid of int_{t0}^{z_i} R(z_i, s) v(s) ds."""
        full = R @ vals
        corr = 0.5 * (R[:, 0] * vals[0] + np.diagonal(R) * vals)
        return self.dz * (full - corr)


def _approx(problem: Problem, cfg: Optional[ResolventApprox]) -> ResolventApprox:
    """``cfg``, or a fresh one when it is None; refuses a cfg built for another problem."""
    if cfg is not None and cfg.problem is not problem:
        raise ValueError("cfg is a ResolventApprox of another problem")
    return ResolventApprox(problem) if cfg is None else cfg


def _check_order(problem: Problem, t: float, s: float) -> None:
    if not (problem.t0 <= s <= t <= problem.T):
        raise ValueError(
            f"need t0 <= s <= t <= T, got s={s:.6g}, t={t:.6g} "
            f"on [{problem.t0:.6g}, {problem.T:.6g}]"
        )


def iterated_kernel(problem: Problem, n: int, t: float, s: float) -> float:
    """n-th iterated kernel at (t, s), built bottom-up on a local grid.

    The composition integrals use the composite trapezoid rule on
    ceil(DEFAULT_QUAD_DENSITY * (t - s)) + 1 nodes spanning [s, t].
    """
    if n < 1:
        raise ValueError("iterated-kernel order must be at least 1")
    _check_order(problem, t, s)
    if n == 1:
        return float(problem.kernel(t, s) / problem.a0(t))
    if t == s:
        return 0.0
    q = max(1, math.ceil(DEFAULT_QUAD_DENSITY * (t - s)))
    first = _first_table(problem, np.linspace(s, t, q + 1), DEFAULT_QUAD_DENSITY)
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
    cfg = _approx(problem, cfg)
    _check_order(problem, t, s)
    table = cfg.resolvent_table(lam)
    return _triangle_interp(table, cfg.z, cfg.dz, t, s)


def _reduced(cfg: ResolventApprox, ts, tilde: np.ndarray, lam: Optional[float]):
    """F(t, lam) and every b_j(t, lam) at ``ts``, whose f~, a~_j are ``tilde``; ``B[j]`` is b_j."""
    F_int, B_int = cfg.reduced_tables(lam)
    F = tilde[0] + np.interp(ts, cfg.z, F_int)
    B = tilde[1:].copy()
    for j, row in enumerate(B_int):
        B[j] += np.interp(ts, cfg.z, row)
    return F, B


def reduced_coeffs(
    problem: Problem,
    t: float,
    cfg: Optional[ResolventApprox] = None,
    lam: Optional[float] = None,
) -> tuple[float, np.ndarray]:
    """Reduced-equation coefficients (F(t, lam), [b_j(t, lam)])."""
    cfg = _approx(problem, cfg)
    if not (problem.t0 <= t <= problem.T):
        raise ValueError(f"t={t:.6g} outside [{problem.t0:.6g}, {problem.T:.6g}]")
    F, b = _reduced(cfg, float(t), _tilde(problem, float(t)), lam)
    return float(F), b


def load_matrix(
    problem: Problem,
    cfg: Optional[ResolventApprox] = None,
    lam: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Load system (A, d): A_ij = delta_ij + b_j(t_i), d_i = F(t_i)."""
    cfg = _approx(problem, cfg)
    d, B = _reduced(cfg, problem.load_points, cfg._load_data, lam)
    return np.eye(len(problem.loads)) + B.T, d


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
) -> SolvabilityReport:
    """Solvability of the loaded equation at ``lam`` (default: the problem's).

    Full rank of the load matrix gives a unique solution (the load
    vector is solved for); otherwise the right-hand side is tested for
    orthogonality against the null space of the adjoint: orthogonal
    means a parametric family, anything else means no solution.
    """
    lam_val = _lam(problem, lam)
    m1 = len(problem.loads)
    if m1 == 0:  # nothing to tabulate, but a cfg of another problem is still refused
        if cfg is not None:
            _approx(problem, cfg)
        return SolvabilityReport(
            lam=lam_val,
            det=1.0,
            rank=0,
            classification="unique",
            load_values=np.empty(0),
        )

    A, d = load_matrix(problem, cfg, lam)
    report = rank_and_det(A, RANK_TOL)
    if report.rank == m1:
        c = gauss_jordan(A, d, tol_singular=RANK_TOL)
        return SolvabilityReport(
            lam=lam_val,
            det=report.det,
            rank=report.rank,
            classification="unique",
            load_values=c,
        )

    basis = nullspace(A.T, RANK_TOL)
    d_norm = float(np.linalg.norm(d))
    defect = float(max(abs(basis @ d) / d_norm)) if d_norm else 0.0
    family = defect <= RANK_TOL
    return SolvabilityReport(
        lam=lam_val,
        det=report.det,
        rank=report.rank,
        classification="family" if family else "no_solution",
        family_dim=m1 - report.rank if family else 0,
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
    ts = np.asarray(t_samples, dtype=float)
    if not np.all((ts >= problem.t0) & (ts <= problem.T)):
        raise ValueError("sample points must lie inside the problem interval")
    cfg = _approx(problem, cfg)
    report = classify(problem, cfg, lam)
    if report.classification != "unique":
        raise SolvabilityError(
            f"load system is not uniquely solvable ({report.label})"
        )

    with warnings.catch_warnings():
        if problem.loads:  # classify has warned of a truncated series already
            warnings.simplefilter("ignore", TruncationWarning)
        values, B = _reduced(cfg, ts, _tilde(problem, ts), lam)
    for b_j, c_j in zip(B, report.load_values):
        values = values - b_j * c_j
    return values


def solvability_sweep(
    problem: Problem,
    lambdas,
    cfg: Optional[ResolventApprox] = None,
) -> list[SolvabilityReport]:
    """Classify at every lam in ``lambdas``, reusing one set of kernel tables."""
    cfg = _approx(problem, cfg)
    return [classify(problem, cfg, lam=lam) for lam in lambdas]


def sweep_csv(reports) -> str:
    """CSV rows ``lambda,detA,rank,classification,orthogonality_defect``."""
    lines = ["lambda,detA,rank,classification,orthogonality_defect"]
    for rep in reports:
        lines.append(
            f"{rep.lam:.5E},{rep.det:.5E},{rep.rank},{rep.label},"
            f"{rep.orthogonality_defect:.5E}"
        )
    return "\n".join(lines) + "\n"
