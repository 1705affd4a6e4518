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
(tilde quantities above).  ``ScalarFunction`` refuses a domain error or
a non-finite value of a0, f, a_j or K at its first failing point, and
``_labeled`` names the function ("a1 failed: ln of a non-positive value
at t=0").  Every division by a0 goes through ``_over_a0``, which refuses
a non-finite quotient (a zero a0 among them) with the ``EvalError`` of
``expressions.finite``, naming the quotient and its first point, as it
does a series term that overflows (``I_n``, K_n).

Numerics: every integral is the composite trapezoid rule on a uniform
tensor grid.  Every function takes ``lam`` (default ``problem.lam``) and
an optional shared ``cfg`` built for the same problem.  F and the b_j
need only the lam-free I_n(z_i) = int K_n(z_i, s) v(s) ds for v in f~
and every a~_j.  K_n has a zero diagonal for n >= 2, so they follow the
vector recursion I_{n+1} = dz D I_n, D = K - diag(K)/2, in which K acts
only as ``rows @ K.T``: r running sums when the kernel's formula is a
sum of r products u_r(t) v_r(s) (read off its ``source``, checked
against its callable), O(terms * r * n) work and no n x n array; else
one table of K on at most ``TABLE_MAX_NODES`` nodes, O(terms * n^2).
A sweep over L lams is one pass: the I_n grow once, to the term count
of the largest |lam|; every lam's count is read off the stored max|I_n|;
the L load systems are one stack, the sums of lam^n I_n on the 2m
grid columns np.interp reads at the m load points (each bracket's two
nodes), O(L * terms * m^2) work; and one ``rank_and_det`` call
eliminates them all.  ``classify`` and
``load_matrix`` are the sweep of one lam, and nothing per lam is kept.
At any other points F and the b_j are the rows of ``reduced_tables``,
the sums on every node, and np.interp.  Only the point evaluator
``resolvent(t, s)`` composes tables K_n, on first call, and keeps the
resolvent table of its last lam.  Either series stops at the first term
below ``TERM_TOLERANCE``, measured by |lam|^n max|I_n| or |lam|^n
max|K_n|, or at ``MAX_TERMS`` with a :class:`TruncationWarning` that
names the first caller outside lvie.  Off-grid values interpolate
linearly (bilinear on the triangle), but f~ and a~_j are evaluated
exactly, so lam = 0 results carry no quadrature error at all.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expressions import EvalError, finite
from .problems import Problem
# gauss_jordan is unused here but stays: bench/tracing.py wraps it by name in this module.
from .solvers import RANK_TOL, SolvabilityError, gauss_jordan, nullspace, rank_and_det  # noqa: F401

__all__ = [
    "ResolventApprox", "SolvabilityReport", "TruncationWarning", "iterated_kernel", "resolvent",
    "reduced_coeffs", "load_matrix", "classify", "semi_analytic_solve", "solvability_sweep",
    "sweep_csv",
]

TERM_TOLERANCE = 1e-12
MAX_TERMS = 40
DEFAULT_QUAD_DENSITY = 512  # tensor-grid nodes per unit interval length
COMPOSE_PANEL_ROWS = 64  # rows per matrix product in _compose
TABLE_MAX_NODES = 4097  # largest grid a kernel table is built on: 134 MB, plus one panel while it is built
SPLIT_TOL = 1e-12  # relative agreement a kernel split must show with the callable
_PACKAGE = __name__.partition(".")[0]


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


def _first_table(problem: Problem, z: np.ndarray, density: int, a0: np.ndarray) -> np.ndarray:
    """Normalized kernel K(t,s)/a0(t) tabulated on the lower triangle; ``a0`` is a0 on ``z``.

    A grid of more than ``TABLE_MAX_NODES`` nodes (``density`` per unit
    length) is refused before anything is allocated.  The kernel is
    evaluated in row panels of ``COMPOSE_PANEL_ROWS``, so the build holds
    the table and one panel; a kernel that fails raises "K failed: ..." at
    the first failing point of the first failing panel, which is the first
    failing point of the triangle, and a non-finite K/a0 the ``EvalError``
    of its first point.
    """
    npts = z.shape[0]
    if npts > TABLE_MAX_NODES:
        raise ValueError(
            f"a kernel table at quad_density {density} has {npts} nodes and needs "
            f"{8 * npts * npts / 1e6:.0f} MB; the limit is {TABLE_MAX_NODES} nodes"
        )
    table = np.zeros((npts, npts))
    for r0 in range(0, npts, COMPOSE_PANEL_ROWS):
        rows, cols = np.tril_indices(min(COMPOSE_PANEL_ROWS, npts - r0), r0, npts)
        rows += r0
        t, s = z[rows], z[cols]
        table[rows, cols] = _over_a0(_labeled("K", problem.kernel, t, s), a0[rows], "K/a0", t, s)
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


def _kernel_split(problem: Problem, z: np.ndarray, data: np.ndarray, a0: np.ndarray):
    """The kernel's rank-r split on the grid, checked against the callable; ``a0`` is a0 on ``z``.

    Returns ``((U, V), diag, col0)``: the rows u_r/a0 and v_r on the grid,
    and the callable's K/a0 on the diagonal and on column 0.  None keeps
    the table: no split (``ScalarFunction.separable``), a raising factor,
    callable or quotient (the table reports it), values off the callable's by more
    than ``SPLIT_TOL`` max|K| on the diagonal, column 0 or last row, or
    running sums of ``data`` off the direct sums on the last row by more
    than ``SPLIT_TOL`` times the sums of magnitudes (an overflow fails).
    """
    pairs = problem.kernel.separable
    if pairs is None:
        return None
    try:
        U = np.array([_over_a0(u(z), a0, f"u{r}/a0", z) for r, (u, _) in enumerate(pairs, 1)])
        V = np.array([v(z) for _, v in pairs])
        diag = _over_a0(problem.kernel(z, z), a0, "K/a0", z, z)
        col0 = _over_a0(problem.kernel(z, z[0]), a0, "K/a0", z, z[0])
        last = _over_a0(problem.kernel(z[-1], z), a0[-1], "K/a0", z[-1], z)
    except (ArithmeticError, ValueError, TypeError):
        return None
    scale = SPLIT_TOL * max(np.abs(diag).max(), np.abs(col0).max(), np.abs(last).max())
    with np.errstate(all="ignore"):  # an overflow fails its check
        sums_tol = SPLIT_TOL * (np.abs(data) @ np.abs(last))
        checks = [
            (np.sum(U * V, axis=0), diag, scale),
            (U.T @ V[:, 0], col0, scale),
            (U[:, -1] @ V, last, scale),
            (_running_sums((U, V), data)[:, -1], data @ last, sums_tol),
        ]
        if not all(np.all(np.abs(split - exact) <= tol) for split, exact, tol in checks):
            return None
    return (U, V), diag, col0


def _bracket(z: np.ndarray, ts) -> tuple:
    """The grid columns ``np.interp(ts, z, y)`` reads at the points ``ts``, with ``dt``, ``dz``, ``exact``.

    The points lie in [z_0, z_n), as load points inside (t0, T) do.  The columns
    are, point by point, the bracket's low node z_lo <= t, then its high node
    z_hi > t; ``dt`` = t - z_lo, ``dz`` = z_hi - z_lo, ``exact`` marks t == z_lo.
    """
    ts = np.asarray(ts, dtype=float)
    j = np.searchsorted(z, ts, side="right")
    return np.concatenate([j - 1, j]), ts - z[j - 1], z[j] - z[j - 1], ts == z[j - 1]


def _interp(y: np.ndarray, dt: np.ndarray, dz: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """np.interp's own arithmetic for finite values, on the columns ``y`` of :func:`_bracket`.

    ``slope*(t - z_lo) + y_lo`` with ``slope = (y_hi - y_lo)/dz``, and the
    node's value as is for a point on a node.
    """
    y_lo, y_hi = np.split(y, 2, axis=-1)
    return np.where(exact, y_lo, (y_hi - y_lo) / dz * dt + y_lo)


def _lam(problem: Problem, lam: Optional[float]) -> float:
    """The lam a call works at: ``lam`` if given (it must be finite), else ``problem.lam``."""
    if lam is not None and not math.isfinite(float(lam)):
        raise ValueError(f"lambda must be finite, got {float(lam)}")
    return problem.lam if lam is None else float(lam)


def _over_a0(values, a0, label: str, t, s=None) -> np.ndarray:
    """``values / a0``, refused by ``expressions.finite`` as ``label`` at its first non-finite entry.

    Every normalization divides through here.  x/0 is never finite, so
    this also refuses a zero a0; ``np.divide`` keeps Python floats from
    raising ``ZeroDivisionError``, and no warning escapes.
    """
    with np.errstate(all="ignore"):
        quotient = np.divide(values, a0)
    return finite(quotient, t, s, label)


def _labeled(label: str, fn, *args):
    """``fn(*args)``; an :class:`EvalError` is raised again as "<label> failed: ...", at its point."""
    try:
        return fn(*args)
    except EvalError as err:
        err.args = (f"{label} failed: {err}",)
        raise


def _tilde(problem: Problem, ts, a0: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows f~, a~_1, ..., a~_m at ``ts``; ``a0`` is a0 at ``ts`` (by default evaluated here)."""
    (a0_label, a0_fn), *rows = problem.coefficients
    a0 = _labeled(a0_label, a0_fn, ts) if a0 is None else a0
    return np.array([_over_a0(_labeled(name, fn, ts), a0, f"{name}/a0", ts) for name, fn in rows])


def _series(powers: np.ndarray, terms) -> np.ndarray:
    """Row l: powers[l, 0] terms[0] + powers[l, 1] terms[1] + ..., summed from zero in order.

    A sum from zero is never -0.0, so a row's zero-padded powers past its
    own count change none of its bits: each row is its own series.
    """
    shape = (-1,) + (1,) * np.ndim(terms[0])
    total = np.zeros((powers.shape[0],) + np.shape(terms[0]))
    for column, term in zip(powers.T, terms):
        total += column.reshape(shape) * term
    return total


def _warn_truncated(lam: float) -> None:
    """A :class:`TruncationWarning` for ``lam``, naming the first caller outside lvie."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == _PACKAGE:
        frame, level = frame.f_back, level + 1
    warnings.warn(
        f"resolvent series truncated at {MAX_TERMS} terms above "
        f"tolerance {TERM_TOLERANCE:g} (lam={lam:g})",
        TruncationWarning,
        stacklevel=level,
    )


class ResolventApprox:
    """Lam-free resolvent data on a tensor grid, shared by every lam.

    The grid has ``quad_density`` nodes per unit length.  The object
    keeps f~ and a~_j on the grid and at the load points, K on the
    diagonal and on column 0 (or its split, ``_kernel_split``, or its
    table), and the I_n against f~ and every a~_j, grown lazily by the
    vector recursion (at most ``MAX_TERMS``), also stacked on the 2m grid
    columns np.interp reads at the load points (``_bracket``, gathered
    once per term).  The tables K_n exist only once the point evaluator
    has asked for them, and per lam nothing is kept but the resolvent
    table of the last lam it was asked for.
    """

    def __init__(self, problem: Problem, quad_density: int = DEFAULT_QUAD_DENSITY):
        if not (math.isfinite(quad_density) and quad_density >= 1):
            raise ValueError(f"quad_density must be at least 1 and finite, got {quad_density}")
        self.problem = problem
        span = problem.T - problem.t0
        intervals = math.ceil(quad_density * span)  # at least 1: Problem has t0 < T
        self.z = np.linspace(problem.t0, problem.T, intervals + 1)
        self.dz = span / intervals
        self.quad_density = quad_density
        self._a0 = _labeled("a0", problem.a0, self.z)  # the grid's a0 that every normalization reads
        self._data = _tilde(problem, self.z, self._a0)
        self._load_data = _tilde(problem, problem.load_points)
        self._load_cols, *self._load_bracket = _bracket(self.z, problem.load_points)
        self._load_ints = np.empty((MAX_TERMS, self._data.shape[0], self._load_cols.size))
        self._tables: list[np.ndarray] = []
        self._tables_max: list[float] = []
        self._last_resolvent: Optional[tuple[float, np.ndarray]] = None
        split = _kernel_split(problem, self.z, self._data, self._a0)
        if split is None:
            first = self.kernel_table(1)
            split = None, np.diagonal(first), first[:, 0]
        self._factors, self._diag, self._col0 = split
        self._ints, self._ints_max = [], []  # I_n and max|I_n|, n = 1, 2, ...
        self._grow_integrals()

    def kernel_table(self, n: int) -> np.ndarray:
        """Table of the n-th iterated kernel (1-based) on the tensor grid, built on first use."""
        if n < 1:
            raise ValueError("iterated-kernel order must be at least 1")
        while len(self._tables) < n:
            if self._tables:
                with np.errstate(all="ignore"):
                    nxt = _compose(self._tables[0], self._tables[-1], self.dz)
            else:
                nxt = _first_table(self.problem, self.z, self.quad_density, self._a0)
            peak = float(max(nxt.max(), -nxt.min()))  # max|K_n|, no |K_n| copy; NaN if any is
            if not math.isfinite(peak):
                finite(nxt, self.z[:, None], self.z, f"K_{len(self._tables) + 1}")
            self._tables.append(nxt)
            self._tables_max.append(peak)
        return self._tables[n - 1]

    def _product(self, rows: np.ndarray) -> np.ndarray:
        """``rows @ K.T``: running sums for a split kernel, else the product with the table."""
        if self._factors is None:
            return rows @ self._tables[0].T
        return _running_sums(self._factors, rows)

    def _grow_integrals(self) -> None:
        """Append I_{n+1}: one trapezoid Volterra step on the rows of I_n (I_1 on the data).

        With w the data at half weight in its first entry, I_n = dz K_n w
        for n >= 2, so I_2 = dz^2 (D K w - K (diag(K) w) / 2) and
        I_{n+1} = dz D I_n, D = K - diag(K)/2, K acting as ``@ K.T``.  A term
        that overflows is refused, read off its max, without a warning.
        """
        diag, data = self._diag, self._data
        with np.errstate(all="ignore"):
            if not self._ints:
                nxt = self.dz * (self._product(data) - 0.5 * (self._col0 * data[:, :1] + diag * data))
            elif len(self._ints) == 1:
                w = data.copy()
                w[:, 0] *= 0.5
                kw = self._product(w)
                nxt = self._product(kw) - 0.5 * diag * kw - 0.5 * self._product(diag * w)
                nxt *= self.dz**2
            else:
                prev = self._ints[-1]
                nxt = self.dz * (self._product(prev) - 0.5 * diag * prev)
        peak = float(np.abs(nxt).max())  # NaN if any entry is
        if not math.isfinite(peak):
            finite(nxt, self.z, label=f"I_{len(self._ints) + 1}")
        self._load_ints[len(self._ints)] = nxt[:, self._load_cols]
        self._ints.append(nxt)
        self._ints_max.append(peak)

    def _powers(self, lams: list, maxima: list, grow) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-padded powers ``lam**n``, term counts and convergence of every lam in ``lams``.

        ``maxima`` holds max|I_n| or max|K_n|, n = 1, 2, ...; ``grow()``
        appends the next one.  They grow once, to the count of the largest
        |lam| (at most ``MAX_TERMS``).  Each lam's count is then the first n
        with ``abs(lam)**n * maxima[n-1]`` below ``TERM_TOLERANCE``, in
        Python's powers, and its row of powers is zero from there on.  A
        lam without one keeps ``MAX_TERMS`` terms and gets a
        :class:`TruncationWarning`, in the order of ``lams``.  A lam whose
        powers overflow before its series stops raises ``ValueError``.
        """
        mag = max(map(abs, lams), default=0.0)
        try:  # Python's float powers raise OverflowError past 1.8e308
            while not maxima or (
                len(maxima) < MAX_TERMS and not mag ** len(maxima) * maxima[-1] < TERM_TOLERANCE
            ):
                grow()
            terms = len(maxima)
            powers = np.array([lam**n for lam in lams for n in range(1, terms + 1)])
        except OverflowError:  # grow() takes no Python float powers
            big = max(lams, key=abs)
            raise ValueError(f"lambda too large, got {big}: its powers overflow a float") from None
        powers = powers.reshape(len(lams), terms)
        below = np.abs(powers) * maxima < TERM_TOLERANCE
        converged = below.any(axis=1)
        counts = np.where(converged, below.argmax(axis=1) + 1, terms)
        for lam, ok in zip(lams, converged):
            if not ok:
                _warn_truncated(lam)
        powers[np.arange(terms) >= counts[:, None]] = 0.0
        return powers[:, : counts.max(initial=1)], counts, converged

    def _int_powers(self, lams: list):
        """``_powers`` counted by the I_n."""
        return self._powers(lams, self._ints_max, self._grow_integrals)

    def terms_needed(self, lam: float) -> tuple[int, bool]:
        """Series length of F and the b_j at ``lam``, counted by |lam|^n max|I_n|.

        Returns (count, converged); ``converged`` is False, with a
        :class:`TruncationWarning`, when the ``MAX_TERMS`` budget ran out first.
        """
        _, counts, converged = self._int_powers([float(lam)])
        return int(counts[0]), bool(converged[0])

    def resolvent_table(self, lam: Optional[float] = None) -> np.ndarray:
        """Resolvent values on the tensor grid (lower triangle); kept for the last lam.

        Its terms are counted by |lam|^n max|K_n|, which does not vanish
        with the data as the I_n can.
        """
        lam = _lam(self.problem, lam)
        grow = lambda: self.kernel_table(len(self._tables) + 1)  # noqa: E731
        powers, _, _ = self._powers([lam], self._tables_max, grow)
        if self._last_resolvent is None or self._last_resolvent[0] != lam:
            self._last_resolvent = None  # free the old table before the new one
            self._last_resolvent = (lam, _series(powers, self._tables)[0])
        return self._last_resolvent[1]

    def reduced_tables(self, lam: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
        """Integral parts ``(F_int, B_int)`` of F and of every b_j on the tensor grid.

        ``F_int[i] = int R(z_i, s) f~(s) ds`` and ``B_int[j, i]`` the same
        against a~_j: the series of the I_n, O(terms * n) work.
        """
        powers, _, _ = self._int_powers([_lam(self.problem, lam)])
        ints = _series(powers, self._ints)[0]
        return ints[0], ints[1:]


def _approx(problem: Problem, cfg: Optional[ResolventApprox]) -> ResolventApprox:
    """``cfg``, or a fresh one when it is None; refuses a cfg built for another problem."""
    if cfg is not None and cfg.problem is not problem:
        raise ValueError("cfg is a ResolventApprox of another problem")
    return ResolventApprox(problem) if cfg is None else cfg


def _check_order(problem: Problem, t: float, s: float) -> None:
    problem.check_inside(t=t, s=s)
    if not s <= t:
        raise ValueError(f"need s <= t, got s={s:.6g}, t={t:.6g}")


def iterated_kernel(problem: Problem, n: int, t: float, s: float) -> float:
    """n-th iterated kernel of K/a0 at (t, s); a non-finite K/a0 (a zero a0 among them) is refused.

    For n >= 2 the compositions use the composite trapezoid rule on the
    q + 1 = ceil(DEFAULT_QUAD_DENSITY * (t - s)) + 1 nodes z_i spanning
    [s, t], on column 0 only: K_{n+1}(z_i, s) needs K_n(., s), O(n q^2).
    """
    if n < 1:
        raise ValueError("iterated-kernel order must be at least 1")
    _check_order(problem, t, s)
    if n == 1:
        return float(_over_a0(_labeled("K", problem.kernel, t, s), _labeled("a0", problem.a0, t), "K/a0", t, s))
    if t == s:
        return 0.0
    q = max(1, math.ceil(DEFAULT_QUAD_DENSITY * (t - s)))
    z = np.linspace(s, t, q + 1)
    first = _first_table(problem, z, DEFAULT_QUAD_DENSITY, _labeled("a0", problem.a0, z))
    diag, column = np.diagonal(first), first[:, 0]
    for k in range(2, n + 1):
        with np.errstate(all="ignore"):
            column = (first @ column - 0.5 * (first[:, 0] * column[0] + diag * column)) * ((t - s) / q)
        finite(column, z, s, f"K_{k}")
    return float(column[-1])


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


def _load_systems(cfg: ResolventApprox, lams: list) -> tuple[np.ndarray, np.ndarray]:
    """The load systems (A, d) of every lam: A[l]_ij = delta_ij + b_j(t_i), d[l]_i = F(t_i).

    F and the b_j at the load points are f~ and a~_j plus the series of
    the I_n on the grid columns np.interp reads there, interpolated.
    """
    powers, _, _ = cfg._int_powers(lams)
    values = cfg._load_data + _interp(_series(powers, cfg._load_ints), *cfg._load_bracket)
    return np.eye(len(cfg.problem.loads)) + values[:, 1:].transpose(0, 2, 1), values[:, 0]


def _reduced_at(cfg: ResolventApprox, lam: Optional[float], ts) -> tuple:
    """F(t, lam) and the list of every b_j(t, lam) at ``ts``, each of the shape of ``ts``.

    Each is f~ or a~_j plus its row of ``reduced_tables``, np.interp'd at ``ts``.
    """
    F_int, B_int = cfg.reduced_tables(lam)
    tilde = _tilde(cfg.problem, ts)
    values = [row + np.interp(ts, cfg.z, ints) for row, ints in zip(tilde, (F_int, *B_int))]
    return values[0], values[1:]


def reduced_coeffs(
    problem: Problem,
    t: float,
    cfg: Optional[ResolventApprox] = None,
    lam: Optional[float] = None,
) -> tuple[float, np.ndarray]:
    """Reduced-equation coefficients (F(t, lam), [b_j(t, lam)])."""
    cfg = _approx(problem, cfg)
    problem.check_inside(t=t)
    F, B = _reduced_at(cfg, lam, float(t))
    return float(F), np.array(B, dtype=float)


def load_matrix(
    problem: Problem,
    cfg: Optional[ResolventApprox] = None,
    lam: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Load system (A, d): A_ij = delta_ij + b_j(t_i), d_i = F(t_i)."""
    cfg = _approx(problem, cfg)
    A, d = _load_systems(cfg, [_lam(problem, lam)])
    return A[0], d[0]


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
    return solvability_sweep(problem, [lam], cfg)[0]


def semi_analytic_solve(
    problem: Problem,
    t_samples,
    cfg: Optional[ResolventApprox] = None,
    lam: Optional[float] = None,
) -> np.ndarray:
    """Evaluate x(t) = F(t) - sum_j b_j(t) c_j at the sample points, in their shape.

    Requires a uniquely solvable load system; raises
    :class:`SolvabilityError` otherwise.
    """
    ts = np.asarray(t_samples, dtype=float)
    problem.check_inside(sample=ts)
    cfg = _approx(problem, cfg)
    report = classify(problem, cfg, lam)
    if report.classification != "unique":
        raise SolvabilityError(f"load system is not uniquely solvable ({report.label})")

    with warnings.catch_warnings():
        if problem.loads:  # classify has warned of a truncated series already
            warnings.simplefilter("ignore", TruncationWarning)
        values, B = _reduced_at(cfg, report.lam, ts)
    for b_j, c_j in zip(B, report.load_values):
        values = values - b_j * c_j
    return np.asarray(values)


def solvability_sweep(
    problem: Problem,
    lambdas,
    cfg: Optional[ResolventApprox] = None,
) -> list[SolvabilityReport]:
    """:func:`classify` at every lam in ``lambdas`` (None: the problem's), in one pass.

    Every lam is checked before any work.  The load systems of all lams
    are built as one stack from the shared I_n and eliminated by one
    ``rank_and_det`` call.  A problem without loads needs no tables, but
    a cfg of another problem is still refused.
    """
    lams = [_lam(problem, lam) for lam in lambdas]
    m1 = len(problem.loads)
    if m1:
        A, d = _load_systems(_approx(problem, cfg), lams)
    else:
        if cfg is not None:
            _approx(problem, cfg)
        A, d = np.zeros((len(lams), 0, 0)), np.zeros((len(lams), 0))
    reports = []
    # one elimination of the whole stack: ranks, dets and the load values
    for i, (lam, rep) in enumerate(zip(lams, rank_and_det(A, RANK_TOL, rhs=d))):
        if rep.rank == m1:
            reports.append(SolvabilityReport(
                lam=lam, det=rep.det, rank=m1, classification="unique", load_values=rep.solution,
            ))
            continue
        basis = nullspace(A[i].T, RANK_TOL)
        d_norm = float(np.linalg.norm(d[i]))
        defect = float(max(abs(basis @ d[i]) / d_norm)) if d_norm else 0.0
        family = defect <= RANK_TOL
        reports.append(SolvabilityReport(
            lam=lam, det=rep.det, rank=rep.rank,
            classification="family" if family else "no_solution",
            family_dim=m1 - rep.rank if family else 0, orthogonality_defect=defect,
        ))
    return reports


def sweep_csv(reports) -> str:
    """CSV rows ``lambda,detA,rank,classification,orthogonality_defect``."""
    lines = ["lambda,detA,rank,classification,orthogonality_defect"]
    for rep in reports:
        lines.append(
            f"{rep.lam:.5E},{rep.det:.5E},{rep.rank},{rep.label},"
            f"{rep.orthogonality_defect:.5E}"
        )
    return "\n".join(lines) + "\n"
