"""Dense and structure-exploiting linear solvers.

One full-pivot Gauss-Jordan core, ``_eliminate``, serves three callers:
``gauss_jordan``, the reference solver, eliminates ``[a | b]``;
``rank_and_det``, the solvability diagnostics, reads rank and
determinant off the pivots and the swap parity, and eliminates an
optional right-hand side with them; ``nullspace`` reads a basis off the
reduced matrix.  The core works on the transpose, so a
step's columns are contiguous rows, and skips the columns left of the
pivot, exact zeros in its row: n^3/2 multiply-subtracts, 2n^3/3 search reads.
It takes a stack of matrices: each member picks its own pivots and stops
at its own rank, with the bits of its own elimination.  ``rank_and_det``
eliminates a whole stack (the load systems of a lambda sweep) in one
call; the other callers pass a stack of one.

``structured_solve`` exploits the collocation shape (lower triangular
plus a handful of load columns) by superposition: one forward
substitution for the right-hand side, one per load column, and a small
consistency solve for the load values.  The substitution never builds
the matrix and has one schedule for every system: one ``np.linalg.solve``
(a general LU with partial pivoting) per block of ``BLOCK_ROWS`` (64)
rows, each solved block pushing its far field ahead in dyadic squares.
``CollocationSystem.integral`` decides how a square is applied: in
panels of at most ``PANEL_POINTS`` (16384) kernel points, O(m N^2) time
and O(N/64 + N^2/16384) kernel calls, or on a lag table by windows and
FFTs, O(m N log^2 N) time and N kernel points.  Memory is O(m N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import BLOCK_ROWS, AssemblyError

__all__ = [
    "SingularMatrixError",
    "SolvabilityError",
    "RankReport",
    "gauss_jordan",
    "nullspace",
    "rank_and_det",
    "structured_solve",
]

# Pivots below this share of the largest matrix entry count as zero.
SINGULAR_TOL = 1e-12
UPDATE_ROWS = 64  # rows of ``at`` per elimination update: 64 x n doubles stay in cache


class SingularMatrixError(ValueError):
    """The elimination met a pivot below the singularity threshold."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class SolvabilityError(ValueError):
    """The structured path found the system unsolvable as posed."""


def _transposed(a, b=None, stacked: bool = False) -> np.ndarray:
    """``[a | b]`` (``b`` optional) stored as its transpose, the layout of ``_eliminate``.

    ``a`` is one square matrix and ``b`` one vector, or with ``stacked`` a
    stack (L, n, n) and a stack (L, n); the result has the stack axis
    either way, of length 1 for one matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 + stacked or a.shape[-2] != a.shape[-1]:
        kind = "a stack of square matrices" if stacked else "a square matrix"
        raise ValueError(f"expected {kind}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    n = a.shape[-1]
    stack = a if stacked else a[None]
    at = np.empty((stack.shape[0], n + (b is not None), n))
    at[:, :n] = stack.transpose(0, 2, 1)
    if b is not None:
        b = np.asarray(b, dtype=float)
        if b.shape != a.shape[:-1]:
            raise ValueError(f"right-hand side shape {b.shape} does not match n={n}")
        at[:, n] = b
    return at


def _eliminate(at: np.ndarray, tol: float):
    """Full-pivot Gauss-Jordan elimination of a stack of ``aug = [A | R]``, stored as ``at[l] = aug_l.T``.

    ``at`` is C-contiguous, so the columns ``k+1:`` of each ``aug`` that
    step k updates are the row block ``at[l, k+1:]``; the members still
    going are updated together, ``UPDATE_ROWS`` rows at a time through one
    buffer.  Each member's pivot is the first maximum of its
    ``|A[k:, k:]|`` in row-major order: its first row, then the first
    column in that row; the last step has one candidate and no search.
    Each member swaps through views and stops at its first pivot below
    ``tol * max|A|``; the others go on in a compacted copy, written back at
    the end.  Returns, per member, the raw pivots (their count is the
    rank), the column order of A and the number of swaps; callers read
    ``aug[:, rank:]`` only, and the pivot columns are left unfinished.
    """
    count, width, n = at.shape
    a = at[:, :n]  # max|A| as max(max A, -min A): no |A| copy
    scales = (tol * np.maximum(a.max(axis=(1, 2), initial=0.0), -a.min(axis=(1, 2), initial=0.0))).tolist()
    pivots: list[list[float]] = [[] for _ in range(count)]
    cols = [list(range(n)) for _ in range(count)]
    swaps = [0] * count
    live = list(range(count))  # the members still eliminating, in ``work`` order
    work = at  # their rows: ``at`` itself until a member stops
    prod = np.empty((count, min(UPDATE_ROWS, width), n))
    for k in range(n):
        rows = [0] * len(live)  # each member's pivot row, less k
        if k < n - 1:
            sub = work[:, k:n, k:]  # sub[l, j, i] = aug_l[k+i, k+j]; read without a copy
            top, low = sub.max(axis=1), sub.min(axis=1)
            np.maximum(top, np.negative(low, out=low), out=top)
            rows = top.argmax(axis=1).tolist()
        go = []
        for i, a in enumerate(work):
            p = k + rows[i]
            q = k + int(np.abs(a[k:n, p]).argmax()) if k < n - 1 else k
            piv = float(a[q, p])
            member = live[i]
            if piv == 0.0 or abs(piv) < scales[member]:  # piv == 0 stops a zero A
                continue
            if p != k:
                held = a[k:, k].copy()
                a[k:, k] = a[k:, p]
                a[k:, p] = held
                swaps[member] += 1
            if q != k:
                held = a[k].copy()
                a[k] = a[q]
                a[q] = held
                c = cols[member]
                c[k], c[q] = c[q], c[k]
                swaps[member] += 1
            a[k:, k] /= piv
            a[k, k] = 0.0  # unread from here on; as the factor it keeps aug row k as it is
            pivots[member].append(piv)
            go.append(i)
        if len(go) < len(live):
            if work is not at:
                at[live] = work
            if not go:
                break
            live = [live[i] for i in go]
            work = at[live]
        fac, col, out = work[:, k, None], work[:, :, k, None], prod[: len(live)]
        for j0 in range(k + 1, width, UPDATE_ROWS):  # row k (aug column k) is unread from here on
            j1 = min(j0 + UPDATE_ROWS, width)
            work[:, j0:j1] -= np.multiply(col[:, j0:j1], fac, out=out[:, : j1 - j0])
    if work is not at:
        at[live] = work
    return pivots, np.array(cols, dtype=np.intp).reshape(count, n), swaps


def _solutions(at: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """x of every a x = b from a full-rank elimination of the stack of ``[a | b]``."""
    x = np.empty(at.shape[::2])
    x[np.arange(x.shape[0])[:, None], cols] = at[:, -1]
    return x


def gauss_jordan(a, b, tol_singular: float = SINGULAR_TOL) -> np.ndarray:
    """Solve a x = b by Gauss-Jordan elimination with full pivoting.

    The pivot at each step is the maximum-magnitude element of the
    remaining submatrix; a pivot below ``tol_singular`` relative to the
    largest initial entry raises :class:`SingularMatrixError`.
    """
    at = _transposed(a, b)
    n = at.shape[2]
    pivots, cols, _ = _eliminate(at, tol_singular)
    k = len(pivots[0])
    if k < n:
        rest = at[0, k:n, k:].T
        piv = rest.flat[np.argmax(np.abs(rest))]
        if piv == 0.0 and k == 0:
            raise SingularMatrixError("matrix is zero", step=0)
        msg = f"matrix is singular (pivot {piv:.3e} at elimination step {k})"
        raise SingularMatrixError(msg, step=k)
    return _solutions(at, cols)[0]


def nullspace(a, tol: float) -> np.ndarray:
    """Unit-norm rows spanning the null space of ``a`` (identity if a == 0).

    The rank is decided as in :func:`rank_and_det`.
    """
    at = _transposed(a)
    n = at.shape[1]
    pivots, cols, _ = _eliminate(at, tol)
    rank, cols = len(pivots[0]), cols[0]
    basis = np.zeros((n - rank, n))
    basis[:, cols[:rank]] = -at[0, rank:, :rank]
    basis[np.arange(n - rank), cols[rank:]] = 1.0
    for row in basis:
        row /= np.linalg.norm(row)
    return basis


@dataclass(frozen=True)
class RankReport:
    """Rank and determinant of a matrix under a relative pivot tolerance.

    ``det`` is reported as 0 whenever the rank is deficient.  The
    (sign, log10-magnitude) pair carries the determinant through
    under/overflow for large matrices.  ``solution`` is x of a x = rhs, at full rank.
    """

    rank: int
    det: float
    det_sign: int
    det_log10: float
    solution: Optional[np.ndarray] = None


def rank_and_det(a, tol: float = 1e-10, rhs=None) -> RankReport | list[RankReport]:
    """Rank and determinant via Gauss-Jordan elimination with full pivoting.

    A pivot counts toward the rank when its magnitude is at least
    ``tol`` times the largest entry of the input matrix.  Given ``rhs``,
    the one elimination runs on ``[a | rhs]``, whose pivots do not read
    ``rhs``: the rank and det of ``a``, and :func:`gauss_jordan`'s bits.
    A stack ``a`` of shape (L, n, n), with ``rhs`` of shape (L, n), is
    eliminated as one and gives a list of L reports, each member's
    bits those of its own call.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    stacked = np.ndim(a) == 3
    at = _transposed(a, rhs, stacked)
    n = at.shape[2]
    all_pivots, cols, all_swaps = _eliminate(at, tol)
    solutions = None if rhs is None else _solutions(at, cols)
    reports = []
    for i, (pivots, swaps) in enumerate(zip(all_pivots, all_swaps)):
        rank = len(pivots)
        if rank < n:
            reports.append(RankReport(rank=rank, det=0.0, det_sign=0, det_log10=-math.inf))
            continue
        det = float((-1) ** swaps * math.prod(pivots))  # may under/overflow
        det_sign = (-1) ** (swaps + sum(p < 0 for p in pivots))
        det_log10 = 0.0
        for piv in pivots:
            det_log10 += math.log10(abs(piv))
        solution = None if solutions is None else solutions[i]
        reports.append(RankReport(rank, det, det_sign, det_log10, solution))
    return reports if stacked else reports[0]


def structured_solve(system) -> np.ndarray:
    """Solve a collocation system via its triangular-plus-load-columns shape.

    Forward-substitutes the triangular part once against the right-hand
    side and once against the negated entries of each load column, then
    solves the small load consistency system and superposes.  Rows after
    row 0 go in blocks of ``BLOCK_ROWS``, each one ``np.linalg.solve``.
    Once block b (rows r0..r1-1) is solved, the last M = BLOCK_ROWS * 2^v
    pair sums in Y[:r1 - 1], 2^v the largest power of two dividing b + 1,
    are pushed into the next M rows of B.  These squares tile the strict
    lower triangle of blocks (the dyadic splitting of Hairer, Lubich and
    Schlichte, 1985): every pair of a row and an earlier column outside
    the row's own block is added once.

    The first row at fault raises: :class:`SolvabilityError` for a
    triangular pivot below ``SINGULAR_TOL`` relative to max|a0|,
    :class:`AssemblyError` for a kernel failure.  A failing square records
    its earliest failing row; the block that reaches that row checks the
    pivots before it, then raises.  Agrees with :func:`gauss_jordan` on
    the materialized matrix to rounding.
    """
    n = system.size
    m1 = len(system.load_columns)
    B = np.column_stack([system.rhs, -system.load_entries])

    a0 = system.a0_values
    tiny = SINGULAR_TOL * (float(np.abs(a0).max()) or 1.0)

    def check_pivots(r0, d):
        if np.abs(d).min(initial=np.inf) < tiny:
            bad = np.flatnonzero(np.abs(d) < tiny)[0]
            raise SolvabilityError(f"zero diagonal entry in the triangular part at row {r0 + bad}")

    X = np.empty_like(B)
    Y = np.empty((n - 1, 1 + m1))  # pair sums X[q] + X[q+1]
    check_pivots(0, a0[:1])
    X[0] = B[0] / a0[0]
    fault = None  # the earliest kernel failure met so far
    for b, r0 in enumerate(range(1, n, BLOCK_ROWS)):
        r1 = min(r0 + BLOCK_ROWS, n if fault is None else fault.row)
        try:
            near = system.near(r0, r1)
        except AssemblyError as err:
            fault, r1 = err, err.row
            near = system.near(r0, r1)
        k = r1 - r0
        T = near[:, 1:].copy()
        d = T.reshape(-1)[:: k + 1]  # the diagonal, a view
        d += a0[r0:r1]
        check_pivots(r0, d)
        if fault is not None and fault.row == r1:
            raise fault
        X[r0:r1] = np.linalg.solve(T, B[r0:r1] - near[:, :1] * X[r0 - 1])
        Y[r0 - 1 : r1 - 1] = X[r0 - 1 : r1 - 1] + X[r0:r1]
        if r1 < n:
            m = BLOCK_ROWS * ((b + 1) & -(b + 1))
            try:
                system.integral(B[r1 : r1 + m], r1, Y, r1 - 1 - m, r1 - 1)
            except AssemblyError as err:
                if fault is None or err.row < fault.row:
                    fault = err
    if m1 == 0:
        return X[:, 0]

    vs = list(system.load_columns)
    consistency = np.eye(m1) - X[vs, 1:]
    try:
        c = gauss_jordan(consistency, X[vs, 0])
    except SingularMatrixError as err:
        raise SolvabilityError(
            f"load consistency system is singular: {err}"
        ) from err
    return X[:, 0] + X[:, 1:] @ c
