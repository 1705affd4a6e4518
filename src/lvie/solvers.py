"""Dense and structure-exploiting linear solvers.

One full-pivot Gauss-Jordan core, ``_eliminate``, serves three callers:
``gauss_jordan``, the reference solver, eliminates ``[a | b]``;
``rank_and_det``, the solvability diagnostics, reads rank and
determinant off the pivots and the swap parity; ``nullspace`` reads a
basis off the reduced matrix.  The core works on the transpose, so a
step's columns are contiguous rows, and skips the columns left of the
pivot, exact zeros in its row: n^3/2 multiply-subtracts, 2n^3/3 search reads.

``structured_solve`` exploits the collocation shape (lower triangular
plus a handful of load columns) by superposition: one forward
substitution for the right-hand side, one per load column, and a small
consistency solve for the load values.  The substitution is blocked:
one numpy triangular solve per block of ``BLOCK_ROWS`` (64) rows, and
it never needs the materialized matrix.  In general each block pulls
its far field, the weights recomputed in panels of at most
``PANEL_POINTS`` (16384) kernel points: O(m N^2) time,
O(N/64 + N^2/16384) kernel calls and O(m N) memory.  On a lag table
(``assembly``) the weights form a Toeplitz matrix, and each solved
block pushes its part of the far field ahead in dyadic squares, the
large ones by FFT: O(m N log^2 N) time, N kernel points in all and
O(m N) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _as_square(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _eliminate(at: np.ndarray, tol: float) -> tuple[list[float], np.ndarray, int]:
    """Full-pivot Gauss-Jordan elimination of ``aug = [A | R]``, stored as ``at = aug.T``.

    ``at`` is C-contiguous, so the columns ``k:`` of ``aug`` that step k
    changes are the row block ``at[k:]``, updated ``UPDATE_ROWS`` rows at a
    time through one buffer.  The pivot is the first maximum of
    ``|A[k:, k:]|`` in row-major order: its first row, then the first
    column in that row.  Elimination stops at the first pivot below
    ``tol * max|A|``.  Returns the raw pivots, the column order of ``A``
    and the number of swaps; callers read ``aug[:, rank:]`` only.
    """
    n = at.shape[1]
    scale = np.abs(at[:n]).max(initial=0.0)
    cols = np.arange(n)
    pivots: list[float] = []
    swaps = 0
    prod = np.empty((min(UPDATE_ROWS, at.shape[0]), n))
    for k in range(n):
        sub = at[k:n, k:]  # sub[j, i] = aug[k+i, k+j]; max and min read it without a copy
        pi = int(np.argmax(np.maximum(sub.max(axis=0), -sub.min(axis=0))))
        pj = int(np.argmax(np.abs(sub[:, pi]))) + k
        pi += k
        piv = at[pj, pi]
        if piv == 0.0 or abs(piv) < tol * scale:  # piv == 0 stops a zero A
            break
        if pi != k:
            at[k:, [k, pi]] = at[k:, [pi, k]]
            swaps += 1
        if pj != k:
            at[[k, pj]] = at[[pj, k]]
            cols[[k, pj]] = cols[[pj, k]]
            swaps += 1
        pivots.append(float(piv))
        at[k:, k] /= piv
        fac = at[k].copy()
        fac[k] = 0.0
        for j0 in range(k, at.shape[0], UPDATE_ROWS):
            j1 = min(j0 + UPDATE_ROWS, at.shape[0])
            at[j0:j1] -= np.multiply.outer(at[j0:j1, k], fac, out=prod[: j1 - j0])
    return pivots, cols, swaps


def gauss_jordan(a, b, tol_singular: float = SINGULAR_TOL) -> np.ndarray:
    """Solve a x = b by Gauss-Jordan elimination with full pivoting.

    The pivot at each step is the maximum-magnitude element of the
    remaining submatrix; a pivot below ``tol_singular`` relative to the
    largest initial entry raises :class:`SingularMatrixError`.
    """
    a = _as_square(a)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} does not match n={n}")
    at = np.column_stack([a, b]).T.copy()
    pivots, cols, _ = _eliminate(at, tol_singular)
    k = len(pivots)
    if k < n:
        rest = at[k:n, k:].T
        piv = rest.flat[np.argmax(np.abs(rest))]
        if piv == 0.0 and k == 0:
            raise SingularMatrixError("matrix is zero", step=0)
        raise SingularMatrixError(
            f"matrix is singular (pivot {piv:.3e} at elimination step {k})",
            step=k,
        )
    x = np.empty(n)
    x[cols] = at[n]
    return x


def nullspace(a, tol: float) -> np.ndarray:
    """Unit-norm rows spanning the null space of ``a`` (identity if a == 0).

    The rank is decided as in :func:`rank_and_det`.
    """
    at = np.ascontiguousarray(_as_square(a).T)
    n = at.shape[0]
    pivots, cols, _ = _eliminate(at, tol)
    rank = len(pivots)
    basis = np.zeros((n - rank, n))
    basis[:, cols[:rank]] = -at[rank:, :rank]
    basis[np.arange(n - rank), cols[rank:]] = 1.0
    for row in basis:
        row /= np.linalg.norm(row)
    return basis


@dataclass(frozen=True)
class RankReport:
    """Rank and determinant of a matrix under a relative pivot tolerance.

    ``det`` is reported as 0 whenever the rank is deficient.  The
    (sign, log10-magnitude) pair carries the determinant through
    under/overflow for large matrices.
    """

    rank: int
    det: float
    det_sign: int
    det_log10: float


def rank_and_det(a, tol: float = 1e-10) -> RankReport:
    """Rank and determinant via Gauss-Jordan elimination with full pivoting.

    A pivot counts toward the rank when its magnitude is at least
    ``tol`` times the largest entry of the input matrix.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    at = np.ascontiguousarray(_as_square(a).T)
    n = at.shape[0]
    pivots, _, swaps = _eliminate(at, tol)
    rank = len(pivots)
    if rank < n:
        det, det_sign, det_log10 = 0.0, 0, -math.inf
    else:
        det = float((-1) ** swaps * math.prod(pivots))  # may under/overflow
        det_sign = (-1) ** (swaps + sum(p < 0 for p in pivots))
        det_log10 = 0.0
        for piv in pivots:
            det_log10 += math.log10(abs(piv))
    return RankReport(rank=rank, det=det, det_sign=det_sign, det_log10=det_log10)


def _pull(system, B, X, Y, check_pivots) -> None:
    """Forward substitution that gathers each block's far field just before solving it.

    The kernel may fail at any row, so each block checks its own rows'
    kernel failures and pivots in row order.
    """
    a0, n = system.a0_values, system.size
    for r0 in range(1, n, BLOCK_ROWS):
        r1 = min(r0 + BLOCK_ROWS, n)
        acc = np.zeros((r1 - r0, Y.shape[1]))
        try:
            system.integral(acc, r0, Y, 0, r0 - 1)
            J = system.weights(r0, r1, r0 - 1, r1 - 1)  # row k: J_{r0}..J_{r0+k}
        except AssemblyError:
            for i in range(r0, r1):  # the earlier row's failure wins
                check_pivots(i, a0[i] - system.row_weights(i)[-1:])
            raise
        # Row k couples X[r0+j] through J[k, j] + J[k, j+1] (j < k) and J[k, k].
        T = np.diag(a0[r0:r1]) - J
        T[:, :-1] -= J[:, 1:]
        check_pivots(r0, T.diagonal())
        X[r0:r1] = np.linalg.solve(T, B[r0:r1] + acc + J[:, :1] * X[r0 - 1])
        Y[r0 - 1 : r1 - 1] = X[r0 - 1 : r1 - 1] + X[r0:r1]


def _push(system, B, X, Y) -> None:
    """Forward substitution on a lag system that adds each block's far field into B ahead.

    Once block b (rows r0..r1-1) is solved, Y[:r1 - 1] is known, and its
    last M = BLOCK_ROWS * 2^v entries, 2^v the largest power of two
    dividing b + 1, are pushed into the next M rows of B.  These squares
    tile the strict lower triangle of blocks (the dyadic splitting of
    Hairer, Lubich and Schlichte, 1985), so every pair of a row and an
    earlier column outside the row's own block is added once.  A square
    is a Toeplitz product, by FFT past ``PANEL_MAX_SIDE``: O(N log^2 N)
    in all.  The near triangle J, and so T less its diagonal a0, is the
    same for every block.
    """
    a0, n = system.a0_values, system.size
    rows = min(BLOCK_ROWS, n - 1)
    J = system.weights(1, 1 + rows, 0, rows)
    T_off = -J
    T_off[:, :-1] -= J[:, 1:]
    for b, r0 in enumerate(range(1, n, BLOCK_ROWS)):
        r1 = min(r0 + BLOCK_ROWS, n)
        k = r1 - r0
        T = T_off[:k, :k].copy()
        T.flat[:: k + 1] += a0[r0:r1]
        X[r0:r1] = np.linalg.solve(T, B[r0:r1] + J[:k, :1] * X[r0 - 1])
        Y[r0 - 1 : r1 - 1] = X[r0 - 1 : r1 - 1] + X[r0:r1]
        if r1 < n:
            m = BLOCK_ROWS * ((b + 1) & -(b + 1))
            system.integral(B[r1 : r1 + m], r1, Y, r1 - 1 - m, r1 - 1)


def structured_solve(system) -> np.ndarray:
    """Solve a collocation system via its triangular-plus-load-columns shape.

    Forward-substitutes the triangular part once against the right-hand
    side and once against the negated entries of each load column, then
    solves the small load consistency system and superposes.  Rows after
    row 0 go in blocks of ``BLOCK_ROWS``, each one ``np.linalg.solve``.
    The first row at fault raises: :class:`SolvabilityError` for a
    triangular pivot below ``SINGULAR_TOL`` relative to max|a0|,
    :class:`AssemblyError` for a kernel failure.  On a lag table the
    kernel has been evaluated already and every pivot is a0[i] - w[0],
    so the pivots are checked once, before the first block.  Agrees with
    :func:`gauss_jordan` on the materialized matrix to rounding.
    """
    n = system.size
    m1 = len(system.load_columns)
    B = np.empty((n, 1 + m1))
    B[:, 0] = system.rhs
    B[:, 1:] = -system.load_entries

    a0 = system.a0_values
    tiny = SINGULAR_TOL * (float(np.abs(a0).max()) or 1.0)

    def check_pivots(r0, d):
        bad = np.flatnonzero(np.abs(d) < tiny)
        if bad.size:
            raise SolvabilityError(f"zero diagonal entry in the triangular part at row {r0 + bad[0]}")

    X = np.empty_like(B)
    Y = np.empty((n - 1, 1 + m1))  # pair sums X[q] + X[q+1]
    check_pivots(0, a0[:1])
    X[0] = B[0] / a0[0]
    w = system.lag_weights()
    if w is None:
        _pull(system, B, X, Y, check_pivots)
    else:
        check_pivots(1, a0[1:] - w[0])  # every later pivot is a0[i] - w[0]
        _push(system, B, X, Y)
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
