"""Dense and structure-exploiting linear solvers.

One full-pivot Gauss-Jordan core, ``_eliminate``, serves three callers:
``gauss_jordan``, the reference solver, eliminates ``[a | b]``;
``rank_and_det``, the solvability diagnostics, reads rank and
determinant off the pivots and the swap parity; ``nullspace`` reads a
basis off the reduced matrix.

``structured_solve`` exploits the collocation shape (lower triangular
plus a handful of load columns) by superposition: one forward
substitution for the right-hand side, one per load column, and a small
consistency solve for the load values.  The substitution recomputes
each row's quadrature weights from the system as it goes, so it costs
O(m N^2) time and O(m N) memory and never needs the materialized matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularMatrixError",
    "SolvabilityError",
    "RankReport",
    "gauss_jordan",
    "nullspace",
    "rank_and_det",
    "structured_solve",
]


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


def _eliminate(aug: np.ndarray, tol: float) -> tuple[list[float], np.ndarray, int]:
    """Full-pivot Gauss-Jordan elimination of ``aug = [A | R]`` in place.

    ``A`` is the leading n x n block; pivots are searched only there and
    elimination stops at the first pivot below ``tol * max|A|``.  Each
    accepted pivot row is divided by its pivot and eliminated from every
    other row, so the first ``len(pivots)`` rows end up reduced.  Returns
    the raw pivots, the column order of ``A`` and the number of swaps.
    """
    n = aug.shape[0]
    scale = np.abs(aug[:, :n]).max(initial=0.0)
    cols = np.arange(n)
    pivots: list[float] = []
    swaps = 0
    for k in range(n):
        sub = np.abs(aug[k:, k:n])
        pi, pj = np.unravel_index(np.argmax(sub), sub.shape)
        pi += k
        pj += k
        piv = aug[pi, pj]
        if piv == 0.0 or abs(piv) < tol * scale:  # piv == 0 stops a zero A
            break
        if pi != k:
            aug[[k, pi]] = aug[[pi, k]]
            swaps += 1
        if pj != k:
            aug[:, [k, pj]] = aug[:, [pj, k]]
            cols[[k, pj]] = cols[[pj, k]]
            swaps += 1
        pivots.append(float(piv))
        aug[k] /= piv
        fac = aug[:, k].copy()
        fac[k] = 0.0
        aug -= np.outer(fac, aug[k])
    return pivots, cols, swaps


def gauss_jordan(a, b, tol_singular: float = 1e-12) -> np.ndarray:
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
    aug = np.column_stack([a, b])
    pivots, cols, _ = _eliminate(aug, tol_singular)
    k = len(pivots)
    if k < n:
        rest = aug[k:, k:n]
        piv = rest.flat[np.argmax(np.abs(rest))]
        if piv == 0.0 and k == 0:
            raise SingularMatrixError("matrix is zero", step=0)
        raise SingularMatrixError(
            f"matrix is singular (pivot {piv:.3e} at elimination step {k})",
            step=k,
        )
    x = np.empty(n)
    x[cols] = aug[:, n]
    return x


def nullspace(a, tol: float) -> np.ndarray:
    """Unit-norm rows spanning the null space of ``a`` (identity if a == 0).

    The rank is decided as in :func:`rank_and_det`.
    """
    a = _as_square(a)
    n = a.shape[0]
    pivots, cols, _ = _eliminate(a, tol)
    rank = len(pivots)
    basis = np.zeros((n - rank, n))
    basis[:, cols[:rank]] = -a[:rank, rank:].T
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
    pivot_magnitudes: tuple[float, ...]
    tolerance: float
    det_sign: int
    det_log10: float


def rank_and_det(a, tol: float = 1e-10) -> RankReport:
    """Rank and determinant via Gauss-Jordan elimination with full pivoting.

    A pivot counts toward the rank when its magnitude is at least
    ``tol`` times the largest entry of the input matrix.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = _as_square(a)
    n = a.shape[0]
    pivots, _, swaps = _eliminate(a, tol)
    rank = len(pivots)
    if rank < n:
        det, det_sign, det_log10 = 0.0, 0, -math.inf
    else:
        det = float((-1) ** swaps * math.prod(pivots))  # may under/overflow
        det_sign = (-1) ** (swaps + sum(p < 0 for p in pivots))
        det_log10 = 0.0
        for piv in pivots:
            det_log10 += math.log10(abs(piv))
    return RankReport(
        rank=rank,
        det=det,
        pivot_magnitudes=tuple(abs(p) for p in pivots),
        tolerance=tol,
        det_sign=det_sign,
        det_log10=det_log10,
    )


def structured_solve(system, tol_singular: float = 1e-12) -> np.ndarray:
    """Solve a collocation system via its triangular-plus-load-columns shape.

    Forward-substitutes the triangular part once against the right-hand
    side and once against the negated entries of each load column, one
    row of weights at a time (``system.row_weights``), then solves the
    small load consistency system and superposes.  Agrees with
    :func:`gauss_jordan` on the materialized matrix to rounding.
    """
    n = system.size
    m1 = len(system.load_columns)
    B = np.empty((n, 1 + m1))
    B[:, 0] = system.rhs
    B[:, 1:] = -system.load_entries

    a0 = system.a0_values
    scale = float(np.abs(a0).max()) or 1.0
    X = np.empty_like(B)
    for i in range(n):
        w = system.row_weights(i)
        acc, d = 0.0, a0[i]
        if i:
            acc = w[:-1] @ (X[: i - 1] + X[1:i]) + w[-1] * X[i - 1]
            d = a0[i] - w[-1]
        if abs(d) < tol_singular * scale:
            raise SolvabilityError(
                f"zero diagonal entry in the triangular part at row {i}"
            )
        X[i] = (B[i] + acc) / d

    if m1 == 0:
        return X[:, 0]

    vs = list(system.load_columns)
    consistency = np.eye(m1) - X[vs, 1:]
    try:
        c = gauss_jordan(consistency, X[vs, 0], tol_singular)
    except SingularMatrixError as err:
        raise SolvabilityError(
            f"load consistency system is singular: {err}"
        ) from err
    return X[:, 0] + X[:, 1:] @ c
