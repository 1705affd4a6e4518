"""Dense and structure-exploiting linear solvers.

``gauss_jordan`` is the reference solver: Gauss-Jordan elimination with
selection of the maximum element over the whole remaining submatrix
(full pivoting).  ``structured_solve`` exploits the collocation shape
(lower triangular plus a handful of load columns) by superposition:
one forward substitution for the right-hand side, one per load column,
and a small consistency solve for the load values.  The substitution
recomputes each row's quadrature weights from the system as it goes,
so it costs O(m N^2) time and O(m N) memory and never needs the
materialized matrix.

``rank_and_det`` provides the rank / determinant diagnostics used by
the solvability classifier.
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
    if n == 0:
        return np.empty(0)

    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularMatrixError("matrix is zero", step=0)
    cols = np.arange(n)

    for k in range(n):
        sub = np.abs(a[k:, k:])
        pi, pj = np.unravel_index(np.argmax(sub), sub.shape)
        pi += k
        pj += k
        if abs(a[pi, pj]) < tol_singular * scale:
            raise SingularMatrixError(
                f"matrix is singular (pivot {a[pi, pj]:.3e} at elimination step {k})",
                step=k,
            )
        if pi != k:
            a[[k, pi]] = a[[pi, k]]
            b[[k, pi]] = b[[pi, k]]
        if pj != k:
            a[:, [k, pj]] = a[:, [pj, k]]
            cols[[k, pj]] = cols[[pj, k]]
        piv = a[k, k]
        a[k] /= piv
        b[k] /= piv
        fac = a[:, k].copy()
        fac[k] = 0.0
        a -= np.outer(fac, a[k])
        b -= fac * b[k]

    x = np.empty(n)
    x[cols] = b
    return x


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
    """Rank and determinant via Gaussian elimination with full pivoting.

    A pivot counts toward the rank when its magnitude is at least
    ``tol`` times the largest entry of the input matrix.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = _as_square(a)
    n = a.shape[0]
    if n == 0:
        return RankReport(0, 1.0, (), tol, 1, 0.0)

    scale = np.abs(a).max()
    if scale == 0.0:
        return RankReport(0, 0.0, (), tol, 0, -math.inf)

    sign = 1
    pivots: list[float] = []
    for k in range(n):
        sub = np.abs(a[k:, k:])
        pi, pj = np.unravel_index(np.argmax(sub), sub.shape)
        pi += k
        pj += k
        if abs(a[pi, pj]) < tol * scale:
            break
        if pi != k:
            a[[k, pi]] = a[[pi, k]]
            sign = -sign
        if pj != k:
            a[:, [k, pj]] = a[:, [pj, k]]
            sign = -sign
        piv = a[k, k]
        pivots.append(float(piv))
        if k + 1 < n:
            fac = a[k + 1 :, k] / piv
            a[k + 1 :, k:] -= np.outer(fac, a[k, k:])

    rank = len(pivots)
    if rank < n:
        det, det_sign, det_log10 = 0.0, 0, -math.inf
    else:
        det_sign = sign
        det_log10 = 0.0
        for piv in pivots:
            if piv < 0:
                det_sign = -det_sign
            det_log10 += math.log10(abs(piv))
        det = sign * math.prod(pivots)  # may under/overflow; the log pair survives
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
