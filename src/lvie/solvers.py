"""Dense linear algebra: Gauss-Jordan solves, rank, determinant and null space.

One full-pivot Gauss-Jordan core, ``_eliminate``, serves four callers:
``gauss_jordan``, the reference solver, eliminates a copy of ``[a | b]``;
``solve_augmented`` eliminates one in place, an ``augmented`` array that
dense assembly fills, so a dense solve holds one (N+2) x (N+1) array;
``rank_and_det``, the solvability diagnostics, reads rank and
determinant off the pivots and the swap parity, and eliminates an
optional right-hand side with them; ``nullspace`` reads a basis off the
reduced matrix.  The core works on the transpose, so a
step's columns are contiguous rows, and skips the columns left of the
pivot, exact zeros in its row.  On a dense matrix that is n^3/2
multiply-subtracts and 2n^3/3 search reads.  A step whose pivot column is
zero below the pivot leaves the rows below it unchanged, and the next
search reuses their row maxima: the collocation matrix, lower triangular
but for its load columns, takes half its steps so, and model2's system
at h = 1/512 does 0.42 of the dense update and half the searches.
It takes a stack of matrices: each member picks its own pivots and stops
at its own rank, with the bits of its own elimination.  ``rank_and_det``
eliminates a whole stack (the load systems of a lambda sweep) in one
call; the other callers pass a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "SingularMatrixError",
    "SolvabilityError",
    "RankReport",
    "augmented",
    "gauss_jordan",
    "nullspace",
    "rank_and_det",
    "solve_augmented",
]

# Pivots below this share of the largest matrix entry count as zero.
SINGULAR_TOL = 1e-12
RANK_TOL = 1e-10  # rank_and_det's default; classify's rank, pivot and orthogonality tolerance
UPDATE_ROWS = 64  # rows of ``at`` per elimination update: 64 x n doubles stay in cache
# numpy's ufunc buffer, in elements, while eliminating.  At the default 8192 numpy copies
# the update's broadcast product through two 64 KB buffers, 3-5x slower than unbuffered.
BUFFER_SIZE = 64


class SingularMatrixError(ValueError):
    """The elimination met a pivot below the singularity threshold."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class SolvabilityError(ValueError):
    """The structured path found the system unsolvable as posed."""


def _transposed(a, b=None, stacked: bool = False) -> np.ndarray:
    """A copy of ``[a | b]`` (``b`` optional) stored as its transpose, the layout of ``_eliminate``.

    ``a`` is one square matrix and ``b`` one vector, or with ``stacked`` a
    stack (L, n, n) and a stack (L, n); the result has the stack axis
    either way, of length 1 for one matrix.  Its zeros are +0.0.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 + stacked or a.shape[-2] != a.shape[-1]:
        kind = "a stack of square matrices" if stacked else "a square matrix"
        raise ValueError(f"expected {kind}, got shape {a.shape}")
    n = a.shape[-1]
    stack = a if stacked else a[None]
    at = np.empty((stack.shape[0], n + (b is not None), n))
    np.add(stack.transpose(0, 2, 1), 0.0, out=at[:, :n])  # -0.0 + 0.0 is +0.0
    if b is not None:
        b = np.asarray(b, dtype=float)
        if b.shape != a.shape[:-1]:
            raise ValueError(f"right-hand side shape {b.shape} does not match n={n}")
        np.add(b, 0.0, out=at[:, n])
    return at


def _eliminate(at: np.ndarray, tol: float):
    """Full-pivot Gauss-Jordan elimination of a stack of ``aug = [A | R]``, stored as ``at[l] = aug_l.T``.

    ``at`` is C-contiguous, so the columns ``k+1:`` of each ``aug`` that
    step k updates are the row block ``at[l, k+1:]``; the members still
    going are updated together, ``UPDATE_ROWS`` rows at a time through one
    buffer.  Each member's pivot is the first maximum of its
    ``|A[k:, k:]|`` in row-major order: its first row, then the first
    column in that row.  Each member swaps through views and stops at its
    first pivot below ``tol * max|A|``; the others go on in a compacted
    copy, written back at the end.  Returns, per member, the raw pivots
    (their count is the rank), the column order of A and the number of
    swaps; callers read ``aug[:, rank:]`` only, and the pivot columns are
    left unfinished.

    When the pivot column is zero in every unpivoted row of every member
    going on, step k updates rows ``:k+1`` of ``aug`` only, and the next
    search takes the row maxima of this one: the pivot row's slot gets
    row k's maximum and row k's slot is dropped.  The bits are those of
    the full update.  ``x - c*(+-0)`` is ``x`` unless x is -0.0, and the
    unpivoted rows hold no -0.0 if ``at`` has none: an update that gives
    zero there is a difference of equal values or ``+0 - (+-0)``, both
    +0.0, and only the pivot row is divided (``_transposed`` and
    ``solve_augmented`` turn -0.0 into +0.0).  Dropping an all-zero
    column from a row leaves its maximum magnitude as it is, so the
    pivots, ties and swaps stay too.  This
    holds for finite values; an infinite or NaN right-hand side, or an
    overflow, may leave other NaNs and infinities than the full update.  A
    member stopping recomputes the maxima.  A non-finite entry of any A
    raises ``ValueError`` before any step.
    """
    count, width, n = at.shape
    a = at[:, :n]  # max|A| as max(max A, -min A): no |A| copy
    hi, lo = a.max(axis=(1, 2), initial=0.0), a.min(axis=(1, 2), initial=0.0)
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise ValueError("matrix entries must be finite")
    scales = (tol * np.maximum(hi, -lo)).tolist()
    pivots: list[list[float]] = [[] for _ in range(count)]
    cols = [list(range(n)) for _ in range(count)]
    swaps = [0] * count
    live = list(range(count))  # the members still eliminating, in ``work`` order
    work = at  # their rows: ``at`` itself until a member stops
    prod = np.empty((count, min(UPDATE_ROWS, width), n))
    top = None  # each member's max|row| over its unpivoted block, while that block is unchanged
    bufsize = np.setbufsize(BUFFER_SIZE)
    try:
        for k in range(n):
            if top is None:
                sub = work[:, k:n, k:]  # sub[l, j, i] = aug_l[k+i, k+j]; read without a copy
                top, low = sub.max(axis=1), sub.min(axis=1)
                np.maximum(top, np.negative(low, out=low), out=top)
            rows = top.argmax(axis=1).tolist()  # each member's pivot row, less k
            go = []
            for i, a in enumerate(work):
                p = k + rows[i]
                q = k + int(np.abs(a[k:n, p]).argmax())
                piv = float(a[q, p])
                member = live[i]
                if piv == 0.0 or abs(piv) < scales[member]:  # piv == 0 stops a zero A
                    continue
                if p != k:
                    held = a[k:, k].copy()
                    a[k:, k] = a[k:, p]
                    a[k:, p] = held
                    top[i, p - k] = top[i, 0]  # row k, with its maximum, moves to row p
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
                top = None
            # Below the pivot row, a zero pivot column leaves every entry as it is: update rows :k+1.
            m = k + 1 if not work[:, k, k + 1 : n].any() else n
            fac, col, out = work[:, k, None, :m], work[:, :, k, None], prod[: len(live), :, :m]
            for j0 in range(k + 1, width, UPDATE_ROWS):  # row k (aug column k) is unread from here on
                j1 = min(j0 + UPDATE_ROWS, width)
                work[:, j0:j1, :m] -= np.multiply(col[:, j0:j1], fac, out=out[:, : j1 - j0])
            top = top[:, 1:] if m < n and top is not None else None  # row k leaves the block
    finally:
        np.setbufsize(bufsize)
    if work is not at:
        at[live] = work
    return pivots, np.array(cols, dtype=np.intp).reshape(count, n), swaps


def _solutions(at: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """x of every a x = b from a full-rank elimination of the stack of ``[a | b]``."""
    x = np.empty(at.shape[::2])
    x[np.arange(x.shape[0])[:, None], cols] = at[:, -1]
    return x


def augmented(n: int) -> np.ndarray:
    """A zero ``[A | b]`` of an n x n system in the layout :func:`solve_augmented` eliminates.

    The array has shape (n + 1, n): row j holds column j of ``[A | b]``,
    so ``A`` is ``out[:n].T`` and ``b`` is ``out[n]``.
    """
    return np.zeros((n + 1, n))


def solve_augmented(at: np.ndarray) -> np.ndarray:
    """Solve A x = b stored as ``at``, an :func:`augmented` array, by eliminating it in place.

    The bits, the pivots, the refusals and the messages are those of
    :func:`gauss_jordan` on ``(at[:n].T, at[n])``, which works on a copy;
    afterwards ``at`` holds the reduced system, not A and b.
    """
    if at.ndim != 2 or at.shape[0] != at.shape[1] + 1:
        raise ValueError(f"expected an augmented array of shape (n + 1, n), got shape {at.shape}")
    np.add(at, 0.0, out=at)  # -0.0 + 0.0 is +0.0, as in gauss_jordan's copy
    return _solve(at[None])


def gauss_jordan(a, b) -> np.ndarray:
    """Solve a x = b by Gauss-Jordan elimination with full pivoting.

    The pivot at each step is the maximum-magnitude element of the
    remaining submatrix; a pivot below ``SINGULAR_TOL`` relative to the
    largest initial entry raises :class:`SingularMatrixError`, a
    non-finite entry of ``a`` ``ValueError``.  ``a`` and ``b`` are left
    as they are.
    """
    return _solve(_transposed(a, b))


def _solve(at: np.ndarray) -> np.ndarray:
    """x of a x = b from the stack of one ``[a | b]`` stored as ``at[0] = [a | b].T``, eliminated in place."""
    n = at.shape[2]
    pivots, cols, _ = _eliminate(at, SINGULAR_TOL)
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

    ``det`` is the signed product of the pivots, 0 whenever the rank is
    deficient; it may under- or overflow.  ``solution`` is x of
    a x = rhs, at full rank.
    """

    rank: int
    det: float
    solution: Optional[np.ndarray] = None


def rank_and_det(a, tol: float = RANK_TOL, rhs=None) -> RankReport | list[RankReport]:
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
            reports.append(RankReport(rank=rank, det=0.0))
            continue
        det = float((-1) ** swaps * math.prod(pivots))
        reports.append(RankReport(rank, det, None if solutions is None else solutions[i]))
    return reports if stacked else reports[0]
