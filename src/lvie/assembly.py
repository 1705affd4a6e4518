"""Assembly of the collocation system.

Collocating the equation at every mesh node and replacing the integral
over each subinterval by the mean-rectangle (product midpoint) rule
against the piecewise-linear trial function gives, for row i,

    a0(tau_i) x_i + sum_j a_j(tau_i) x_{v_j}
        - sum_{p=1..i} J_p^i (x_{p-1} + x_p)  =  f(tau_i),

    J_p^i = (lam / 2) (tau_p - tau_{p-1}) K(tau_i, (tau_{p-1}+tau_p)/2).

Apart from the load columns v_j the matrix is lower triangular; row 0
has no integral term.  ``CollocationSystem(problem, grid, dense=False)``
builds the system from those two alone, and ``assemble`` only picks the
mode.  A dense system refuses grids of more than ``DENSE_MAX_NODES``
nodes before it evaluates anything; then a0, f and every a_j are
evaluated at the nodes.  A coefficient or kernel evaluation that raises
:class:`EvalError`, a non-finite value included (``ScalarFunction``
refuses those, formula or plain callable), is the :class:`AssemblyError`
of its earliest row (``AssemblyError.row``), in both modes: the row whose
node is the t of its first failing point (``expressions.located``).  By default
the matrix stays implicit: ``CollocationSystem.weights`` recomputes the
weights of any rows and columns on demand (O(N) memory).  ``integral``
(and so ``residual``) reads the weights in one schedule of panels,
``BLOCK_ROWS`` rows and at most ``PANEL_POINTS`` kernel points, and a
dense system subtracts the same panels into its one N^2 array,
``augmented`` (``[A | b]`` stored transposed, ``matrix`` a view of A),
which ``solvers.solve_augmented`` eliminates in place: the Gauss-Jordan
reference path.

``structured_solve`` exploits the shape by superposition and never builds
the matrix: one forward substitution per right-hand side (f and each
negated load column), then a small consistency solve for the load values.
In O(m N) memory, its one schedule solves ``BLOCK_ROWS`` rows at a time
(one ``np.linalg.solve``) on the triangle ``near`` gives and pushes the
far field ahead in dyadic squares, which ``integral`` adds in panels
(O(m N^2) time, O(N/64 + N^2/16384) kernel calls) or on a lag table by
FFTs (O(m N log^2 N) time, N kernel points).

A weight 0.5 lam dtau K that overflows is refused like a failing kernel,
by row, and ``CollocationSystem._panels`` alone puts these faults in row
order: it hands back every row above a failure before it raises.  An
entry that overflows as a sum (the two weights of a pair, or a diagonal
weight plus a0) raises the elimination's row-less
``ValueError("matrix entries must be finite")``: from ``solve_augmented``
once every weight is assembled, from ``structured_solve`` before it solves
the block (a lag system's one triangle: before the first).  So on model1
with K = exp(10 (t - s)), lam = 1e308 and h = 1/64, where a pair sum
overflows at row 33 and a weight at row 37, the structured path raises the
``ValueError`` and the dense path the ``AssemblyError`` of row 37.  Any
other value the structured solve makes that leaves the floats is refused
by its row, without a numpy warning.

Lag table: for a kernel of t - s only (``ScalarFunction.is_difference``)
on a uniform mesh of step h (``Grid.uniform_step``), J_p^i depends on
i - p only.  A streaming system then evaluates K(tau_{j+1}, (tau_0 + tau_1)/2),
j = 0..N-1, once, when it is built (``lag_weights``), copies every panel
out of that table and builds one near triangle for every block; ``integral``
applies a rectangle with both sides past ``PANEL_MAX_SIDE`` as a Toeplitz
matrix, by one FFT convolution, so ``residual`` costs O(N log N).  A
kernel failure in that one call leaves the system on the direct path,
which names the row; dense assembly evaluates every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import solvers  # the load consistency solve calls solvers.gauss_jordan, which bench/tracing.py wraps
from .expressions import EvalError, finite
from .grid import Grid
from .problems import PANEL_POINTS, Problem, ScalarFunction
from .solvers import SINGULAR_TOL, SingularMatrixError, SolvabilityError, augmented

__all__ = ["CollocationSystem", "AssemblyError", "assemble", "structured_solve"]

# Largest grid the dense path materializes: at 2053 nodes (h = 1/2048 on the
# built-in problems) a dense system is one 34 MB array, [A | b] stored
# transposed, assembled in row panels and eliminated in place; past that the
# O(N^3) Gauss-Jordan reference takes minutes and the array gigabytes.
DENSE_MAX_NODES = 2053

BLOCK_ROWS = 64  # rows per panel of the blocked paths, of at most PANEL_POINTS kernel points
# A lag rectangle with both sides longer than this is one FFT product, not panels.
PANEL_MAX_SIDE = 256


class AssemblyError(RuntimeError):
    """A coefficient or kernel evaluation failed at ``row`` (None: the dense-size refusal)."""

    def __init__(self, message: str, row: Optional[int] = None):
        super().__init__(message)
        self.row = row


def check_dense_size(n: int) -> None:
    """Refuse a dense system on more than ``DENSE_MAX_NODES`` nodes, before allocating it."""
    if n > DENSE_MAX_NODES:
        raise AssemblyError(
            f"dense assembly at N={n - 1} needs a {n}x{n} matrix of "
            f"{8 * n * (n + 1) / 1e6:.0f} MB with its right-hand side; "
            f"the limit is {DENSE_MAX_NODES} nodes (use the structured solver)"
        )


@dataclass
class CollocationSystem:
    """The collocation system of ``problem`` on ``grid``, built from those two alone.

    Construction evaluates, in this order: for a ``dense`` system, the
    size refusal (``DENSE_MAX_NODES``, before any evaluation or allocation);
    ``a0_values``, ``rhs`` and ``load_entries`` (a_j(tau_i), shape
    (N+1, number of loads)) at the nodes, refusing a failing evaluation
    with the :class:`AssemblyError` of its row; then, for a dense
    system, ``augmented`` (``solvers.augmented``: row j is column j of
    ``[A | b]``) from the panels ``integral`` reads, with ``matrix`` a
    view of its A, or, for a streaming system (``matrix`` and
    ``augmented`` None) of a difference kernel on a uniform mesh, its lag
    table and near triangle; any other is direct.
    ``weights`` reproduces the quadrature weights of any rows and columns
    without materializing the matrix; ``row_weights`` is its one-row case.
    """

    problem: Problem
    grid: Grid
    dense: bool = False

    def __post_init__(self):
        tau = self.grid.nodes
        n = tau.shape[0]
        if self.dense:
            check_dense_size(n)
        values = (_eval_nodes(tau, label, fn, tau) for label, fn in self.problem.coefficients)
        self.a0_values, self.rhs = next(values), next(values)
        self.load_entries = np.empty((n, len(self.problem.loads)))
        for j, column in enumerate(values):  # one load's values alive at a time
            self.load_entries[:, j] = column
        self._dtau = np.diff(tau)
        self._mids = 0.5 * (tau[:-1] + tau[1:])
        self._lag = self._lags = self._near = self.matrix = self.augmented = None
        self._spectra = {}
        if self.dense:
            self.augmented = at = augmented(n)
            self.matrix = matrix = at[:n].T
            # An entry that overflows is left to the elimination, which refuses it.
            for r0, r1, c0, c1, weights in self._panels(0, n, 0, n - 1):
                with np.errstate(over="ignore"):
                    matrix[r0:r1, c0:c1] -= weights  # the weights of x_k
                    matrix[r0:r1, c0 + 1 : c1 + 1] -= weights  # and of x_{k+1}
                del weights  # not held while the next panel is evaluated
            with np.errstate(over="ignore"):
                at.reshape(-1)[: n * n : n + 1] += self.a0_values  # the diagonal
                for j, v in enumerate(self.load_columns):
                    at[v] += self.load_entries[:, j]  # column v of the matrix
            at[n] = self.rhs
            return
        h = self.grid.uniform_step() if self.problem.kernel.is_difference else None
        if h is None:
            return
        by_lag = np.zeros(2 * n - 2)  # lags N-1 .. 0, then -1 .. -N
        try:  # the lag table: N kernel points in one call
            kvals = self.problem.kernel(tau[1:], self._mids[0])
            with np.errstate(over="raise"):
                by_lag[: n - 1] = 0.5 * self.problem.lam * h * kvals[::-1]
        except (EvalError, FloatingPointError):
            return  # the direct path names the failing row
        self._lag = by_lag[n - 2 :: -1]
        self._lags = sliding_window_view(by_lag, n - 1)[::-1]  # read-only, row i = J_1^i .. J_N^i
        self._near = self.near(1, min(BLOCK_ROWS + 1, n))

    @property
    def load_columns(self) -> tuple[int, ...]:
        return self.grid.load_indices

    @property
    def size(self) -> int:
        return self.rhs.shape[0]

    def weights(self, i0: int, i1: int, k0: int, k1: int) -> np.ndarray:
        """Weights J_{k+1}^i (rows i0 <= i < i1, columns k0 <= k < k1) of x_k + x_{k+1}.

        The kernel is evaluated once, on the Volterra triangle k < i only;
        the rest is zero.  A kernel failure or a weight that overflows
        raises the :class:`AssemblyError` of its own row and abscissa;
        ``_panels`` puts failures in row order.
        """
        if self._lags is not None:
            return self._lags[i0:i1, k0:k1].copy()
        tau = self.grid.nodes
        below, kvals = _eval_nodes(tau, "kernel", self._on_pairs, self.problem.kernel, i0, i1, k0, k1)
        scale = 0.5 * self.problem.lam * self._dtau[k0:k1]
        if below is not None:
            scale = np.broadcast_to(scale, below.shape)[below]
        try:
            with np.errstate(over="raise"):
                w = scale * kvals
        except FloatingPointError:
            with np.errstate(over="ignore"):  # raises at the first weight that overflows
                check = lambda t, s: finite(scale * kvals, t, s)  # noqa: E731
                _eval_nodes(tau, "weight", self._on_pairs, check, i0, i1, k0, k1)
        if below is None:
            return w
        out = np.zeros((i1 - i0, k1 - k0))
        out[below] = w
        return out

    def _on_pairs(self, fn, i0: int, i1: int, k0: int, k1: int) -> tuple:
        """``(below, fn(t, s))`` over the pairs k < i of rows i0..i1-1, columns k0..k1-1.

        ``below`` is None and ``t``, ``s`` broadcast to the full block when
        every pair lies below the diagonal (k1 <= i0); else ``below`` is the
        block's mask of the pairs and ``t``, ``s`` list them in row-major order.
        """
        t, s = self.grid.nodes[i0:i1, None], self._mids[None, k0:k1]
        if k1 <= i0:
            return None, fn(t, s)
        below = np.tri(i1 - i0, k1 - k0, i0 - k0 - 1, dtype=bool)
        return below, fn(np.broadcast_to(t, below.shape)[below], np.broadcast_to(s, below.shape)[below])

    def lag_weights(self) -> Optional[np.ndarray]:
        """Weights by lag, w[d] = J_p^{p+d} for d = 0..N-1, or None (direct path)."""
        return self._lag

    def row_weights(self, i: int) -> np.ndarray:
        """Weights J_1^i .. J_i^i of row i (empty for row 0)."""
        return self.weights(i, i + 1, 0, i)[0]

    def near(self, i0: int, i1: int) -> np.ndarray:
        """Rows i0 <= i < i1 of the matrix less a0 and the loads, on columns i0 - 1 .. i1 - 1.

        Read-only.  Column 0 couples x_{i0-1}; the rest is lower triangular.
        On a lag system a block depends on i1 - i0 only: one of at most
        ``BLOCK_ROWS`` rows is the leading part of the block built with
        the system.
        """
        k = i1 - i0
        if self._near is not None and k <= self._near.shape[0]:
            return self._near[:k, : k + 1]
        block = np.zeros((k, k + 1))
        for r0, r1, c0, c1, J in self._panels(i0, i1, i0 - 1, i1 - 1):
            with np.errstate(over="ignore"):  # structured_solve refuses a sum that overflows
                block[r0 - i0 : r1 - i0, c0 - i0 + 1 : c1 - i0 + 1] -= J  # column k - i0 + 1: x_k
                block[r0 - i0 : r1 - i0, c0 - i0 + 2 : c1 - i0 + 2] -= J  # and x_{k+1}
        block.flags.writeable = False
        return block

    def integral(self, out: np.ndarray, i0: int, x: np.ndarray, k0: int, k1: int) -> None:
        """Add sum_{k0 <= k < k1} J_{k+1}^i (x_k + x_{k+1}) to out[i - i0].

        The rows are i0 <= i < i0 + len(out); ``out`` and the nodal values
        ``x`` hold one column per right-hand side, and the call forms the
        pair sums once.  The weights come from ``_panels``, except on a lag
        system when both sides of the rectangle exceed ``PANEL_MAX_SIDE``:
        then they form a Toeplitz matrix, applied by FFT.  A kernel failure
        raises the :class:`AssemblyError` of the earliest failing row.
        """
        i1 = i0 + out.shape[0]
        y = x[k0:k1] + x[k0 + 1 : k1 + 1]
        if min(i1 - i0, k1 - k0) > PANEL_MAX_SIDE and self._lag is not None:
            self._toeplitz_product(out, i0, y, k0)
            return
        for r0, r1, c0, c1, weights in self._panels(i0, i1, k0, k1):
            out[r0 - i0 : r1 - i0] += weights @ y[c0 - k0 : c1 - k0]

    def _panels(self, i0: int, i1: int, k0: int, k1: int):
        """Yield ``(r0, r1, c0, c1, weights(r0, r1, c0, c1))`` over rows i0..i1-1 and columns k0..k1-1.

        Panels of ``BLOCK_ROWS`` rows by ``PANEL_POINTS // BLOCK_ROWS``
        columns, none right of the panel's last row.  It alone orders
        faults: a panel failing at row e is evaluated again on its rows
        before e until it succeeds; once every column panel of the rows is
        tried, the :class:`AssemblyError` of the earliest failing row is
        raised, and every row above it has received every panel.
        """
        width = PANEL_POINTS // BLOCK_ROWS
        for r0 in range(i0, i1, BLOCK_ROWS):
            r1 = min(r0 + BLOCK_ROWS, i1)
            errors = []
            for c0 in range(k0, min(k1, r1 - 1), width):
                c1 = min(c0 + width, k1, r1 - 1)
                stop = r1
                while stop > max(r0, c0 + 1):  # rows r0..stop-1 meet columns c0.. on the triangle
                    try:
                        yield r0, stop, c0, c1, self.weights(r0, stop, c0, c1)
                        break
                    except AssemblyError as err:
                        errors.append(err)
                        stop = err.row
            if errors:
                raise min(errors, key=lambda err: err.row)

    def _toeplitz_product(self, out: np.ndarray, i0: int, y: np.ndarray, k0: int) -> None:
        """Add sum_c w[i0 + r - 1 - k0 - c] y[c] to out[r], w = 0 outside 0..N-1.

        With R = len(out) and C = len(y) the lags run from ``start`` =
        i0 - k0 - C, and out[r] is entry C - 1 + r of the convolution of
        w[start:] with y: one circular convolution of a period of at least
        R + C - 1 has no wrap-around there.  The spectrum of w is kept per
        (start, period).  The columns of y go in groups whose transforms
        hold at most ``PANEL_POINTS`` / 2 points (one column at a time past
        that).
        """
        rows, cols = out.shape[0], y.shape[0]
        start = i0 - k0 - cols
        size = 1 << (rows + cols - 2).bit_length()  # a power of two >= R + C - 1
        spectrum = self._spectra.get((start, size))
        if spectrum is None:
            w, seg = self._lag, np.zeros(size)
            lo, hi = max(start, 0), min(start + size, w.size)
            seg[lo - start : hi - start] = w[lo:hi]
            spectrum = self._spectra[start, size] = np.fft.rfft(seg)[:, None]
        step = max(1, PANEL_POINTS // (2 * size))
        for j0 in range(0, y.shape[1], step):
            f = np.fft.rfft(y[:, j0 : j0 + step], size, axis=0)
            f *= spectrum
            out[:, j0 : j0 + step] += np.fft.irfft(f, size, axis=0)[cols - 1 : cols - 1 + rows]

    def residual(self, x) -> float:
        """Max-abs collocation residual of nodal values ``x``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.size,):
            raise ValueError(f"expected {self.size} nodal values, got shape {x.shape}")
        acc = np.zeros((self.size, 1))
        self.integral(acc, 0, x[:, None], 0, self.size - 1)
        load_part = self.load_entries @ x[list(self.load_columns)]
        return float(np.abs(self.a0_values * x + load_part - acc[:, 0] - self.rhs).max())


def _eval_nodes(tau: np.ndarray, label: str, fn, *args):
    """``fn(*args)``, ``label`` at points whose t are nodes of ``tau``; an :class:`EvalError`
    naming its point is the AssemblyError of the row of that t, one naming none is raised as is."""
    try:
        return fn(*args)
    except EvalError as err:
        if not err.point:
            raise
        i = int(np.searchsorted(tau, err.point[0]))
        raise AssemblyError(f"{label} failed at row {i}, t={tau[i]:.6g}: {err}", i) from err


def assemble(p: Problem, g: Grid, mode: str = "streaming") -> CollocationSystem:
    """The collocation system of problem ``p`` on grid ``g``: ``CollocationSystem(p, g, dense)``.

    ``mode`` is ``"streaming"`` (row weights on demand) or ``"dense"``
    (also materialize ``matrix``; refused past ``DENSE_MAX_NODES`` nodes
    before anything is evaluated or allocated).
    """
    if mode not in ("dense", "streaming"):
        raise ValueError(f"unknown assembly mode {mode!r}")
    return CollocationSystem(p, g, dense=mode == "dense")


def structured_solve(system: CollocationSystem) -> np.ndarray:
    """Solve a collocation system via its triangular-plus-load-columns shape.

    Rows after row 0 go in blocks of ``BLOCK_ROWS``, each one LU solve.
    Once block b (rows r0..r1-1) is solved, the nodal values X[:r1] push
    the last M = BLOCK_ROWS * 2^v pairs of columns before r1 - 1, 2^v the
    largest power of two dividing b + 1, into the next M rows of B:
    squares that tile the strict lower triangle of blocks (the dyadic
    splitting of Hairer, Lubich and Schlichte, 1985), adding every pair of
    a row and an earlier column outside the row's own block once.

    The first row at fault raises: :class:`SolvabilityError` for a
    triangular pivot below ``SINGULAR_TOL`` relative to max|a0|, a block
    LAPACK finds singular or a solution that overflows (a non-finite row
    of a right-hand side's substitution or of the solution),
    :class:`AssemblyError` for a kernel failure or non-finite kernel
    value.  A failing square has reached every row above its failure
    (``_panels``), so the block that reaches the earliest failing row
    solves and checks the rows before it, then raises.  Row 0 and the
    blocks run under one ``np.errstate(all="ignore")``, as every value
    made there is refused by its row; the load consistency solve does not.
    Agrees with ``gauss_jordan`` on the materialized matrix to rounding.
    """
    n = system.size
    m1 = len(system.load_columns)
    B = np.column_stack([system.rhs, -system.load_entries])
    a0 = system.a0_values
    tiny = SINGULAR_TOL * (float(np.abs(a0).max()) or 1.0)

    def check_solved(r0, rows):  # the refusal of a solution that overflows
        if not np.isfinite(rows).all():
            r = r0 + int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
            raise SolvabilityError(f"solution overflows at row {r}, t={system.grid.nodes[r]:.6g}")

    def check_finite(near, diagonal, a0_rows):  # the refusal of a sum that overflows
        if not (np.isfinite(near).all() and np.isfinite(diagonal + a0_rows).all()):
            raise ValueError("matrix entries must be finite")

    def zero_pivot(r):
        return SolvabilityError(f"zero diagonal entry in the triangular part at row {r}")

    X = np.empty_like(B)
    if abs(a0[0]) < tiny:
        raise zero_pivot(0)
    shared = system._near  # every block of a lag system reads this one triangle, of one diagonal weight
    fault = None  # the earliest kernel failure met so far
    with np.errstate(all="ignore"):  # refused by row below
        X[0] = B[0] / a0[0]
        check_solved(0, X[:1])
        if shared is not None:
            check_finite(shared, shared[0, 1], a0[1:])
        for b, r0 in enumerate(range(1, n, BLOCK_ROWS)):
            r1 = min(r0 + BLOCK_ROWS, n if fault is None else fault.row)
            try:
                near = system.near(r0, r1)
            except AssemblyError as err:
                fault, r1 = err, err.row
                near = system.near(r0, r1)
            if shared is None:
                check_finite(near, np.diagonal(near, 1), a0[r0:r1])
            k = r1 - r0
            T = near[:, 1:].copy()
            d = T.reshape(-1)[:: k + 1]  # the diagonal, a view
            d += a0[r0:r1]
            if np.abs(d).min(initial=np.inf) < tiny:  # solve the rows before the first zero pivot
                k = int(np.flatnonzero(np.abs(d) < tiny)[0])
            try:
                X[r0 : r0 + k] = np.linalg.solve(T[:k, :k], B[r0 : r0 + k] - near[:k, :1] * X[r0 - 1])
            except np.linalg.LinAlgError as err:
                raise SolvabilityError(f"block of rows {r0}..{r0 + k - 1} is singular to working precision") from err
            check_solved(r0, X[r0 : r0 + k])
            if k < r1 - r0:
                raise zero_pivot(r0 + k)
            if fault is not None and fault.row == r1:  # the block stops at a kernel failure
                raise fault
            if r1 < n:
                m = BLOCK_ROWS * ((b + 1) & -(b + 1))
                try:
                    system.integral(B[r1 : r1 + m], r1, X, r1 - 1 - m, r1 - 1)
                except AssemblyError as err:
                    if fault is None or err.row < fault.row:
                        fault = err
    if m1 == 0:
        return X[:, 0]

    vs = list(system.load_columns)
    try:
        c = solvers.gauss_jordan(np.eye(m1) - X[vs, 1:], X[vs, 0])
    except SingularMatrixError as err:
        raise SolvabilityError(f"load consistency system is singular: {err}") from err
    with np.errstate(over="ignore", invalid="ignore"):  # refused by row below
        x = X[:, 0] + X[:, 1:] @ c
    check_solved(0, x[:, None])
    return x
