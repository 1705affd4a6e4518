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
of its earliest row (``AssemblyError.row``), in both modes.  By default
the matrix stays implicit: ``CollocationSystem.weights`` recomputes the
weights of any rows and columns on demand (O(N) memory).  The structured
solver reads each block's near triangle from ``near`` and has
``integral`` add the squares of its far field.  ``integral`` (and so
``residual``) reads the weights in one schedule of panels, ``BLOCK_ROWS``
rows and at most ``PANEL_POINTS`` kernel points, and a dense system
subtracts the same panels into the matrix it materializes for the
Gauss-Jordan reference path.

Lag table: for a kernel of t - s only (``ScalarFunction.is_difference``)
on a uniform mesh of step h (``Grid.uniform_step``), J_p^i depends on
i - p only.  A streaming system then evaluates K(tau_{j+1}, (tau_0 + tau_1)/2),
j = 0..N-1, once, when it is built (``lag_weights``), copies every panel
out of that table and builds one near triangle for every block; ``integral``
applies a rectangle with both sides past ``PANEL_MAX_SIDE`` as a Toeplitz
matrix, by one FFT convolution, so ``residual`` costs O(N log N).  A
kernel failure in that one call leaves the system on the direct path,
which names the row; dense assembly and ``quad_weight`` evaluate every
pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .expressions import EvalError
from .grid import Grid
from .problems import Problem, ScalarFunction

__all__ = ["CollocationSystem", "AssemblyError", "quad_weight", "assemble"]

# Largest grid the dense path materializes: 2053 nodes (h = 1/2048 on the
# built-in problems) make a 34 MB matrix, built in row panels, and a dense
# solve holds it and one transposed copy, 67 MB; past that the O(N^3)
# Gauss-Jordan reference takes minutes and the matrix gigabytes.
DENSE_MAX_NODES = 2053

# Panels of the blocked paths: past 16384 points (128 KiB per temporary) a
# kernel call costs about twice as much per point.
BLOCK_ROWS = 64
PANEL_POINTS = 16384
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
            f"{8 * n * n / 1e6:.0f} MB; the limit is {DENSE_MAX_NODES} nodes "
            "(use the structured solver)"
        )


def quad_weight(p_idx: int, i: int, g: Grid, kernel: ScalarFunction, lam: float) -> float:
    """Midpoint product-quadrature weight J_p^i for row i, subinterval p.

    The weight multiplies both nodal values x_{p-1} and x_p.  It is the
    per-pair reference, straight from the definition, that
    ``test_rows_match_quad_weight`` checks ``CollocationSystem.weights`` against.
    """
    n_max = g.last_index
    if not 1 <= p_idx <= i <= n_max:
        raise IndexError(f"need 1 <= p ({p_idx}) <= i ({i}) <= N ({n_max})")
    tau = g.nodes
    dt = tau[p_idx] - tau[p_idx - 1]
    mid = 0.5 * (tau[p_idx - 1] + tau[p_idx])
    return 0.5 * lam * dt * float(kernel(tau[i], mid))


@dataclass
class CollocationSystem:
    """The collocation system of ``problem`` on ``grid``, built from those two alone.

    Construction evaluates, in this order: for a ``dense`` system, the
    size refusal (``DENSE_MAX_NODES``, before any evaluation or allocation);
    ``a0_values``, ``rhs`` and ``load_entries`` (a_j(tau_i), shape
    (N+1, number of loads)) at the nodes, refusing a failing evaluation
    with the :class:`AssemblyError` of its row; then, for a dense
    system, ``matrix`` from the panels ``integral`` reads, or, for a
    streaming system (``matrix`` None) of a difference kernel on a
    uniform mesh, its lag table and near triangle; any other is direct.
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
        self.a0_values = _eval_nodes(self.problem.a0, tau, "a0")
        self.rhs = _eval_nodes(self.problem.rhs, tau, "f")
        self.load_entries = np.empty((n, len(self.problem.loads)))
        for j, term in enumerate(self.problem.loads):
            self.load_entries[:, j] = _eval_nodes(term.coeff, tau, f"a{j + 1}")
        self._dtau = np.diff(tau)
        self._mids = 0.5 * (tau[:-1] + tau[1:])
        self._lag = self._lags = self._near = self.matrix = None
        self._spectra = {}
        if self.dense:
            self.matrix = matrix = np.zeros((n, n))
            for r0, r1, c0, c1, weights in self._panels(0, n, 0, n - 1):
                matrix[r0:r1, c0:c1] -= weights  # the weights of x_k
                matrix[r0:r1, c0 + 1 : c1 + 1] -= weights  # and of x_{k+1}
            np.fill_diagonal(matrix, matrix.diagonal() + self.a0_values)
            for j, v in enumerate(self.load_columns):
                matrix[:, v] += self.load_entries[:, j]
            return
        h = self.grid.uniform_step() if self.problem.kernel.is_difference else None
        if h is None:
            return
        try:  # the lag table: N kernel points in one call
            kvals = self.problem.kernel(tau[1:], self._mids[0])
        except EvalError:
            return  # the direct path names the failing row
        by_lag = np.zeros(2 * n - 2)  # lags N-1 .. 0, then -1 .. -N
        by_lag[: n - 1] = 0.5 * self.problem.lam * h * kvals[::-1]
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

        The kernel is evaluated on the Volterra triangle k < i only; the
        rest is zero.  A kernel failure raises :class:`AssemblyError`
        naming the first failing row and its abscissa.
        """
        if self._lags is not None:
            return self._lags[i0:i1, k0:k1].copy()
        tau = self.grid.nodes
        below = k1 <= i0  # every pair lies below the diagonal
        if below:
            rows = cols = slice(None)
            t, s = tau[i0:i1, None], self._mids[None, k0:k1]
        else:
            rows, cols = np.tril_indices(i1 - i0, i0 - k0 - 1, k1 - k0)
            t, s = tau[i0 + rows], self._mids[k0 + cols]
        try:
            kvals = self.problem.kernel(t, s)
        except EvalError as err:
            if i1 - i0 == 1:
                msg = f"kernel failed at row {i0}, t={tau[i0]:.6g}: {err}"
                raise AssemblyError(msg, i0) from err
            for i in range(i0, i1):  # locate the failing row
                self.weights(i, i + 1, k0, k1)
            raise
        w = 0.5 * self.problem.lam * self._dtau[k0:k1][cols] * kvals
        if below:
            return w
        out = np.zeros((i1 - i0, k1 - k0))
        out[rows, cols] = w
        return out

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
        J = self.weights(i0, i1, i0 - 1, i1 - 1)
        block = np.zeros((k, k + 1))
        block[:, :k] -= J
        block[:, 1:] -= J
        block.flags.writeable = False
        return block

    def integral(self, out: np.ndarray, i0: int, y: np.ndarray, k0: int, k1: int) -> None:
        """Add sum_{k0 <= k < k1} J_{k+1}^i y_k, y_k = x_k + x_{k+1}, to out[i - i0].

        The rows are i0 <= i < i0 + len(out); ``out`` and ``y`` hold one
        column per right-hand side.  The weights come from ``_panels``,
        except on a lag system when both sides of the rectangle exceed
        ``PANEL_MAX_SIDE``: then they form a Toeplitz matrix, applied by
        FFT.  A kernel failure raises the :class:`AssemblyError` of the
        earliest failing row.
        """
        i1 = i0 + out.shape[0]
        if min(i1 - i0, k1 - k0) > PANEL_MAX_SIDE and self._lag is not None:
            self._toeplitz_product(out, i0, y[k0:k1], k0)
            return
        for r0, r1, c0, c1, weights in self._panels(i0, i1, k0, k1):
            out[r0 - i0 : r1 - i0] += weights @ y[c0:c1]

    def _panels(self, i0: int, i1: int, k0: int, k1: int):
        """Yield ``(r0, r1, c0, c1, weights(r0, r1, c0, c1))`` over rows i0..i1-1 and columns k0..k1-1.

        Panels of ``BLOCK_ROWS`` rows by ``PANEL_POINTS // BLOCK_ROWS``
        columns, none right of the panel's last row.  A failing panel is
        skipped until every column panel of its rows has been tried; then
        the :class:`AssemblyError` of the earliest failing row is raised.
        """
        width = PANEL_POINTS // BLOCK_ROWS
        for r0 in range(i0, i1, BLOCK_ROWS):
            r1 = min(r0 + BLOCK_ROWS, i1)
            errors = []
            for c0 in range(k0, min(k1, r1 - 1), width):
                c1 = min(c0 + width, k1, r1 - 1)
                try:
                    yield r0, r1, c0, c1, self.weights(r0, r1, c0, c1)
                except AssemblyError as err:
                    errors.append(err)
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
        self.integral(acc, 0, (x[:-1] + x[1:])[:, None], 0, self.size - 1)
        load_part = self.load_entries @ x[list(self.load_columns)]
        return float(np.abs(self.a0_values * x + load_part - acc[:, 0] - self.rhs).max())


def _eval_nodes(fn: ScalarFunction, tau: np.ndarray, label: str) -> np.ndarray:
    """``fn`` at the nodes; a failure raises the AssemblyError of its row."""
    try:
        return fn(tau)
    except EvalError:
        # Locate the first failing node for the error report.
        for i, t in enumerate(tau):
            try:
                fn(float(t))
            except EvalError as err:
                raise AssemblyError(f"{label} failed at row {i}, t={t:.6g}: {err}", i) from err
        raise


def assemble(p: Problem, g: Grid, mode: str = "streaming") -> CollocationSystem:
    """The collocation system of problem ``p`` on grid ``g``: ``CollocationSystem(p, g, dense)``.

    ``mode`` is ``"streaming"`` (row weights on demand) or ``"dense"``
    (also materialize ``matrix``; refused past ``DENSE_MAX_NODES`` nodes
    before anything is evaluated or allocated).
    """
    if mode not in ("dense", "streaming"):
        raise ValueError(f"unknown assembly mode {mode!r}")
    return CollocationSystem(p, g, dense=mode == "dense")
