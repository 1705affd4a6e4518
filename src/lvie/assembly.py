"""Assembly of the collocation system.

Collocating the equation at every mesh node and replacing the integral
over each subinterval by the mean-rectangle (product midpoint) rule
against the piecewise-linear trial function gives, for row i,

    a0(tau_i) x_i + sum_j a_j(tau_i) x_{v_j}
        - sum_{p=1..i} J_p^i (x_{p-1} + x_p)  =  f(tau_i),

    J_p^i = (lam / 2) (tau_p - tau_{p-1}) K(tau_i, (tau_{p-1}+tau_p)/2).

Apart from the load columns v_j the matrix is lower triangular; row 0
has no integral term.  By default the matrix stays implicit: the node
values of the coefficients are stored and ``CollocationSystem.weights``
recomputes the weights of any rows and columns on demand (O(N) memory).
The structured solver reads each block's near triangle from ``near`` and
has ``integral`` add the squares of its far field.  ``integral``, and so
``residual``, reads the weights in panels of at most ``BLOCK_ROWS`` rows
and ``PANEL_POINTS`` kernel points; a kernel failure names the earliest
failing row (``AssemblyError.row``).  ``mode="dense"`` also materializes
the matrix, for the Gauss-Jordan reference path, on grids of at most
``DENSE_MAX_NODES`` nodes, from row panels of at most ``PANEL_POINTS``
weights.

Lag table: for a kernel of t - s only (``ScalarFunction.is_difference``)
on a uniform mesh of step h (``Grid.uniform_step``), J_p^i depends on
i - p only.  A streaming system then evaluates K(tau_{j+1}, (tau_0 + tau_1)/2),
j = 0..N-1, once on first use (``lag_weights``), copies every panel out
of that table and builds one near triangle for every block; ``integral``
applies a rectangle with both sides past ``PANEL_MAX_SIDE`` as a Toeplitz
matrix, by one FFT convolution, so ``residual`` costs O(N log N).  A
kernel failure there leaves the direct path, which names the row as
before; dense assembly and ``quad_weight`` evaluate every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    The weight multiplies both nodal values x_{p-1} and x_p.
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
    """The assembled linear system plus its structural decomposition.

    ``matrix`` is the full dense matrix (None unless assembled in dense
    mode).  ``load_entries`` holds a_j(tau_i) per node and load.
    ``weights`` reproduces the quadrature weights of any rows and columns
    without materializing the matrix; ``row_weights`` is its one-row case.
    """

    problem: Problem
    grid: Grid
    rhs: np.ndarray
    a0_values: np.ndarray
    load_columns: tuple[int, ...]
    load_entries: np.ndarray  # shape (N+1, number of loads)
    matrix: Optional[np.ndarray] = None
    _mids: np.ndarray = field(init=False, repr=False)
    _dtau: np.ndarray = field(init=False, repr=False)
    _lag_step: Optional[float] = field(default=None, init=False, repr=False)
    _lag: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _lags: Optional[np.ndarray] = field(default=None, init=False, repr=False)  # read-only, row i = J_1^i .. J_N^i
    _spectra: dict = field(default_factory=dict, init=False, repr=False)
    _near: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        tau = self.grid.nodes
        self._dtau = np.diff(tau)
        self._mids = 0.5 * (tau[:-1] + tau[1:])

    @property
    def size(self) -> int:
        return self.rhs.shape[0]

    def weights(self, i0: int, i1: int, k0: int, k1: int) -> np.ndarray:
        """Weights J_{k+1}^i (rows i0 <= i < i1, columns k0 <= k < k1) of x_k + x_{k+1}.

        The kernel is evaluated on the Volterra triangle k < i only; the
        rest is zero.  A kernel failure raises :class:`AssemblyError`
        naming the first failing row and its abscissa.
        """
        if self.lag_weights() is not None:
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
        """Weights by lag, w[d] = J_p^{p+d} for d = 0..N-1, or None (direct path).

        Tabulated on first use: N kernel points in one call.
        """
        if self._lag_step is not None:  # tabulate once
            h, self._lag_step = self._lag_step, None
            try:
                kvals = self.problem.kernel(self.grid.nodes[1:], self._mids[0])
            except EvalError:
                return None
            n = kvals.size
            by_lag = np.zeros(2 * n)  # lags N-1 .. 0, then -1 .. -N
            by_lag[:n] = 0.5 * self.problem.lam * h * kvals[::-1]
            self._lag = by_lag[n - 1 :: -1]
            self._lags = sliding_window_view(by_lag, n)[::-1]
        return self._lag

    def row_weights(self, i: int) -> np.ndarray:
        """Weights J_1^i .. J_i^i of row i (empty for row 0)."""
        return self.weights(i, i + 1, 0, i)[0]

    def near(self, i0: int, i1: int) -> np.ndarray:
        """Rows i0 <= i < i1 of the matrix less a0 and the loads, on columns i0 - 1 .. i1 - 1.

        Read-only.  Column 0 couples x_{i0-1}; the rest is lower triangular.
        The last block built is kept: on a lag system a block depends on
        i1 - i0 only, so a block no longer than it is its leading part.
        """
        k = i1 - i0
        if self._near is None or self._near.shape[0] < k or self.lag_weights() is None:
            J = self.weights(i0, i1, i0 - 1, i1 - 1)
            block = np.zeros((k, k + 1))
            block[:, :k] -= J
            block[:, 1:] -= J
            block.flags.writeable = False
            self._near = block
        return self._near[:k, : k + 1]

    def integral(self, out: np.ndarray, i0: int, y: np.ndarray, k0: int, k1: int) -> None:
        """Add sum_{k0 <= k < k1} J_{k+1}^i y_k, y_k = x_k + x_{k+1}, to out[i - i0].

        The rows are i0 <= i < i0 + len(out).  The weights come in panels
        of ``BLOCK_ROWS`` rows and ``PANEL_POINTS`` points, except on a lag
        system when both sides of the rectangle exceed ``PANEL_MAX_SIDE``:
        then they form a Toeplitz matrix, applied by FFT.  A kernel failure
        raises the :class:`AssemblyError` of the earliest failing row.
        """
        i1 = i0 + out.shape[0]
        if min(i1 - i0, k1 - k0) > PANEL_MAX_SIDE and self.lag_weights() is not None:
            self._toeplitz_product(out, i0, y[k0:k1], k0)
            return
        width = PANEL_POINTS // BLOCK_ROWS
        for r0 in range(i0, i1, BLOCK_ROWS):
            r1 = min(r0 + BLOCK_ROWS, i1)
            errors = []
            for c0 in range(k0, min(k1, r1 - 1), width):
                c1 = min(c0 + width, k1, r1 - 1)
                try:
                    out[r0 - i0 : r1 - i0] += self.weights(r0, r1, c0, c1) @ y[c0:c1]
                except AssemblyError as err:
                    errors.append(err)
            if errors:  # a later column panel may fail in an earlier row
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
        y2 = y if y.ndim == 2 else y[:, None]
        out2 = out if out.ndim == 2 else out[:, None]
        step = max(1, PANEL_POINTS // (2 * size))
        for j0 in range(0, y2.shape[1], step):
            f = np.fft.rfft(y2[:, j0 : j0 + step], size, axis=0)
            f *= spectrum
            out2[:, j0 : j0 + step] += np.fft.irfft(f, size, axis=0)[cols - 1 : cols - 1 + rows]

    def residual(self, x) -> float:
        """Max-abs collocation residual of nodal values ``x``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.size,):
            raise ValueError(f"expected {self.size} nodal values, got shape {x.shape}")
        acc = np.zeros(self.size)
        self.integral(acc, 0, x[:-1] + x[1:], 0, self.size - 1)
        load_part = self.load_entries @ x[list(self.load_columns)]
        return float(np.abs(self.a0_values * x + load_part - acc - self.rhs).max())


def _eval_nodes(fn: ScalarFunction, tau: np.ndarray, label: str) -> np.ndarray:
    try:
        return np.atleast_1d(fn(tau))
    except EvalError:
        # Locate the first failing node for the error report.
        for i, t in enumerate(tau):
            try:
                fn(float(t))
            except EvalError as err:
                raise AssemblyError(f"{label} failed at row {i}, t={t:.6g}: {err}", i) from err
        raise


def assemble(p: Problem, g: Grid, mode: str = "streaming") -> CollocationSystem:
    """Assemble the collocation system for problem ``p`` on grid ``g``.

    ``mode`` is ``"streaming"`` (row weights on demand) or ``"dense"``
    (also materialize ``matrix``).  Dense assembly refuses grids of more
    than ``DENSE_MAX_NODES`` (2053) nodes before allocating anything.
    The kernel is only evaluated on the Volterra triangle s <= t.
    Evaluation failures of coefficient and kernel functions are reported
    with the row index and abscissa.
    """
    if mode not in ("dense", "streaming"):
        raise ValueError(f"unknown assembly mode {mode!r}")
    tau = g.nodes
    n = tau.shape[0]
    if mode == "dense":
        check_dense_size(n)

    a0_values = _eval_nodes(p.a0, tau, "a0")
    rhs = _eval_nodes(p.rhs, tau, "f")
    load_entries = np.empty((n, len(p.loads)))
    for j, term in enumerate(p.loads):
        load_entries[:, j] = _eval_nodes(term.coeff, tau, f"a{j + 1}")

    system = CollocationSystem(
        problem=p,
        grid=g,
        rhs=rhs,
        a0_values=a0_values,
        load_columns=g.load_indices,
        load_entries=load_entries,
        matrix=None,
    )
    if mode == "streaming":
        system._lag_step = g.uniform_step() if p.kernel.is_difference else None
        return system

    # Row panels i0 <= i < i1 = i0 + r with r the largest count of rows whose r x (i1 - 1)
    # weights fit in PANEL_POINTS; row i holds J_1^i .. J_i^i, as in ``row_weights(i)``.
    matrix = np.zeros((n, n))
    i0 = 1
    while i0 < n:
        i1 = min(n, i0 + max(1, (math.isqrt((i0 - 1) ** 2 + 4 * PANEL_POINTS) - i0 + 1) // 2))
        weights = system.weights(i0, i1, 0, i1 - 1)
        matrix[i0:i1, : i1 - 1] -= weights
        matrix[i0:i1, 1:i1] -= weights
        i0 = i1
    np.fill_diagonal(matrix, matrix.diagonal() + a0_values)
    for j, v in enumerate(g.load_indices):
        matrix[:, v] += load_entries[:, j]
    system.matrix = matrix
    return system
