"""Assembly of the collocation system.

Collocating the equation at every mesh node and replacing the integral
over each subinterval by the mean-rectangle (product midpoint) rule
against the piecewise-linear trial function gives, for row i,

    a0(tau_i) x_i + sum_j a_j(tau_i) x_{v_j}
        - sum_{p=1..i} J_p^i (x_{p-1} + x_p)  =  f(tau_i),

    J_p^i = (lam / 2) (tau_p - tau_{p-1}) K(tau_i, (tau_{p-1}+tau_p)/2).

Apart from the load columns v_j the matrix is lower triangular; row 0
has no integral term.  By default the matrix stays implicit: the node
values of the coefficients are stored and the weights of any row are
recomputed on demand (O(N) memory), which is all the structured solver
needs.  ``mode="dense"`` also materializes the matrix, for the
Gauss-Jordan reference path, on grids of at most ``DENSE_MAX_NODES``
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .expressions import EvalError
from .grid import Grid
from .problems import Problem, ScalarFunction

__all__ = ["CollocationSystem", "AssemblyError", "quad_weight", "assemble"]

# Largest grid the dense path materializes: 2053 nodes (h = 1/2048 on the
# built-in problems) make a 34 MB matrix; past that the O(N^3) Gauss-Jordan
# reference takes minutes and the matrix gigabytes.
DENSE_MAX_NODES = 2053


class AssemblyError(RuntimeError):
    """A coefficient or kernel evaluation failed; the message names the row and t."""


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
    ``row_weights`` reproduces the quadrature weights of any row without
    materializing anything.
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

    def __post_init__(self):
        tau = self.grid.nodes
        self._dtau = np.diff(tau)
        self._mids = 0.5 * (tau[:-1] + tau[1:])

    @property
    def size(self) -> int:
        return self.rhs.shape[0]

    def row_weights(self, i: int) -> np.ndarray:
        """Weights J_1^i .. J_i^i of row i (empty for row 0)."""
        if i == 0:
            return np.empty(0)
        tau_i = self.grid.nodes[i]
        try:
            kvals = self.problem.kernel(tau_i, self._mids[:i])
        except EvalError as err:
            raise AssemblyError(f"kernel failed at row {i}, t={tau_i:.6g}: {err}") from err
        return 0.5 * self.problem.lam * self._dtau[:i] * np.atleast_1d(kvals)

    def residual(self, x) -> float:
        """Max-abs collocation residual of nodal values ``x``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.size,):
            raise ValueError(f"expected {self.size} nodal values, got shape {x.shape}")
        load_part = self.load_entries @ x[list(self.load_columns)]
        worst = 0.0
        for i in range(self.size):
            w = self.row_weights(i)
            integral = float(w @ (x[:i] + x[1 : i + 1])) if i else 0.0
            r = self.a0_values[i] * x[i] + load_part[i] - integral - self.rhs[i]
            worst = max(worst, abs(r))
        return worst


def _eval_nodes(fn: ScalarFunction, tau: np.ndarray, label: str) -> np.ndarray:
    try:
        return np.atleast_1d(fn(tau))
    except EvalError:
        # Locate the first failing node for the error report.
        for i, t in enumerate(tau):
            try:
                fn(float(t))
            except EvalError as err:
                raise AssemblyError(f"{label} failed at row {i}, t={t:.6g}: {err}") from err
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
        return system

    # Row i-1 of ``weights`` holds J_1^i .. J_i^i, as in ``row_weights(i)``.
    rows, cols = np.tril_indices(n - 1)
    try:
        kvals = p.kernel(tau[rows + 1], system._mids[cols])
    except EvalError:
        for i in range(1, n):  # locate the failing row for the error report
            system.row_weights(i)
        raise
    weights = np.zeros((n - 1, n - 1))
    weights[rows, cols] = 0.5 * p.lam * system._dtau[cols] * kvals

    matrix = np.zeros((n, n))
    matrix[1:, : n - 1] -= weights
    matrix[1:, 1:] -= weights
    np.fill_diagonal(matrix, matrix.diagonal() + a0_values)
    for j, v in enumerate(g.load_indices):
        matrix[:, v] += load_entries[:, j]
    system.matrix = matrix
    return system
