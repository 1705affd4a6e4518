"""Load-aligned collocation meshes.

The mesh is built segment by segment between consecutive load points
(and the interval endpoints).  A segment of length L is divided into

    n_k = floor(L / h) + 1

equal parts, so the actual spacing L / n_k is strictly below the
requested step h and every load point is a mesh node bit-for-bit.
Nodes are indexed 0..N globally in ascending order; shared segment
endpoints appear once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .problems import Problem

__all__ = ["Grid", "build_grid"]

# Ratios this close to an integer (relatively) are treated as exact before
# flooring, so 4 - 1ulp does not collapse to floor 3.
_FLOOR_SNAP = 1e-12


@dataclass(frozen=True)
class Grid:
    """Mesh nodes plus the bookkeeping that locates the load points.

    ``load_indices[j - 1]`` is the node index of the j-th load point; the
    node equals the point exactly.
    """

    nodes: np.ndarray
    segment_counts: tuple[int, ...]
    load_indices: tuple[int, ...]

    def __post_init__(self):
        self.nodes.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def last_index(self) -> int:
        """N: the largest node index (node count is N + 1)."""
        return self.nodes.shape[0] - 1

    def uniform_step(self) -> float | None:
        """(tau_N - tau_0) / N if all spacings agree to rounding, else None.

        A node is off by at most an ulp of max(|t0|, |T|), a spacing by
        two; the tolerance is four, far below h / n for unequal segments.
        """
        tau, dtau = self.nodes, np.diff(self.nodes)
        if np.ptp(dtau) > 4 * np.spacing(max(abs(tau[0]), abs(tau[-1]))):
            return None
        return float((tau[-1] - tau[0]) / dtau.size)


def _segment_count(length: float, h) -> int:
    if isinstance(h, Fraction):
        ratio = length * h.denominator / h.numerator
    else:
        ratio = length / float(h)
    nearest = round(ratio)
    if abs(ratio - nearest) <= _FLOOR_SNAP * max(1.0, abs(nearest)):
        ratio = nearest
    return int(math.floor(ratio)) + 1


def build_grid(p: Problem, h: float | Fraction) -> Grid:
    """Build the mesh for problem ``p`` at sampling step ``h``.

    ``h`` may be a float or an exact :class:`~fractions.Fraction`
    (preferred inside step-halving ladders, where drift in the floored
    ratio would otherwise change node counts).  Every load point is a node.
    """
    hf = float(h)
    if not hf > 0:
        raise ValueError("h must be positive")
    if hf >= p.T - p.t0:
        raise ValueError("h must be smaller than the interval length")

    breakpoints = [p.t0, *(term.point for term in p.loads), p.T]
    counts = []
    pieces = []
    for a, b in zip(breakpoints, breakpoints[1:]):
        n_k = _segment_count(b - a, h)
        counts.append(n_k)
        pieces.append(np.linspace(a, b, n_k + 1)[:-1])
    pieces.append(np.array([p.T]))
    nodes = np.concatenate(pieces)

    if not np.all(np.diff(nodes) > 0):
        raise ValueError("degenerate mesh: nodes are not strictly increasing")

    load_indices = tuple(int(i) for i in np.cumsum(counts[:-1]))
    return Grid(nodes=nodes, segment_counts=tuple(counts), load_indices=load_indices)
