"""Data model for linear loaded Volterra integral equations of the second kind.

A problem describes

    a0(t) x(t) + sum_j a_j(t) x(t_j) = lam * int_{t0}^{t} K(t,s) x(s) ds + f(t)

on an interval [t0, T].  The fixed abscissae t_j (strictly inside the
interval) are the load points; the values x(t_j) entering the equation
are the loads.  Coefficient functions are :class:`ScalarFunction`
values, built either from a parsed expression or from any Python
callable; one call path evaluates functions of ``t`` and of ``(t, s)``
on scalars and numpy arrays alike, and refuses a non-finite value, formula
or callable, with an :class:`~lvie.expressions.EvalError` naming its point.

Problems are immutable after construction and safe to share between
concurrent solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .expressions import ParseError, compiled, finite, is_difference, parse, separable

__all__ = [
    "ScalarFunction",
    "LoadTerm",
    "Problem",
    "ValidationReport",
    "validate_problem",
    "load_point_violation",
    "builtin_problem",
    "builtin_names",
]

_KERNEL_BLOCK_ROWS = 16  # sample rows per kernel call in validate_problem


class ScalarFunction:
    """A pure real-valued function of ``t`` or of ``(t, s)``.

    Wraps either a parsed expression or a plain callable.  Inputs may
    be scalars or numpy arrays; two-argument functions broadcast their
    arguments, and the output always has the broadcast shape (constants
    are expanded).  Scalar inputs give a plain ``float`` back.  Every value
    returned is finite; :func:`lvie.expressions.finite` raises ``EvalError``
    at the first other entry, row-major ("non-finite value nan at t=0.5, s=0").

    ``source`` is a promise: when it parses, the function is that formula
    (a wrapper that keeps the source must keep the values); the default
    ``"<callable>"`` never parses.  Structure is read off it on first use
    (:attr:`is_difference`, :attr:`separable`) and kept.  The function's own
    values always come from the callable; the factor values of
    :attr:`separable` come from subtrees of ``source``, and a caller that
    uses them checks them against the callable.
    """

    def __init__(self, fn: Callable, arity: int, source: str = "<callable>"):
        if arity not in (1, 2):
            raise ValueError("arity must be 1 or 2")
        self._fn = fn
        self.arity = arity
        self.source = source

    @classmethod
    def from_expression(cls, text: str, arity: int) -> "ScalarFunction":
        expr = parse(text)
        if arity == 1 and "s" in expr.variables():
            raise ValueError(
                f"one-argument expression {text!r} references the variable 's'"
            )
        return cls(compiled(expr), arity, text)

    @classmethod
    def constant(cls, value: float, arity: int = 1) -> "ScalarFunction":
        value = float(value)
        return cls(lambda *args: value, arity, repr(value))

    @cached_property
    def is_difference(self) -> bool:
        """True for a function of (t, s) whose ``source`` depends on t - s only."""
        try:
            return self.arity == 2 and is_difference(parse(self.source))
        except ParseError:
            return False

    @cached_property
    def separable(self) -> Optional[tuple[tuple["ScalarFunction", "ScalarFunction"], ...]]:
        """``((u_1, v_1), ...)`` with f(t, s) = sum_r u_r(t) v_r(s), read off
        ``source`` (see :func:`lvie.expressions.separable`), or None.

        Each factor is a one-argument function.  None for a function of t
        alone, and for a ``source`` that does not parse or is no such sum.
        """
        if self.arity != 2:
            return None
        try:
            pairs = separable(parse(self.source))
        except ParseError:
            return None
        if pairs is None:
            return None
        return tuple((_subtree_function(u), _subtree_function(v)) for u, v in pairs)

    def __call__(self, *args):
        if len(args) != self.arity:
            raise TypeError(f"{self!r} takes {self.arity} argument(s), got {len(args)}")
        arrays = [np.asarray(a, dtype=float) for a in args]
        scalar = not any(a.ndim for a in arrays)
        if len(arrays) == 2:
            arrays = np.broadcast_arrays(*arrays)
        out = np.asarray(self._fn(*arrays), dtype=float)
        if out.shape != arrays[0].shape:
            out = np.broadcast_to(out, arrays[0].shape)
        finite(out, *arrays)
        return float(out) if scalar else out

    def __repr__(self):
        return f"ScalarFunction({self.source!r}, arity={self.arity})"


def _subtree_function(expr) -> ScalarFunction:
    """A subtree that references one of t and s, as a function of one argument."""
    fn = compiled(expr)
    return ScalarFunction(lambda x: fn(x, x), 1)


@dataclass(frozen=True)
class LoadTerm:
    """One load: the abscissa t_j and its coefficient a_j(t)."""

    point: float
    coeff: ScalarFunction


@dataclass(frozen=True)
class Problem:
    """A loaded Volterra equation instance; see the module docstring."""

    t0: float
    T: float
    lam: float
    loads: tuple[LoadTerm, ...]
    a0: ScalarFunction
    kernel: ScalarFunction
    rhs: ScalarFunction
    exact: Optional[ScalarFunction] = None
    name: str = ""

    @property
    def load_points(self) -> np.ndarray:
        return np.array([term.point for term in self.loads], dtype=float)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_problem`: pass/fail plus the first violation."""

    passed: bool
    violation: Optional[str] = None

    def __bool__(self) -> bool:
        return self.passed


def load_point_violation(p: Problem) -> Optional[str]:
    """Why the load points of ``p`` are misplaced, or None when they increase
    strictly and lie inside the open interval (t0, T)."""
    points = p.load_points
    if np.any(points[1:] <= points[:-1]):
        return "load points not increasing"
    for tj in points:
        if not (p.t0 < tj < p.T):
            return f"load point {tj:.6g} outside the open interval"
    return None


def validate_problem(p: Problem, samples: int = 1000) -> ValidationReport:
    """Check problem invariants on a uniform sample of the interval.

    Returns a report (never raises for bad problem data): interval
    sanity, strictly increasing interior load points, finiteness of all
    coefficient functions, and a0 nonvanishing on the sample grid.
    Sign changes of a0 between adjacent samples are treated as zeros.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")

    if not (np.isfinite(p.t0) and np.isfinite(p.T) and np.isfinite(p.lam)):
        return ValidationReport(False, "interval endpoints and lambda must be finite")
    if not p.t0 < p.T:
        return ValidationReport(False, "interval start must precede interval end")

    violation = load_point_violation(p)
    if violation:
        return ValidationReport(False, violation)

    ts = np.linspace(p.t0, p.T, samples)
    loads = [(term.coeff, f"a{j}") for j, term in enumerate(p.loads, start=1)]
    sampled = []
    for fn, label in [(p.a0, "a0"), *loads, (p.rhs, "f")]:
        try:
            sampled.append(fn(ts))
        except (ArithmeticError, ValueError, TypeError) as err:
            return ValidationReport(False, f"{label} not evaluable: {err}")

    # Kernel is only defined on t0 <= s <= t <= T; sample that triangle in
    # row-major order, a block of rows per call.  The earliest failing
    # block is the violation, as the earliest failing row is in assembly.
    for r0 in range(0, samples, _KERNEL_BLOCK_ROWS):
        rows, cols = np.nonzero(np.tri(min(_KERNEL_BLOCK_ROWS, samples - r0), samples, r0, bool))
        rows += r0
        try:
            p.kernel(ts[rows], ts[cols])
        except (ArithmeticError, ValueError, TypeError) as err:
            return ValidationReport(False, f"kernel not evaluable: {err}")

    a0_vals = sampled[0]
    zeros = np.flatnonzero(a0_vals == 0.0)
    if zeros.size:
        return ValidationReport(False, f"a0 vanishes near t={ts[zeros[0]]:.6g}")
    flips = np.flatnonzero(np.sign(a0_vals[:-1]) != np.sign(a0_vals[1:]))
    if flips.size:
        mid = 0.5 * (ts[flips[0]] + ts[flips[0] + 1])
        return ValidationReport(False, f"a0 vanishes near t={mid:.6g}")

    return ValidationReport(True)


# name: (description, lambda, a0, kernel, f, exact, load coefficients at 0.3 and 0.5)
_BUILTINS: dict[str, tuple] = {
    "model1": (
        "two loads, lambda=1/4, exact solution cos(t)", 0.25, "t^2+1", "t-2*s^2",
        "(t^2+1)*cos(t) + (1-t^3)*cos(3/10) + (t-2)*cos(1/2)"
        " + (t^2/2)*sin(t) - (t/4)*sin(t) + t*cos(t) - sin(t)",
        "cos(t)", ("1-t^3", "t-2"),
    ),
    "model2": (
        "two loads, lambda=1/6, exact solution exp(t)", 1.0 / 6.0, "(2+t)/3", "t-2*s^2",
        "((2+t)/3)*exp(t) + (t^3-1/2)*exp(3/10) + (2*t-t^2)*exp(1/2)"
        " + (exp(t)*t^2)/3 - (5*t*exp(t))/6 + (2*exp(t))/3 + t/6 - 2/3",
        "exp(t)", ("t^3-1/2", "2*t-t^2"),
    ),
}


def builtin_problem(name: str) -> Problem:
    """Return a built-in benchmark problem by name.

    Construction is referentially transparent: repeated calls return
    structurally identical problems.
    """
    try:
        _, lam, a0, kernel, f, exact, loads = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"no such builtin: {name!r}") from None
    fn = ScalarFunction.from_expression
    return Problem(
        t0=0.0,
        T=1.0,
        lam=lam,
        loads=tuple(LoadTerm(point, fn(coeff, 1)) for point, coeff in zip((0.3, 0.5), loads)),
        a0=fn(a0, 1),
        kernel=fn(kernel, 2),
        rhs=fn(f, 1),
        exact=fn(exact, 1),
        name=name,
    )


def builtin_names() -> list[tuple[str, str]]:
    """Names and one-line descriptions of the built-in problems."""
    return [(name, entry[0]) for name, entry in _BUILTINS.items()]
