"""Data model for linear loaded Volterra integral equations of the second kind.

A problem describes

    a0(t) x(t) + sum_j a_j(t) x(t_j) = lam * int_{t0}^{t} K(t,s) x(s) ds + f(t)

on an interval [t0, T].  The fixed abscissae t_j (strictly inside the
interval) are the load points; the values x(t_j) entering the equation
are the loads.  A :class:`Problem` is well-formed once built, and
:func:`check_inside` is the one test of points against an interval.
Coefficient functions are :class:`ScalarFunction` values, built either
from a parsed expression or from any Python callable; one call path
evaluates functions of ``t`` and of ``(t, s)`` on scalars and numpy
arrays alike, and raises a domain error or a non-finite value, formula or
callable, as an :class:`~lvie.expressions.EvalError` naming its first
failing point (``expressions.located``).  ``Problem.coefficients`` is the
one order of a0, f, a_1 ... a_m for assembly, the resolvent and validation.

Problems are immutable after construction and safe to share between
concurrent solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .expressions import ParseError, compiled, finite, is_difference, located, parse, separable

__all__ = [
    "ScalarFunction",
    "LoadTerm",
    "Problem",
    "ValidationReport",
    "validate_problem",
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
    at the first other entry, row-major ("non-finite value nan at t=0.5, s=0"),
    and a domain error names its first failing point the same way
    (:func:`lvie.expressions.located`).

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
        out = located(self._values, *arrays)
        return float(out) if scalar else out

    def _values(self, *arrays):
        """The callable's finite values on ``arrays`` (one shape), as an array of that shape."""
        out = np.asarray(self._fn(*arrays), dtype=float)
        if out.shape != arrays[0].shape:
            out = np.broadcast_to(out, arrays[0].shape)
        return finite(out, *arrays)

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
    """A loaded Volterra equation instance; see the module docstring.

    Construction (``dataclasses.replace`` too) raises ``ValueError`` for a non-finite
    t0, T or lam, t0 >= T, or load points not strictly increasing inside (t0, T).
    """

    t0: float
    T: float
    lam: float
    loads: tuple[LoadTerm, ...]
    a0: ScalarFunction
    kernel: ScalarFunction
    rhs: ScalarFunction
    exact: Optional[ScalarFunction] = None
    name: str = ""

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t0, self.T, self.lam))):
            raise ValueError("interval endpoints and lambda must be finite")
        if not self.t0 < self.T:
            raise ValueError("interval start must precede interval end")
        points = self.load_points.tolist()
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ValueError(f"cannot place load points {points}: load points not increasing")
        outside = [tj for tj in points if not self.t0 < tj < self.T]
        if outside:
            raise ValueError(f"cannot place load points {points}: load point {outside[0]:.6g} outside the open interval")

    @property
    def coefficients(self) -> tuple[tuple[str, ScalarFunction], ...]:
        """``(("a0", a0), ("f", rhs), ("a1", a_1), ...)``: the functions of t in assembly's order."""
        return (("a0", self.a0), ("f", self.rhs), *((f"a{j}", term.coeff) for j, term in enumerate(self.loads, 1)))

    @property
    def load_points(self) -> np.ndarray:
        return np.array([term.point for term in self.loads], dtype=float)

    def check_inside(self, **points) -> None:
        """:func:`check_inside` on [t0, T]."""
        check_inside(self.t0, self.T, **points)


def check_inside(t0: float, T: float, **points) -> None:
    """``ValueError`` at the first point outside [t0, T], by keyword, then row-major:
    ``check_inside(0, 1, sample=[0.5, nan])`` raises "sample=nan outside [0, 1]"."""
    for name, values in points.items():
        values = np.asarray(values, dtype=float)
        outside = ~((values >= t0) & (values <= T))
        if outside.any():
            raise ValueError(f"{name}={values.flat[outside.argmax()]:.6g} outside [{t0:.6g}, {T:.6g}]")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_problem`: pass/fail plus the first violation."""

    passed: bool
    violation: Optional[str] = None

    def __bool__(self) -> bool:
        return self.passed


def validate_problem(p: Problem) -> ValidationReport:
    """Check the coefficient functions of ``p`` on 1000 uniform samples of [t0, T].

    Returns a report (never raises for bad problem data): every function
    evaluable and finite on the samples (the kernel on their triangle s <= t),
    and a0 nonvanishing there; a sign change between samples counts as a zero.
    """
    ts = np.linspace(p.t0, p.T, 1000)
    sampled = []
    for label, fn in p.coefficients:
        try:
            sampled.append(fn(ts))
        except (ArithmeticError, ValueError, TypeError) as err:
            return ValidationReport(False, f"{label} not evaluable: {err}")

    # Kernel is only defined on t0 <= s <= t <= T; sample that triangle in
    # row-major order, a block of rows per call.  The failure of the
    # earliest failing block names its first failing point, as in assembly.
    for r0 in range(0, ts.size, _KERNEL_BLOCK_ROWS):
        rows, cols = np.nonzero(np.tri(min(_KERNEL_BLOCK_ROWS, ts.size - r0), ts.size, r0, bool))
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
