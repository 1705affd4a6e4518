"""Every structured refusal typed, at the extremes: a generative typed-failure oracle.

Each seeded random problem (hypothesis, derandomized, a fixed example
budget) has extreme but finite data: a0 down to 1e-300, f and the load
coefficients up to +-1e308, lambda in {0, +-1e3, 60, 1e300, -1e308, 5e-324},
and a kernel from the cross-path oracle's formula lists, scaled by an
extreme constant, or one that fails or overflows on part of the Volterra
triangle.  ``solve_collocation(p, h, "structured")`` must return, or raise
one of the structured path's typed refusals:

* an ``AssemblyError`` that names its row;
* a ``SolvabilityError`` (a zero pivot, a block singular to working
  precision, a solution that overflows, a singular load system);
* the row-less ``ValueError("matrix entries must be finite")`` of a
  near-block entry that overflows as a sum.

No numpy exception may escape, and under the tier-1 warning policy a
RuntimeWarning is an error, so none may escape either.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cross_path_oracle import _FAILING, _SEEDED, _kernels, _load_points

from lvie.assembly import AssemblyError
from lvie.problems import LoadTerm, Problem, ScalarFunction
from lvie.solvers import SolvabilityError
from lvie.study import solve_collocation

_A0 = ["1", "2+t", "t-0.5", "1e-20", "1e-300", "1e300", "exp(700*t)"]
_F = ["cos(t)", "1", "1e308", "-1e308", "1e308*t", "exp(800*t)"]
_LOAD_COEFFS = ["1", "t", "1-2*t", "1e308", "-1e308", "1e308*(1-2*t)"]
_LAMBDAS = [0.0, 1e3, -1e3, 60.0, 1e300, -1e308, 5e-324]
_SCALES = ["1", "1e300", "-1e308"]
# Kernels that turn non-finite or fail on part of the triangle (t past 0.6, or t - s past about 0.5).
_PARTLY_FAILING = [*sorted(_FAILING), "exp(2000*((t-s)-0.5))"]
_STEPS = [Fraction(1, 64), Fraction(1, 128)]


def _fn(text: str, arity: int = 1) -> ScalarFunction:
    return ScalarFunction.from_expression(text, arity)


@st.composite
def _extreme_kernels(draw) -> str:
    if draw(st.booleans()):
        return draw(st.sampled_from(_PARTLY_FAILING))
    return f"{draw(st.sampled_from(_SCALES))}*({draw(_kernels())})"


def _problem(a0: str, f: str, lam: float, kernel: str, loads=()) -> Problem:
    return Problem(
        t0=0.0, T=1.0, lam=lam, loads=tuple(LoadTerm(x, _fn(c)) for x, c in loads),
        a0=_fn(a0), kernel=_fn(kernel, 2), rhs=_fn(f),
    )


@st.composite
def _extreme_problems(draw) -> Problem:
    loads = [(x, draw(st.sampled_from(_LOAD_COEFFS))) for x in draw(_load_points())]
    return _problem(
        draw(st.sampled_from(_A0)), draw(st.sampled_from(_F)), draw(st.sampled_from(_LAMBDAS)),
        draw(_extreme_kernels()), loads,
    )


# One problem per numpy warning site of the structured solve before its errstate, and its refusal.
_SITES = {
    "divide": (  # row 0, f / a0
        _problem("1e-300", "1e308", 0.0, "1"), Fraction(1, 64), "solution overflows at row 0, t=0"),
    "multiply": (  # a block's right-hand side, B - J x_{r0-1}
        _problem("1", "1e308", 1e300, "1"), Fraction(1, 128), "solution overflows at row 1, t=0.00775194"),
    "pair-sums": (  # the far field's x_k + x_{k+1}
        _problem("1", "1e308", 0.0, "1", [(0.5, "1-2*t")]), Fraction(1, 64),
        "solution overflows at row 65, t=0.984848"),
    "singular-block": (  # a 56-row block cut at the kernel failure of row 57, singular to LAPACK's LU
        _problem("1e-20", "cos(t)", 1.0, "exp(2000*((t-s)-0.5))"), Fraction(1, 64),
        "block of rows 1..56 is singular to working precision"),
}


@settings(max_examples=300, **_SEEDED)
@given(_extreme_problems(), st.sampled_from(_STEPS))
@example(*_SITES["divide"][:2])
@example(*_SITES["multiply"][:2])
@example(*_SITES["pair-sums"][:2])
@example(*_SITES["singular-block"][:2])
def test_structured_solve_returns_or_refuses_with_a_typed_error(p, h):
    try:
        solve_collocation(p, h, "structured")
    except AssemblyError as err:
        assert err.row is not None
    except SolvabilityError:
        pass
    except ValueError as err:
        assert type(err) is ValueError and str(err) == "matrix entries must be finite"


@pytest.mark.parametrize(("problem", "h", "message"), _SITES.values(), ids=list(_SITES))
def test_warning_sites_are_refused_by_row(problem, h, message):
    with pytest.raises(SolvabilityError) as info:
        solve_collocation(problem, h, "structured")
    assert str(info.value) == message
