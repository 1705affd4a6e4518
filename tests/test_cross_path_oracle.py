"""One generative oracle across the collocation paths.

Each seeded random problem (hypothesis, derandomized, a fixed example
budget) is solved three ways:

* ``structured_solve`` on the kernel formula, which takes the lag windows
  when the formula is a function of t - s and the mesh is uniform, and the
  FFT product for a square with both sides past 256 (a mesh of more than
  769 nodes);
* ``structured_solve`` on a source-less callable twin of the kernel, whose
  weights always come from the panels;
* ``gauss_jordan`` on the dense matrix.

They must agree within a tolerance scaled by the condition number of the
dense matrix, and a kernel that fails, or turns non-finite, from a known
row must raise the same ``AssemblyError``, row and message (which names the
failing point), on all three.  A later fast path adds its pair here.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, Phase, assume, example, given, settings
from hypothesis import strategies as st

from lvie.assembly import AssemblyError, assemble, structured_solve
from lvie.grid import build_grid
from lvie.problems import LoadTerm, Problem, ScalarFunction
from lvie.solvers import gauss_jordan

# Difference kernels are sums of these in X = t - s; general kernels of these in t and s.
_DIFFERENCE = ["1", "X", "X^2", "exp(-X)", "cos(2*X)", "sqrt(X)", "1/(1+X)", "X*exp(-2*X)"]
_GENERAL = ["t-2*s^2", "exp(t*s)", "cos(t+s)", "1+t*s", "sqrt(1+t+s)", "t^2-s", "exp(-t)*s", "1/(1+t*s)"]
_WEIGHTS = [-2.0, -0.5, 0.5, 1.0, 3.0]
_LAMBDAS = [-3.0, -1.0, 0.5, 1.0, 2.0]
_A0 = ["1", "2+t", "1+t^2", "exp(t)", "3-t"]
_F = ["cos(t)", "1", "exp(t)", "t^2", "sin(2*t)+1"]
_LOAD_COEFFS = ["1", "t", "1-t^2", "0.5*cos(t)", "-0.3"]
_SEEDED = dict(derandomize=True, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
# |x - x_dense| <= _TOL * eps * cond(A) * max|x_dense|: 300 seeded examples reached 8.2.
_TOL = 32.0


def _fn(text: str, arity: int = 1) -> ScalarFunction:
    return ScalarFunction.from_expression(text, arity)


@st.composite
def _kernels(draw, difference=st.booleans()) -> str:
    difference = draw(difference)
    terms = draw(st.lists(st.sampled_from(_DIFFERENCE if difference else _GENERAL), min_size=1, max_size=2))
    text = "+".join(f"{draw(st.sampled_from(_WEIGHTS))}*({term})" for term in terms)
    return text.replace("X", "(t-s)")


@st.composite
def _load_points(draw, equal=st.booleans()) -> tuple:
    """0-3 points, sorted and distinct inside (0, 1): equally spaced (a uniform mesh), or on a 1/20 lattice."""
    m = draw(st.integers(0, 3))
    if draw(equal):
        return tuple(k / (m + 1) for k in range(1, m + 1))
    return tuple(k / 20 for k in sorted(draw(st.sets(st.integers(1, 19), min_size=m, max_size=m))))


@st.composite
def _problems(draw, kernel=_kernels(), points=_load_points()) -> Problem:
    points = draw(points)
    loads = tuple(LoadTerm(x, _fn(draw(st.sampled_from(_LOAD_COEFFS)))) for x in points)
    return Problem(
        t0=0.0, T=1.0, lam=draw(st.sampled_from(_LAMBDAS)), loads=loads,
        a0=_fn(draw(st.sampled_from(_A0))), kernel=_fn(draw(kernel), 2), rhs=_fn(draw(st.sampled_from(_F))),
    )


_STEPS = st.integers(64, 256).map(lambda k: Fraction(1, k))  # h from 1/64 to 1/256


def _twin(p: Problem) -> Problem:
    """``p`` with a kernel of the same values and no formula to read structure off."""
    kernel = p.kernel
    return dataclasses.replace(p, kernel=ScalarFunction(lambda t, s: kernel(t, s), 2))


def _outcome(call):
    """``call()``, or the AssemblyError it raised as ``(row, message)``."""
    try:
        return call()
    except AssemblyError as err:
        return err.row, str(err)


# Lag windows against panels: a difference kernel, loads on a uniform mesh.
_LAG_EXAMPLE = Problem(
    t0=0.0, T=1.0, lam=-3.0, loads=(LoadTerm(0.5, _fn("t")),),
    a0=_fn("2+t"), kernel=_fn("0.5*(exp(-(t-s)))+3.0*(sqrt((t-s)))", 2), rhs=_fn("cos(t)"),
)


@settings(max_examples=100, **_SEEDED)
@given(_problems(), _STEPS)
@example(_LAG_EXAMPLE, Fraction(1, 250))
def test_three_paths_agree(p, h):
    g = build_grid(p, h)
    formula, twin = assemble(p, g), assemble(_twin(p), g)
    dense = assemble(p, g, "dense")
    cond = np.linalg.cond(dense.matrix)
    assume(cond < 1e8)  # a (nearly) singular load system has no one answer
    assert twin.lag_weights() is None
    lag = p.kernel.is_difference and g.uniform_step() is not None
    assert (formula.lag_weights() is not None) == lag
    x_dense = gauss_jordan(dense.matrix, dense.rhs)
    bound = _TOL * np.finfo(float).eps * cond * np.abs(x_dense).max()
    for system in (formula, twin):
        assert np.abs(structured_solve(system) - x_dense).max() <= bound


# Kernels that fail on the rows of t past 0.6, and the first such row on a grid.
_FAILING = {
    "sqrt(0.6-t)": lambda tau, mids: np.flatnonzero(0.6 - tau < 0)[0],
    "sqrt(0.6-(t-s))": lambda tau, mids: np.flatnonzero(0.6 - (tau - mids[0]) < 0)[0],
}


@settings(max_examples=40, **_SEEDED)
@given(_problems(kernel=st.sampled_from(sorted(_FAILING))), _STEPS)
def test_failing_kernel_names_the_same_row_on_every_path(p, h):
    g = build_grid(p, h)
    paths = [
        lambda: structured_solve(assemble(p, g)),
        lambda: structured_solve(assemble(_twin(p), g)),
        lambda: assemble(p, g, "dense"),
    ]
    outcomes = [_outcome(call) for call in paths]
    row = _FAILING[p.kernel.source](g.nodes, 0.5 * (g.nodes[:-1] + g.nodes[1:]))
    assert outcomes[0][0] == row
    assert outcomes[0][1].startswith(f"kernel failed at row {row}, t={g.nodes[row]:.6g}: ")
    assert outcomes[1] == outcomes[2] == outcomes[0]


# Kernels that turn non-finite from a known row, made from a drawn kernel K:
# a callable that is nan past t = 0.6, and a formula whose exponential
# overflows where t - s passes about 0.955 (first in column 0, s = mids[0]).
def _nan_past(kernel: ScalarFunction) -> ScalarFunction:
    return ScalarFunction(lambda t, s: np.where(t > 0.6, np.nan, kernel(t, s)), 2)


def _overflowing(kernel: ScalarFunction) -> ScalarFunction:
    return _fn(f"{kernel.source}+exp(2000*((t-s)-0.6))", 2)


_NON_FINITE = {
    "nan-callable": (_nan_past, lambda tau, mids: np.flatnonzero(tau > 0.6)[0]),
    "overflowing-formula": (
        _overflowing,
        lambda tau, mids: np.flatnonzero(np.isinf(np.exp(2000 * ((tau - mids[0]) - 0.6))))[0],
    ),
}


@settings(max_examples=30, **_SEEDED)
@given(_problems(), _STEPS, st.sampled_from(sorted(_NON_FINITE)))
def test_non_finite_kernel_names_the_same_row_and_point_on_every_path(p, h, name):
    make, first_row = _NON_FINITE[name]
    p = dataclasses.replace(p, kernel=make(p.kernel))
    g = build_grid(p, h)
    mids = 0.5 * (g.nodes[:-1] + g.nodes[1:])
    paths = [
        lambda: structured_solve(assemble(p, g)),
        lambda: structured_solve(assemble(_twin(p), g)),
        lambda: assemble(p, g, "dense"),
    ]
    with np.errstate(over="ignore"):
        outcomes = [_outcome(call) for call in paths]
        row = first_row(g.nodes, mids)
    at = f"t={g.nodes[row]:.6g}"
    assert outcomes[0][0] == row
    assert outcomes[0][1].startswith(f"kernel failed at row {row}, {at}: non-finite value ")
    assert outcomes[0][1].endswith(f" at {at}, s={mids[0]:.6g}")
    assert outcomes[1] == outcomes[2] == outcomes[0]


# Difference kernels on uniform meshes of 770 to 901 nodes: the rows past
# 512 take the first 512 columns as one FFT product on the formula's system.
_FAR_STEPS = st.integers(768, 896).map(lambda k: Fraction(1, k))


# No shrinking: a failing example is reported as drawn, since shrinking these
# sizes takes minutes and keeps every failing example's matrices alive.
@settings(max_examples=3, phases=[Phase.explicit, Phase.generate], **_SEEDED)
@given(_problems(kernel=_kernels(difference=st.just(True)), points=_load_points(equal=st.just(True))), _FAR_STEPS)
def test_fft_far_field_agrees_with_panels_and_dense(p, h):
    g = build_grid(p, h)
    formula, twin = assemble(p, g), assemble(_twin(p), g)
    dense = assemble(p, g, "dense")
    cond = np.linalg.cond(dense.matrix)
    assume(cond < 1e8)
    products = []
    toeplitz = formula._toeplitz_product
    formula._toeplitz_product = lambda out, *args: products.append(out.shape) or toeplitz(out, *args)
    x_dense = gauss_jordan(dense.matrix, dense.rhs)
    bound = _TOL * np.finfo(float).eps * cond * np.abs(x_dense).max()
    for system in (formula, twin):
        assert np.abs(structured_solve(system) - x_dense).max() <= bound
    assert products and g.n_nodes > 769
