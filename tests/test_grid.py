from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvie.grid import build_grid
from lvie.problems import LoadTerm, Problem, ScalarFunction, builtin_problem


def make_problem(t0, T, points):
    one = ScalarFunction.constant(1.0)
    return Problem(
        t0=t0,
        T=T,
        lam=0.0,
        loads=tuple(LoadTerm(x, one) for x in points),
        a0=one,
        kernel=ScalarFunction.constant(1.0, arity=2),
        rhs=one,
    )


def test_model1_layout_at_h_eighth():
    g = build_grid(builtin_problem("model1"), Fraction(1, 8))
    assert g.segment_counts == (3, 2, 5)
    assert g.last_index == 10
    np.testing.assert_allclose(g.nodes, np.arange(11) / 10, atol=1e-15)
    assert g.load_indices == (3, 5)
    assert g.nodes[3] == 0.3
    assert g.nodes[5] == 0.5


def test_no_load_uniform():
    g = build_grid(make_problem(0.0, 1.0, ()), Fraction(1, 4))
    assert g.segment_counts == (5,)
    assert g.last_index == 5
    np.testing.assert_array_equal(g.nodes, np.linspace(0, 1, 6))


def test_h_exceeding_interval():
    with pytest.raises(ValueError, match="smaller than the interval"):
        build_grid(make_problem(0.0, 1.0, ()), 2.0)


def test_h_equal_interval_rejected():
    with pytest.raises(ValueError):
        build_grid(make_problem(0.0, 1.0, ()), 1.0)


def test_nonpositive_h():
    with pytest.raises(ValueError, match="positive"):
        build_grid(make_problem(0.0, 1.0, ()), 0.0)
    with pytest.raises(ValueError, match="positive"):
        build_grid(make_problem(0.0, 1.0, ()), -0.1)
    with pytest.raises(ValueError, match="h must be positive"):
        build_grid(make_problem(0.0, 1.0, ()), float("nan"))


def test_degenerate_mesh_rejected():
    # Segments of 4 ulps split into 9 pieces: linspace repeats nodes.
    eps = np.finfo(float).eps
    with pytest.raises(ValueError, match="degenerate mesh"):
        build_grid(make_problem(1.0, 1.0 + 8 * eps, (1.0 + 4 * eps,)), 1e-16)


# Outside (t0, T), on an end point, out of order, repeated, or NaN.
MISPLACED_LOADS = [
    [-0.2],
    [0.7, 0.3],
    [1.5],
    [0.5, 0.5],
    [0.0],
    [1.0],
    [0.4, float("nan")],
]


@pytest.mark.parametrize("points", MISPLACED_LOADS, ids=str)
def test_misplaced_load_points_rejected(points):
    # Problem refuses them when it is built, so no grid is asked to place them.
    with pytest.raises(ValueError, match=r"cannot place load points \[") as info:
        make_problem(0.0, 1.0, points)
    assert str([float(x) for x in points]) in str(info.value)


def test_load_index_lookup():
    g = build_grid(builtin_problem("model1"), Fraction(1, 8))
    assert g.load_indices == (3, 5)


def test_near_integer_ratio_snaps():
    # 0.3 / 0.1 lands at 2.9999999999999996 in floats; the snapped floor
    # must see 3 and produce 4 subintervals.
    g = build_grid(make_problem(0.0, 0.3, ()), 0.1)
    assert g.segment_counts == (4,)


def test_fraction_step_matches_float_step():
    p = builtin_problem("model2")
    g1 = build_grid(p, Fraction(1, 16))
    g2 = build_grid(p, 1 / 16)
    np.testing.assert_array_equal(g1.nodes, g2.nodes)


def test_nodes_are_read_only():
    g = build_grid(make_problem(0.0, 1.0, ()), 0.25)
    with pytest.raises(ValueError):
        g.nodes[0] = 99.0


layouts = st.builds(
    lambda t0, span, rel_points, rel_h: (
        t0,
        t0 + span,
        sorted(set(t0 + span * r for r in rel_points)),
        span * rel_h,
    ),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.lists(st.floats(min_value=0.05, max_value=0.95), max_size=4),
    st.floats(min_value=1e-3, max_value=0.9),
)


@given(layouts)
@settings(max_examples=300, deadline=None)
def test_grid_invariants_hold(layout):
    t0, T, points, h = layout
    # Collapsed or touching points would violate the problem invariants
    # themselves; only well-separated layouts are in the contract.
    points = [x for i, x in enumerate(points) if i == 0 or x - points[i - 1] > 1e-6]
    p = make_problem(t0, T, points)
    g = build_grid(p, h)

    assert g.nodes[0] == t0
    assert g.nodes[-1] == T
    assert np.all(np.diff(g.nodes) > 0)
    assert g.last_index == sum(g.segment_counts)
    assert np.max(np.diff(g.nodes)) <= h * (1 + 1e-9)
    assert len(g.load_indices) == len(points)
    for j, x in enumerate(points, start=1):
        assert g.nodes[g.load_indices[j - 1]] == x  # bitwise coincidence


@given(layouts)
@settings(max_examples=200, deadline=None)
def test_halving_at_least_doubles_counts(layout):
    t0, T, points, h = layout
    points = [x for i, x in enumerate(points) if i == 0 or x - points[i - 1] > 1e-6]
    p = make_problem(t0, T, points)
    h_frac = Fraction(h).limit_denominator(10**9)
    if not 0 < h_frac < Fraction(T - t0).limit_denominator(10**9):
        return
    coarse = build_grid(p, h_frac)
    fine = build_grid(p, h_frac / 2)
    for n_c, n_f in zip(coarse.segment_counts, fine.segment_counts):
        assert n_f >= 2 * n_c - 1


def test_spacing_strictly_below_h():
    g = build_grid(builtin_problem("model1"), Fraction(1, 8))
    for (a, b), n_k in zip(((0.0, 0.3), (0.3, 0.5), (0.5, 1.0)), g.segment_counts):
        assert (b - a) / n_k < 1 / 8


@pytest.mark.parametrize("k", range(12))
def test_uniform_step_of_quarter_segments(k):
    # Four equal segments: uniform at every step, spacings equal to rounding.
    p = Problem(
        t0=0.0, T=1.0, lam=0.0,
        loads=tuple(LoadTerm(x, ScalarFunction.constant(1.0)) for x in (0.25, 0.5, 0.75)),
        a0=ScalarFunction.constant(1.0),
        kernel=ScalarFunction.constant(1.0, arity=2),
        rhs=ScalarFunction.constant(1.0),
    )
    g = build_grid(p, Fraction(1, 8) / 2**k)
    assert g.uniform_step() == 1.0 / g.last_index


def test_uniform_step_rejects_unequal_segments():
    g = build_grid(builtin_problem("model1"), Fraction(1, 16))  # spacings 0.3/5, 0.2/4, 0.5/9
    assert g.uniform_step() is None
