import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import lvie.study
from lvie.grid import build_grid
from lvie.problems import LoadTerm, Problem, ScalarFunction, builtin_problem
from lvie.study import (
    PiecewiseLinearSolution,
    StudyError,
    convergence_order,
    emit,
    run_study,
    solve_collocation,
    sup_error,
)

ONE = ScalarFunction.constant(1.0)


def two_node_solution():
    p = Problem(t0=0.0, T=1.0, lam=0.0, loads=(), a0=ONE,
                kernel=ScalarFunction.constant(1.0, arity=2), rhs=ONE)
    g = build_grid(p, 0.75)  # nodes 0, 0.5, 1
    return g


class TestEvaluate:
    def test_exact_at_nodes(self):
        p = builtin_problem("model1")
        sol = solve_collocation(p, Fraction(1, 8))
        for k, t in enumerate(sol.grid.nodes):
            assert sol.evaluate(float(t)) == sol.values[k]

    def test_linear_between_two_nodes(self):
        g = two_node_solution()
        sol = PiecewiseLinearSolution(grid=g, values=np.array([0.0, 0.5, 1.0]))
        assert sol.evaluate(0.25) == pytest.approx(0.25, abs=1e-15)

    def test_midpoint_is_mean(self):
        p = builtin_problem("model2")
        sol = solve_collocation(p, Fraction(1, 8))
        tau = sol.grid.nodes
        rng = np.random.default_rng(1)
        for k in rng.integers(0, len(tau) - 1, size=8):
            mid = 0.5 * (tau[k] + tau[k + 1])
            mean = 0.5 * (sol.values[k] + sol.values[k + 1])
            assert sol.evaluate(float(mid)) == pytest.approx(mean, rel=1e-13)

    def test_three_point_collinearity(self):
        p = builtin_problem("model1")
        sol = solve_collocation(p, Fraction(1, 8))
        tau = sol.grid.nodes
        rng = np.random.default_rng(2)
        for k in rng.integers(0, len(tau) - 1, size=10):
            a, b = tau[k], tau[k + 1]
            t1, t2, t3 = a + 0.2 * (b - a), a + 0.5 * (b - a), a + 0.9 * (b - a)
            y1, y2, y3 = (sol.evaluate(float(t)) for t in (t1, t2, t3))
            slope_12 = (y2 - y1) / (t2 - t1)
            slope_13 = (y3 - y1) / (t3 - t1)
            assert slope_12 == pytest.approx(slope_13, rel=1e-9, abs=1e-12)

    def test_domain_check(self):
        g = two_node_solution()
        sol = PiecewiseLinearSolution(grid=g, values=np.zeros(3))
        with pytest.raises(ValueError):
            sol.evaluate(-0.1)
        with pytest.raises(ValueError):
            sol.evaluate(1.1)

    def test_nan_rejected(self):
        g = two_node_solution()
        sol = PiecewiseLinearSolution(grid=g, values=np.zeros(3))
        with pytest.raises(ValueError, match="outside"):
            sol.evaluate(float("nan"))
        with pytest.raises(ValueError, match="outside"):
            sol.evaluate(np.array([0.5, np.nan]))

    def test_first_point_outside_is_named(self):
        sol = PiecewiseLinearSolution(grid=two_node_solution(), values=np.zeros(3))
        for t in (float("nan"), [0.2, np.nan, -1.0]):
            with pytest.raises(ValueError, match=r"^t=nan outside \[0, 1\]$"):
                sol.evaluate(t)
        with pytest.raises(ValueError, match=r"^t=1\.5 outside \[0, 1\]$"):
            sol(np.array([[0.5, 1.5]]))

    def test_vectorized_evaluation(self):
        g = two_node_solution()
        sol = PiecewiseLinearSolution(grid=g, values=np.array([1.0, 2.0, 0.0]))
        out = sol(np.array([0.0, 0.25, 0.5, 1.0]))
        np.testing.assert_allclose(out, [1.0, 1.5, 2.0, 0.0])

    def test_value_count_validated(self):
        g = two_node_solution()
        with pytest.raises(ValueError):
            PiecewiseLinearSolution(grid=g, values=np.zeros(5))

    def test_nonfinite_values_rejected(self):
        g = two_node_solution()
        with pytest.raises(ValueError, match="nodal values must be finite"):
            PiecewiseLinearSolution(grid=g, values=np.array([0.0, np.nan, 1.0]))


class TestSupError:
    def test_zero_against_itself(self):
        g = two_node_solution()
        sol = PiecewiseLinearSolution(grid=g, values=np.array([1.0, 2.0, 3.0]))
        interp = ScalarFunction(lambda t: sol.evaluate(t), 1)
        assert sup_error(sol, interp, samples_per_interval=4) == 0.0

    def test_model1_benchmark_magnitude(self):
        p = builtin_problem("model1")
        sol = solve_collocation(p, Fraction(1, 8), solver="dense")
        eps = sup_error(sol, p.exact, samples_per_interval=1)
        assert eps == pytest.approx(2.20e-4, rel=0.05)

    def test_model2_benchmark_magnitude(self):
        p = builtin_problem("model2")
        sol = solve_collocation(p, Fraction(1, 8), solver="dense")
        eps = sup_error(sol, p.exact, samples_per_interval=1)
        assert eps == pytest.approx(7.99e-4, rel=0.05)

    def test_nodes_only_equals_nodal_max(self):
        p = builtin_problem("model1")
        sol = solve_collocation(p, Fraction(1, 16))
        nodal = np.abs(sol.values - p.exact(sol.grid.nodes)).max()
        assert sup_error(sol, p.exact, samples_per_interval=1) == nodal

    def test_interior_sampling_increases_error(self):
        p = builtin_problem("model1")
        sol = solve_collocation(p, Fraction(1, 16))
        nodes_only = sup_error(sol, p.exact, 1)
        with_interior = sup_error(sol, p.exact, 8)
        assert with_interior >= nodes_only

    def test_samples_validated(self):
        p = builtin_problem("model1")
        sol = solve_collocation(p, Fraction(1, 8))
        with pytest.raises(ValueError):
            sup_error(sol, p.exact, 0)


class TestConvergenceOrder:
    def test_benchmark_first_order_value(self):
        r = convergence_order(2.20e-4, 6.99e-5, Fraction(1, 8), Fraction(1, 16))
        assert round(r, 2) == 1.65

    def test_exact_quartering(self):
        eps = 3.7e-5
        assert convergence_order(4 * eps, eps, 0.5, 0.25) == pytest.approx(2.0)

    def test_stagnation(self):
        assert convergence_order(1e-3, 1e-3, 0.5, 0.25) == 0.0

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError):
            convergence_order(0.0, 1e-5, 0.5, 0.25)
        with pytest.raises(ValueError):
            convergence_order(1e-5, -1e-5, 0.5, 0.25)

    def test_rejects_equal_steps(self):
        with pytest.raises(ValueError):
            convergence_order(1e-4, 1e-5, 0.5, 0.5)


class TestSolverChoice:
    def test_default_is_structured(self):
        p = builtin_problem("model1")
        default = solve_collocation(p, Fraction(1, 16))
        structured = solve_collocation(p, Fraction(1, 16), solver="structured")
        assert np.array_equal(default.values, structured.values)

    def test_dense_solve_holds_two_square_arrays(self):
        # The matrix and the eliminated transposed copy, 16 n^2 bytes and a panel's worth more.
        p = builtin_problem("model2")
        n = build_grid(p, Fraction(1, 512)).n_nodes
        tracemalloc.start()
        try:
            solve_collocation(p, Fraction(1, 512), "dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n * n + 1.5e6

    def test_auto_is_not_a_solver(self):
        with pytest.raises(ValueError, match="solver must be one of"):
            solve_collocation(builtin_problem("model1"), Fraction(1, 8), solver="auto")


class TestRunStudy:
    def test_single_level_has_no_order(self):
        p = builtin_problem("model1")
        rows = run_study(p, Fraction(1, 8), 1)
        assert len(rows) == 1
        assert rows[0].r is None
        assert rows[0].N == 10

    def test_rows_ordered_by_decreasing_step(self):
        p = builtin_problem("model1")
        rows = run_study(p, Fraction(1, 8), 3)
        assert [row.h for row in rows] == [
            Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)
        ]
        assert all(rows[k].eps > rows[k + 1].eps for k in range(2))

    def test_requires_exact_solution(self):
        p = Problem(t0=0.0, T=1.0, lam=0.0, loads=(), a0=ONE,
                    kernel=ScalarFunction.constant(1.0, arity=2), rhs=ONE)
        with pytest.raises(ValueError, match="exact"):
            run_study(p, Fraction(1, 8), 2)

    def test_solver_choice_invariance(self):
        # Dense and structured ladders agree to 6 significant digits.
        p = builtin_problem("model1")
        dense = run_study(p, Fraction(1, 8), 7, solver="dense")
        structured = run_study(p, Fraction(1, 8), 7, solver="structured")
        for row_d, row_s in zip(dense, structured):
            assert row_s.eps == pytest.approx(row_d.eps, rel=1e-6)

    def test_default_never_runs_gauss_jordan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("default study reached the dense reference")

        monkeypatch.setattr(lvie.study, "gauss_jordan", refuse)
        rows = run_study(builtin_problem("model1"), Fraction(1, 8), 3)
        assert len(rows) == 3

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_checked_before_first_solve(self, monkeypatch, samples):
        def refuse(*args, **kwargs):
            raise AssertionError("a level was solved before the sample check")

        monkeypatch.setattr(lvie.study, "solve_collocation", refuse)
        with pytest.raises(ValueError, match="samples_per_interval must be at least 1"):
            run_study(builtin_problem("model1"), Fraction(1, 8), 2, samples_per_interval=samples)

    def test_failure_carries_level(self):
        # h0 = 2/5 gives nodes k/3 (no zero of a0); the halved level has
        # nodes k/6 and the diagonal vanishes at 0.5.
        p = Problem(t0=0.0, T=1.0, lam=0.0, loads=(),
                    a0=ScalarFunction.from_expression("t-0.5", 1),
                    kernel=ScalarFunction.constant(1.0, arity=2),
                    rhs=ONE, exact=ONE)
        with pytest.raises(StudyError, match=r"level 1 \(h=1/5\)"):
            run_study(p, Fraction(2, 5), 2, solver="structured")

    def test_non_finite_exact_names_level_and_point(self):
        # A callable exact solution that is NaN past 0.5 is refused at its
        # first node past 0.5 (h = 1/8 meets the loads on nodes k/10), not
        # tabulated as an eps of nan.
        base = builtin_problem("model1")
        exact = ScalarFunction(lambda t: np.where(t > 0.5, np.nan, np.cos(t)), 1)
        p = dataclasses.replace(base, exact=exact)
        message = r"^study level 0 \(h=1/8\) failed: non-finite value nan at t=0\.6$"
        for solver in ("structured", "dense"):
            with pytest.raises(StudyError, match=message):
                run_study(p, Fraction(1, 8), 3, solver=solver)

    def test_dense_level_over_node_limit_fails(self):
        with pytest.raises(StudyError, match=r"level 0 \(h=1/4096\) failed: dense assembly at N=4098"):
            run_study(builtin_problem("model1"), Fraction(1, 4096), 1, solver="dense")

    def test_dense_ladder_over_node_limit_fails_before_any_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an oversized dense ladder reached Gauss-Jordan")

        monkeypatch.setattr(lvie.study, "gauss_jordan", refuse)
        with pytest.raises(
            StudyError,
            match=r"level 11 \(h=1/16384\) failed: dense assembly at N=16386 .* "
            r"the limit is 2053 nodes",
        ):
            run_study(builtin_problem("model1"), Fraction(1, 8), 12, solver="dense")


class TestEmit:
    def rows(self):
        p = builtin_problem("model1")
        return run_study(p, Fraction(1, 8), 3)

    def test_csv_layout(self):
        rows = self.rows()
        text = emit(rows, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "h,N,eps,r,wall_time_s"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1.25000E-01"
        assert first[1] == "10"
        assert first[3] == ""  # no order on the first row

    def test_csv_without_timing_is_deterministic(self):
        rows = self.rows()
        text = emit(rows, "csv", include_timing=False)
        assert text == emit(self.rows(), "csv", include_timing=False)
        assert "wall" not in text

    def test_markdown_layout(self):
        text = emit(self.rows(), "md")
        lines = text.strip().split("\n")
        assert lines[0] == "| h | eps | r |"
        assert lines[2].startswith("| 1/8 | ")
        assert lines[2].endswith("| - |")
        assert "| 1.65 |" in lines[3]

    def test_plotdata_two_columns(self):
        text = emit(self.rows(), "plotdata")
        rows = [line.split() for line in text.strip().split("\n")]
        assert all(len(row) == 2 for row in rows)
        log_h, log_eps = np.array(rows, dtype=float).T
        assert np.all(np.diff(log_h) < 0)

    def test_plotdata_slope_near_two(self):
        p = builtin_problem("model1")
        rows = run_study(p, Fraction(1, 8), 6)
        data = np.array(
            [line.split() for line in emit(rows, "plotdata").strip().split("\n")],
            dtype=float,
        )
        slope = np.polyfit(data[:, 0], data[:, 1], 1)[0]
        assert slope == pytest.approx(2.0, abs=0.15)

    def test_plotdata_needs_positive_eps(self):
        # A linear exact solution with a zero kernel is reproduced to the last bit.
        line = ScalarFunction.from_expression("1+2*t", 1)
        p = Problem(t0=0.0, T=1.0, lam=0.5, loads=(), a0=ONE,
                    kernel=ScalarFunction.from_expression("0", 2), rhs=line, exact=line)
        rows = run_study(p, Fraction(1, 8), 3)
        assert [row.eps for row in rows] == [0.0, 0.0, 0.0]
        assert emit(rows, "csv", include_timing=False).count(",0.00000E+00,") == 3
        with pytest.raises(ValueError, match=r"^plot data needs eps > 0; eps is 0\.00000E\+00 at h=1/8$"):
            emit(rows, "plotdata")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            emit(self.rows(), "yaml")

    def test_md_is_the_only_markdown_name(self):
        with pytest.raises(ValueError, match="unknown format"):
            emit(self.rows(), "markdown")

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit([], "csv")


class TestDegenerateExactness:
    def test_lambda_zero_no_loads_solution_is_rhs(self):
        rhs = ScalarFunction.from_expression("cos(3*t)", 1)
        p = Problem(t0=0.0, T=1.0, lam=0.0, loads=(), a0=ONE,
                    kernel=ScalarFunction.constant(1.0, arity=2), rhs=rhs)
        for solver in ("dense", "structured"):
            sol = solve_collocation(p, Fraction(1, 16), solver=solver)
            assert np.abs(sol.values - np.cos(3 * sol.grid.nodes)).max() <= 1e-13

    def test_linear_solution_reproduced_exactly(self):
        # Kernel constant in s and a linear exact solution: the product
        # midpoint rule is exact, so the discrete solution is the exact
        # solution up to rounding.
        lam = 1.0 / 3.0
        x_exact = ScalarFunction.from_expression("1+2*t", 1)

        def rhs_fn(t):
            integral = (1 + t) * (t + t**2)  # int_0^t (1+t)(1+2s) ds
            return (2 + t) * (1 + 2 * t) + t * 1.8 - lam * integral

        p = Problem(
            t0=0.0, T=1.0, lam=lam,
            loads=(LoadTerm(0.4, ScalarFunction.from_expression("t", 1)),),
            a0=ScalarFunction.from_expression("2+t", 1),
            kernel=ScalarFunction.from_expression("1+t", 2),
            rhs=ScalarFunction(rhs_fn, 1),
            exact=x_exact,
        )
        for solver in ("dense", "structured"):
            sol = solve_collocation(p, Fraction(1, 16), solver=solver)
            assert sup_error(sol, x_exact) <= 1e-12
