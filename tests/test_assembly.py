import dataclasses
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from lvie.assembly import DENSE_MAX_NODES, PANEL_POINTS, AssemblyError, assemble, structured_solve
from lvie.config import load_problem_config
from lvie.expressions import EvalError
from lvie.grid import build_grid
from lvie.problems import LoadTerm, Problem, ScalarFunction, builtin_problem
from lvie.solvers import gauss_jordan
from lvie.study import solve_collocation

ONE = ScalarFunction.constant(1.0)
ONE2 = ScalarFunction.constant(1.0, arity=2)


def quad_weight(p_idx, i, g, kernel, lam):
    """Midpoint product-quadrature weight J_p^i for row i, subinterval p, straight from the definition.

    The per-pair reference that ``test_rows_match_quad_weight`` checks
    ``CollocationSystem.weights`` against; the weight multiplies both
    nodal values x_{p-1} and x_p.
    """
    n_max = g.last_index
    if not 1 <= p_idx <= i <= n_max:
        raise IndexError(f"need 1 <= p ({p_idx}) <= i ({i}) <= N ({n_max})")
    tau = g.nodes
    dt = tau[p_idx] - tau[p_idx - 1]
    mid = 0.5 * (tau[p_idx - 1] + tau[p_idx])
    return 0.5 * lam * dt * float(kernel(tau[i], mid))


def make_problem(lam=0.0, loads=(), a0=ONE, kernel=ONE2, rhs=ONE, t0=0.0, T=1.0, exact=None):
    return Problem(t0=t0, T=T, lam=lam, loads=tuple(loads), a0=a0, kernel=kernel, rhs=rhs, exact=exact)


class TestQuadWeight:
    """The reference weight itself, on hand values."""

    def test_zero_lambda_kills_weight(self):
        g = build_grid(make_problem(), 0.25)
        assert quad_weight(1, 3, g, ONE2, 0.0) == 0.0

    def test_unit_kernel_uniform_grid(self):
        # (2/2) * 0.25 * 1 on a grid with constant spacing 0.25
        p = make_problem(t0=0.0, T=1.25)
        g = build_grid(p, 0.3)  # 5 subintervals of 0.25
        assert np.diff(g.nodes)[0] == 0.25
        assert quad_weight(2, 4, g, ONE2, 2.0) == pytest.approx(0.25)

    def test_model1_hand_value(self):
        p = builtin_problem("model1")
        g = build_grid(p, Fraction(1, 8))
        w = quad_weight(1, 2, g, p.kernel, p.lam)
        # (1/8) * 0.1 * (0.2 - 2*0.05^2)
        assert w == pytest.approx(0.0024375, abs=1e-15)

    def test_index_validation(self):
        g = build_grid(make_problem(), 0.25)
        with pytest.raises(IndexError):
            quad_weight(0, 1, g, ONE2, 1.0)
        with pytest.raises(IndexError):
            quad_weight(3, 2, g, ONE2, 1.0)
        with pytest.raises(IndexError):
            quad_weight(1, 99, g, ONE2, 1.0)


class TestAssemble:
    def test_diagonal_when_no_loads_no_integral(self):
        p = make_problem(a0=ScalarFunction.from_expression("t^2+1", 1),
                         rhs=ScalarFunction.from_expression("cos(t)", 1))
        g = build_grid(p, 0.25)
        system = assemble(p, g, mode="dense")
        expected = np.diag(p.a0(g.nodes))
        np.testing.assert_allclose(system.matrix, expected)
        np.testing.assert_allclose(system.rhs, np.cos(g.nodes))

    def test_single_load_constant_column(self):
        c = 0.75
        p = make_problem(loads=[LoadTerm(0.5, ScalarFunction.constant(c))])
        g = build_grid(p, 0.25)
        v = g.load_indices[0]
        system = assemble(p, g, mode="dense")
        expected = np.eye(g.n_nodes)
        expected[:, v] += c
        np.testing.assert_allclose(system.matrix, expected)
        assert system.matrix[v, v] == pytest.approx(1 + c)

    def test_structural_lower_triangular_outside_load_columns(self):
        p = builtin_problem("model1")
        g = build_grid(p, Fraction(1, 16))
        system = assemble(p, g, mode="dense")
        for i in range(system.size):
            for col in range(i + 1, system.size):
                if col not in system.load_columns:
                    assert system.matrix[i, col] == 0.0

    def test_row_zero_single_entry_plus_loads(self):
        p = builtin_problem("model1")
        g = build_grid(p, Fraction(1, 8))
        system = assemble(p, g, mode="dense")
        row0 = system.matrix[0].copy()
        assert row0[0] == p.a0(p.t0)
        row0[[0, *system.load_columns]] = 0.0
        assert np.all(row0 == 0.0)

    def test_rows_match_quad_weight(self):
        p = builtin_problem("model2")
        g = build_grid(p, Fraction(1, 8))
        system = assemble(p, g, mode="dense")
        i = 7
        w = system.row_weights(i)
        for p_idx in range(1, i + 1):
            assert w[p_idx - 1] == pytest.approx(
                quad_weight(p_idx, i, g, p.kernel, p.lam), rel=1e-15
            )

    @pytest.mark.parametrize(
        "i0, i1, k0, k1",
        [(10, 14, 0, 8), (3, 9, 0, 12), (5, 9, 6, 8), (1, 18, 0, 17)],
        ids=["below", "straddling", "above-and-below", "all"],
    )
    def test_weights_block_matches_rows(self, i0, i1, k0, k1):
        p = builtin_problem("model2")
        system = assemble(p, build_grid(p, Fraction(1, 16)))
        expected = np.zeros((i1 - i0, k1 - k0))
        for i in range(i0, i1):
            row = system.row_weights(i)[k0:k1]
            expected[i - i0, : row.size] = row
        np.testing.assert_allclose(system.weights(i0, i1, k0, k1), expected, rtol=1e-15, atol=0)

    def test_streaming_matches_dense(self):
        p = builtin_problem("model1")
        g = build_grid(p, Fraction(1, 16))
        dense = assemble(p, g, mode="dense")
        streaming = assemble(p, g, mode="streaming")
        assert streaming.matrix is None
        for i in (0, 1, 9, g.last_index):
            np.testing.assert_array_equal(
                streaming.row_weights(i), dense.row_weights(i)
            )

    def test_matrix_affine_in_lambda(self):
        base = builtin_problem("model1")
        p2 = dataclasses.replace(base, lam=2 * base.lam)
        g = build_grid(base, Fraction(1, 8))
        s1, s2 = assemble(base, g), assemble(p2, g)
        for i in range(g.n_nodes):
            np.testing.assert_allclose(s2.row_weights(i), 2 * s1.row_weights(i), rtol=1e-15)

    def test_eval_failure_reports_row_and_abscissa(self):
        p = make_problem(rhs=ScalarFunction.from_expression("1/(t-0.5)", 1))
        g = build_grid(p, 0.3)  # nodes k/4, so t=0.5 is a node
        assert 0.5 in g.nodes
        with pytest.raises(AssemblyError, match=r"f failed at row \d+, t=0.5"):
            assemble(p, g)

    @pytest.mark.parametrize("h", [Fraction(1, 8), Fraction(1, 8192)], ids=["h=1/8", "h=1/8192"])
    def test_kernel_failure_reports_row_and_abscissa(self, h):
        # sqrt(0.7-t) is undefined at every node past t = 0.7.
        base = builtin_problem("model1")
        p = dataclasses.replace(base, kernel=ScalarFunction.from_expression("sqrt(0.7-t)+s", 2))
        g = build_grid(p, h)
        row = int(np.argmax(g.nodes > 0.7))
        expected = rf"kernel failed at row {row}, t={g.nodes[row]:.6g}:"
        with pytest.raises(AssemblyError, match=expected):
            structured_solve(assemble(p, g))
        if h == Fraction(1, 8):
            assert (row, g.nodes[row]) == (8, 0.8)
            with pytest.raises(AssemblyError, match=expected):
                assemble(p, g, mode="dense")

    def test_kernel_defined_only_on_triangle(self):
        p = make_problem(lam=1.0, kernel=ScalarFunction.from_expression("sqrt(t-s)", 2))
        g = build_grid(p, 0.25)
        system = assemble(p, g, mode="dense")
        assert np.all(np.isfinite(system.matrix))

    def test_dense_kernel_tabulated_once_on_triangle(self):
        calls = []

        def sqrt_kernel(t, s):
            assert np.all(s <= t), "kernel evaluated above the diagonal"
            calls.append(np.size(t))
            return np.sqrt(t - s)

        p = make_problem(lam=1.0, kernel=ScalarFunction(sqrt_kernel, 2, "sqrt(t-s)"))
        g = build_grid(p, Fraction(1, 32))
        assemble(p, g, mode="dense")
        n_last = g.last_index
        assert calls == [n_last * (n_last + 1) // 2]  # pairs 1 <= p <= i <= N


FAILS_AT_HALF = ScalarFunction.from_expression("1/(t-0.5)", 1)
NAN_AT_HALF = ScalarFunction(lambda t: np.where(t == 0.5, np.nan, 1.0), 1)  # a callable: no EvalError


class TestFailureRow:
    """``AssemblyError.row`` is the row the message names; the dense-size refusal has none."""

    @pytest.mark.parametrize(
        "label, fields",
        [
            ("a0", {"a0": FAILS_AT_HALF}),
            ("f", {"rhs": FAILS_AT_HALF}),
            ("a2", {"loads": [LoadTerm(0.25, ONE), LoadTerm(0.75, FAILS_AT_HALF)]}),
            ("a0", {"a0": NAN_AT_HALF}),
            ("f", {"rhs": NAN_AT_HALF}),
            ("a2", {"loads": [LoadTerm(0.25, ONE), LoadTerm(0.75, NAN_AT_HALF)]}),
        ],
        ids=["a0", "f", "a_j", "a0_nan", "f_nan", "a_j_nan"],
    )
    def test_coefficient_failure(self, label, fields):
        p = make_problem(**fields)
        g = build_grid(p, 0.3)  # a node at t = 0.5
        row = int(np.flatnonzero(g.nodes == 0.5)[0])
        for mode in ("streaming", "dense"):
            with pytest.raises(AssemblyError, match=rf"^{label} failed at row {row}, t=0.5:") as info:
                assemble(p, g, mode)
            assert info.value.row == row

    @pytest.mark.parametrize("mode", ["streaming", "dense"])
    def test_kernel_failure(self, mode):
        base = builtin_problem("model1")
        p = dataclasses.replace(base, kernel=ScalarFunction.from_expression("sqrt(0.7-t)+s", 2))
        g = build_grid(p, Fraction(1, 8))
        with pytest.raises(AssemblyError, match=r"^kernel failed at row 8,") as info:
            structured_solve(assemble(p, g, mode=mode))
        assert info.value.row == 8

    @pytest.mark.parametrize(
        "loads, row, message",
        [
            (True, 41, "kernel failed at row 41, t=0.621212: non-finite value nan at t=0.621212, s=0.0075"),
            (False, 40, "kernel failed at row 40, t=0.615385: non-finite value nan at t=0.615385, s=0.00769231"),
        ],
        ids=["loads", "no-loads"],
    )
    def test_non_finite_kernel_names_its_row(self, loads, row, message):
        # A plain callable gives NaN where a formula would raise: the same error, in both modes.
        base = builtin_problem("model1")
        kernel = ScalarFunction(lambda t, s: np.where((0.61 < t) & (t < 0.63), np.nan, base.kernel(t, s)), 2)
        p = dataclasses.replace(base, kernel=kernel, loads=base.loads if loads else ())
        g = build_grid(p, Fraction(1, 64))
        for mode in ("dense", "streaming"):
            with pytest.raises(AssemblyError) as info:
                structured_solve(assemble(p, g, mode))
            assert (info.value.row, str(info.value)) == (row, message)

    def test_batch_only_kernel_failure_is_re_raised(self):
        # Fails on a panel of several rows but on no single row: no row to name.
        def kernel(t, s):
            if np.unique(t).size > 1:
                raise EvalError("batch only")
            return np.ones(np.broadcast(t, s).shape)

        p = make_problem(lam=1.0, kernel=ScalarFunction(kernel, 2))
        with pytest.raises(EvalError, match="^batch only$"):
            assemble(p, build_grid(p, Fraction(1, 8)), mode="dense")

    def test_batch_only_coefficient_failure_is_re_raised(self):
        def a0(t):
            if np.size(t) > 1:
                raise EvalError("batch only")
            return 1.0

        p = make_problem(a0=ScalarFunction(a0, 1))
        with pytest.raises(EvalError, match="^batch only$"):
            assemble(p, build_grid(p, Fraction(1, 8)))

    def test_unknown_mode(self):
        p = make_problem()
        with pytest.raises(ValueError, match="unknown assembly mode 'sparse'"):
            assemble(p, build_grid(p, Fraction(1, 8)), mode="sparse")

    def test_dense_refusal_has_no_row(self):
        # The size refusal comes first: a0, which would fail, is never called.
        calls = []

        def a0(t):
            calls.append(t)
            raise EvalError("a0 was evaluated")

        p = dataclasses.replace(builtin_problem("model1"), a0=ScalarFunction(a0, 1))
        with pytest.raises(AssemblyError, match="needs a") as info:
            assemble(p, build_grid(p, Fraction(1, 4096)), mode="dense")
        assert info.value.row is None
        assert calls == []


class TestDenseLimit:
    @pytest.mark.parametrize("name", ["model1", "model2"])
    def test_limit_admits_h_1_2048(self, name):
        p = builtin_problem(name)
        assert build_grid(p, Fraction(1, 2048)).n_nodes <= DENSE_MAX_NODES
        assert build_grid(p, Fraction(1, 4096)).n_nodes > DENSE_MAX_NODES

    def test_oversized_grid_refused_before_allocation(self):
        p = builtin_problem("model1")
        g = build_grid(p, Fraction(1, 16384))
        assert g.n_nodes == 16387
        tracemalloc.start()
        try:
            with pytest.raises(AssemblyError, match=r"N=16386 needs a 16387x16387 matrix of 2148 MB"):
                assemble(p, g, mode="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6  # the matrix alone would be 2.1 GB


SQRT_LADDER = Path(__file__).resolve().parent.parent / "bench" / "fixtures" / "sqrt_ladder.cfg"
PANEL_PROBLEMS = {
    "model1": builtin_problem("model1"),
    "model2": builtin_problem("model2"),
    "sqrt_ladder": load_problem_config(SQRT_LADDER),
}


def whole_triangle_matrix(system):
    """The dense matrix from one ``weights`` call over the whole Volterra triangle."""
    n = system.size
    weights = system.weights(1, n, 0, n - 1)
    matrix = np.zeros((n, n))
    matrix[1:, : n - 1] -= weights
    matrix[1:, 1:] -= weights
    np.fill_diagonal(matrix, matrix.diagonal() + system.a0_values)
    for j, v in enumerate(system.load_columns):
        matrix[:, v] += system.load_entries[:, j]
    return matrix


class TestDensePanels:
    """Dense assembly reads the weights in row panels: same bytes, same faults, less memory."""

    @pytest.mark.parametrize("name", sorted(PANEL_PROBLEMS))
    @pytest.mark.parametrize("k", range(3, 10))
    def test_matrix_bytes_equal_one_triangle_call(self, name, k):
        p = PANEL_PROBLEMS[name]
        system = assemble(p, build_grid(p, Fraction(1, 2**k)), mode="dense")
        assert system.matrix.tobytes() == whole_triangle_matrix(system).tobytes()

    def test_kernel_failure_in_a_late_panel_names_its_row(self):
        calls = []
        kernel = ScalarFunction.from_expression("sqrt(0.9 - t) * (t - 2*s^2)", 2)

        def counted(t, s):
            calls.append(np.size(t))
            return kernel(t, s)

        p = dataclasses.replace(builtin_problem("model1"), kernel=ScalarFunction(counted, 2))
        g = build_grid(p, Fraction(1, 512))
        row = int(np.flatnonzero(g.nodes > 0.9)[0])
        with pytest.raises(AssemblyError) as info:
            assemble(p, g, mode="dense")
        assert info.value.row == row
        at = f"t={g.nodes[row]:.6g}"
        assert str(info.value) == f"kernel failed at row {row}, {at}: sqrt of a negative value at {at}, s=0.000974026"
        assert calls[0] < row * (row + 1) // 2  # the first panel ended before the failing row

    def test_both_solve_modes_name_the_same_row_and_point(self):
        kernel = ScalarFunction.from_expression("sqrt(0.9 - t) * (t - 2*s^2)", 2)
        p = dataclasses.replace(builtin_problem("model1"), kernel=kernel)
        message = "kernel failed at row 463, t=0.900778: sqrt of a negative value at t=0.900778, s=0.000974026"
        for solver in ("dense", "structured"):
            with pytest.raises(AssemblyError) as info:
                solve_collocation(p, Fraction(1, 512), solver)
            assert (info.value.row, str(info.value)) == (463, message)

    @pytest.mark.parametrize("solver", ["dense", "structured"])
    @pytest.mark.parametrize("k", [6, 9])
    @pytest.mark.parametrize("name", ["model1", "sqrt_ladder"])
    def test_a_weight_that_overflows_names_its_row(self, name, k, solver):
        # 0.5 * 1e308 * dtau * K passes the largest double where K jumps past ~1e3, a little
        # past t - s = 0.5 for sqrt_ladder, past t = 0.5 for model1: every kernel value up to
        # that row is finite, and so is every sum of two weights.  sqrt_ladder's mesh is uniform
        # and its kernel a difference kernel, which overflows itself further on, in the same
        # 64-row panel at k = 6: a streaming system would take the lag table.
        if name == "model1":
            kernel = ScalarFunction(lambda t, s: np.where(t > 0.5, 1e10, 1.0), 2)
            p = dataclasses.replace(builtin_problem("model1"), lam=1e308, kernel=kernel)
        else:
            kernel = ScalarFunction.from_expression("exp(2000*((t-s)-0.5))", 2)
            p = dataclasses.replace(load_problem_config(SQRT_LADDER), lam=1e308, kernel=kernel)
        g = build_grid(p, Fraction(1, 2**k))
        assert assemble(p, g).lag_weights() is None
        tau = g.nodes
        s = 0.5 * (tau[0] + tau[1])
        with np.errstate(over="ignore"):  # column 0 has the largest weight of every row
            w = 0.5 * p.lam * (tau[1] - tau[0]) * p.kernel(tau[tau < 0.8], s)
        row = int(np.flatnonzero(np.isinf(w))[0])
        at = f"t={tau[row]:.6g}"
        with pytest.raises(AssemblyError) as info:
            solve_collocation(p, Fraction(1, 2**k), solver)  # RuntimeWarnings are errors under pytest
        assert str(info.value) == f"weight failed at row {row}, {at}: non-finite value inf at {at}, s={s:.6g}"
        assert info.value.row == row

    @pytest.mark.parametrize("solver", ["dense", "structured"])
    @pytest.mark.parametrize("a0, kernel", [(None, "155"), (1.7e308, "-20")])
    @pytest.mark.parametrize("name", ["model1", "sqrt_ladder"])
    def test_an_entry_that_overflows_as_a_sum_is_refused(self, name, a0, kernel, solver):
        # Every weight is finite (about 1.2e308 for K = 155, -1.6e307 for K = -20), but the two
        # weights of a pair, or a0 plus a diagonal weight, pass the largest double.  model1's
        # load-aligned mesh takes direct blocks, sqrt_ladder's uniform one the lag table.
        changes = {"lam": 1e308, "kernel": ScalarFunction.from_expression(kernel, 2)}
        if a0 is not None:
            changes["a0"] = ScalarFunction.constant(a0)
        p = dataclasses.replace(PANEL_PROBLEMS[name], **changes)
        system = assemble(p, build_grid(p, Fraction(1, 64)))
        assert (system.lag_weights() is not None) == (name == "sqrt_ladder")
        assert np.isfinite(system.weights(0, system.size, 0, system.size - 1)).all()
        with pytest.raises(ValueError) as info:  # RuntimeWarnings are errors under pytest
            solve_collocation(p, Fraction(1, 64), solver)
        assert type(info.value) is ValueError and str(info.value) == "matrix entries must be finite"

    def test_a_sum_may_overflow_before_a_weight(self):
        # With K = exp(10 (t - s)) a pair sum overflows at row 33, a weight at row 37.  The
        # structured path refuses row 33's block before it solves it; the dense path assembles
        # every weight before it eliminates, and names row 37.
        kernel = ScalarFunction.from_expression("exp(10*(t-s))", 2)
        p = dataclasses.replace(builtin_problem("model1"), lam=1e308, kernel=kernel)
        system = assemble(p, build_grid(p, Fraction(1, 64)))
        with np.errstate(over="ignore"):
            finite_rows = np.isfinite(system.near(1, 37)).all(axis=1)  # rows 1..36
        assert 1 + np.flatnonzero(~finite_rows)[0] == 33
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            solve_collocation(p, Fraction(1, 64), "structured")
        with pytest.raises(AssemblyError, match="^weight failed at row 37, ") as info:
            solve_collocation(p, Fraction(1, 64), "dense")
        assert info.value.row == 37

    def test_matrix_and_rhs_are_held_in_the_augmented_array(self):
        p = builtin_problem("model2")
        system = assemble(p, build_grid(p, Fraction(1, 16)), mode="dense")
        n = system.size
        assert system.augmented.shape == (n + 1, n)
        assert np.shares_memory(system.matrix, system.augmented)
        assert system.augmented.tobytes() == np.vstack([system.matrix.T, system.rhs]).tobytes()
        assert system.matrix.tobytes() == whole_triangle_matrix(system).tobytes()

    def test_dense_solve_holds_one_augmented_array(self):
        # Assembled into [A | b] stored transposed and eliminated in place: one n x (n + 1)
        # array and a few panels of temporaries, not the matrix and a transposed copy.
        p = builtin_problem("model2")
        n = build_grid(p, Fraction(1, 256)).n_nodes
        tracemalloc.start()
        try:
            solve_collocation(p, Fraction(1, 256), "dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 259
        assert peak <= 8 * n * (n + 1) + 5 * 8 * PANEL_POINTS

    def test_memory_is_the_matrix_and_one_panel(self):
        p = builtin_problem("model2")
        g = build_grid(p, Fraction(1, 512))
        n = g.n_nodes
        assert n == 515
        tracemalloc.start()
        try:
            system = assemble(p, g, mode="dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert system.matrix.nbytes == 8 * n * n
        assert peak <= 8 * n * n + 1.5e6


class TestMidpointRule:
    def test_single_interval_third_order(self):
        # Midpoint-rule error on one subinterval shrinks like spacing^3
        # for a smooth integrand; measured slope on a halving ladder.
        rng = np.random.default_rng(7)
        c = rng.normal(size=4)
        f = lambda s: c[0] + c[1] * s + c[2] * s**2 + c[3] * np.sin(3 * s)
        errs, spacings = [], []
        for k in range(4):
            d = 0.2 / 2**k
            approx = d * f(0.3 + d / 2)
            exact = quad(f, 0.3, 0.3 + d, epsabs=1e-14)[0]
            errs.append(abs(approx - exact))
            spacings.append(d)
        slope = np.polyfit(np.log(spacings), np.log(errs), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.25)

    def test_exact_for_linear_integrand(self):
        # K constant in s and a linear trial function: one-panel midpoint
        # equals the exact integral to rounding.
        d = 0.125
        a, b = 0.25, 0.25 + d
        lin = lambda s: 2.0 - 3.0 * s
        assert d * lin((a + b) / 2) == pytest.approx(
            quad(lin, a, b)[0], rel=1e-14
        )


class TestResidual:
    def test_solver_output_has_tiny_residual(self):
        p = builtin_problem("model1")
        g = build_grid(p, Fraction(1, 16))
        system = assemble(p, g, mode="dense")
        x = gauss_jordan(system.matrix, system.rhs)
        assert assemble(p, g).residual(x) <= 1e-10

    def test_zero_vector_residual_is_max_rhs(self):
        p = builtin_problem("model1")
        g = build_grid(p, Fraction(1, 8))
        x = np.zeros(g.n_nodes)
        assert assemble(p, g).residual(x) == pytest.approx(
            np.abs(p.rhs(g.nodes)).max(), rel=1e-15
        )

    def test_perturbation_raises_residual(self):
        p = builtin_problem("model1")
        g = build_grid(p, Fraction(1, 8))
        system = assemble(p, g, mode="dense")
        x = gauss_jordan(system.matrix, system.rhs)
        k = 7  # not a load column
        assert k not in system.load_columns
        x_perturbed = x.copy()
        x_perturbed[k] += 1.0
        # Row k picks up a0(tau_k) minus its own quadrature weights; the
        # brute-force bound is the column-k sum of weight magnitudes.
        touching = sum(
            abs(system.matrix[i, k] - (p.a0(g.nodes[k]) if i == k else 0.0))
            for i in range(system.size)
        )
        bound = abs(p.a0(g.nodes[k])) - touching
        assert assemble(p, g).residual(x_perturbed) >= bound

    def test_streaming_residual_matches_dense(self):
        p = builtin_problem("model2")
        g = build_grid(p, Fraction(1, 8))
        system = assemble(p, g, mode="dense")
        rng = np.random.default_rng(3)
        x = rng.normal(size=system.size)
        dense = np.abs(system.matrix @ x - system.rhs).max()
        assert assemble(p, g).residual(x) == pytest.approx(dense, rel=1e-12)

    def test_length_mismatch(self):
        p = builtin_problem("model1")
        g = build_grid(p, Fraction(1, 8))
        with pytest.raises(ValueError, match="nodal values"):
            assemble(p, g).residual(np.zeros(3))
