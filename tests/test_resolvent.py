import dataclasses
import importlib
import math
import warnings
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lvie.config import parse_problem_config
from lvie.expressions import EvalError
from lvie.problems import LoadTerm, Problem, ScalarFunction, builtin_problem
from lvie.resolvent import (
    MAX_TERMS,
    RANK_TOL,
    TERM_TOLERANCE,
    ResolventApprox,
    SolvabilityReport,
    TruncationWarning,
    classify,
    iterated_kernel,
    load_matrix,
    reduced_coeffs,
    resolvent,
    semi_analytic_solve,
    solvability_sweep,
    sweep_csv,
)
from lvie.solvers import SolvabilityError, gauss_jordan, nullspace, rank_and_det
from lvie.study import solve_collocation

# The package re-exports a function named ``resolvent`` over its submodule.
RESOLVENT_MODULE = importlib.import_module("lvie.resolvent")
SOLVERS_MODULE = importlib.import_module("lvie.solvers")
TESTS = Path(__file__).resolve().parent
ONE = ScalarFunction.constant(1.0)
ONE2 = ScalarFunction.constant(1.0, arity=2)


def make_problem(lam=1.0, loads=(), a0=ONE, kernel=ONE2, rhs=ONE, t0=0.0, T=1.0):
    return Problem(t0=t0, T=T, lam=lam, loads=tuple(loads), a0=a0, kernel=kernel, rhs=rhs)


class TestIteratedKernel:
    def test_base_case_is_kernel(self):
        p = make_problem(kernel=ScalarFunction.from_expression("t-2*s^2", 2))
        assert iterated_kernel(p, 1, 0.8, 0.3) == 0.8 - 2 * 0.09

    def test_unit_kernel_second_iterate_exact(self):
        p = make_problem()
        for t, s in [(1.0, 0.0), (0.7, 0.2), (0.5, 0.5)]:
            assert iterated_kernel(p, 2, t, s) == pytest.approx(t - s, abs=1e-14)

    def test_unit_kernel_third_iterate(self):
        p = make_problem()
        assert iterated_kernel(p, 3, 1.0, 0.0) == pytest.approx(0.5, abs=1e-8)

    def test_normalized_by_a0(self):
        p = make_problem(a0=ScalarFunction.constant(2.0))
        assert iterated_kernel(p, 1, 0.5, 0.2) == 0.5

    def test_order_validation(self):
        with pytest.raises(ValueError):
            iterated_kernel(make_problem(), 0, 0.5, 0.2)
        with pytest.raises(ValueError, match="iterated-kernel order must be at least 1"):
            ResolventApprox(make_problem(), quad_density=16).kernel_table(0)

    def test_density_validation(self):
        with pytest.raises(ValueError, match="quad_density must be at least 1"):
            ResolventApprox(make_problem(), quad_density=0)

    def test_argument_order_validation(self):
        with pytest.raises(ValueError, match="s <= t"):
            iterated_kernel(make_problem(), 1, 0.2, 0.5)

    def test_coincident_arguments(self):
        assert iterated_kernel(make_problem(), 2, 0.4, 0.4) == 0.0

    @pytest.mark.parametrize("kernel", ["t-2*s^2", "sqrt(t-s)*exp(s)"])
    def test_column_recursion_matches_composed_tables(self, kernel):
        # Column 0 of K_n from compositions of whole tables, as on the local grid of iterated_kernel.
        p = make_problem(a0=ScalarFunction.from_expression("1+t", 1), kernel=ScalarFunction.from_expression(kernel, 2))
        t, s = 0.9, 0.15
        q = math.ceil(RESOLVENT_MODULE.DEFAULT_QUAD_DENSITY * (t - s))
        z = np.linspace(s, t, q + 1)
        first = RESOLVENT_MODULE._first_table(p, z, RESOLVENT_MODULE.DEFAULT_QUAD_DENSITY, p.a0(z))
        table = first
        for n in range(2, 6):
            table = RESOLVENT_MODULE._compose(first, table, (t - s) / q)
            assert iterated_kernel(p, n, t, s) == pytest.approx(table[-1, 0], rel=1e-12)


class TestResolvent:
    def test_unit_kernel_exponential_resummation(self):
        p = make_problem()
        cfg = ResolventApprox(p)
        assert resolvent(p, 1.0, 0.0, cfg, lam=1.0) == pytest.approx(np.e, abs=1e-6)

    def test_unit_kernel_quarter_lambda(self):
        p = make_problem()
        cfg = ResolventApprox(p)
        assert resolvent(p, 1.0, 0.0, cfg, lam=0.25) == pytest.approx(
            0.25 * np.exp(0.25), abs=1e-8
        )

    def test_zero_lambda_vanishes(self):
        p = make_problem(lam=0.0)
        cfg = ResolventApprox(p)
        for t, s in [(0.9, 0.1), (0.5, 0.5), (1.0, 0.0)]:
            assert resolvent(p, t, s, cfg) == 0.0

    def test_series_consistency_on_sample_grid(self):
        # Against the closed form lam * e^{lam (t-s)} for K == 1, on
        # grid-aligned samples (interpolation tested separately).
        p = make_problem()
        for lam in (0.25, 1.0):
            cfg = ResolventApprox(p)
            ts = cfg.z[np.linspace(0, len(cfg.z) - 1, 20).astype(int)]
            worst = max(
                abs(resolvent(p, t, s, cfg, lam=lam) - lam * np.exp(lam * (t - s)))
                for t in ts
                for s in ts
                if s <= t
            )
            assert worst <= 1e-6

    def test_truncation_budget_warns(self):
        # K == 1 at lam = 50 still has terms far above tolerance at MAX_TERMS.
        p = make_problem(lam=50.0)
        cfg = ResolventApprox(p, quad_density=16)
        with pytest.warns(TruncationWarning):
            resolvent(p, 1.0, 0.0, cfg)
        # The table is kept for the last lam; reusing it still warns.
        with pytest.warns(TruncationWarning):
            resolvent(p, 1.0, 0.0, cfg)

    def test_last_lambda_table_matches_fresh(self):
        # Switching lam away and back rebuilds the same table bit for bit.
        p = make_problem()
        cfg = ResolventApprox(p)
        for lam in (0.25, 1.0, 0.25):
            fresh = ResolventApprox(p)
            for t, s in [(1.0, 0.0), (0.7, 0.2), (0.43, 0.43), (0.9, 0.61)]:
                assert resolvent(p, t, s, cfg, lam=lam) == resolvent(p, t, s, fresh, lam=lam)

    def test_off_grid_interpolation_accuracy(self):
        p = make_problem()
        cfg = ResolventApprox(p)
        rng = np.random.default_rng(11)
        for _ in range(50):
            s, t = np.sort(rng.uniform(0.0, 1.0, size=2))
            assert resolvent(p, t, s, cfg, lam=1.0) == pytest.approx(
                np.exp(t - s), abs=5e-6
            )

    def test_argument_order_validation(self):
        p = make_problem()
        cfg = ResolventApprox(p)
        with pytest.raises(ValueError):
            resolvent(p, 0.1, 0.9, cfg)

    def test_terms_counted_by_kernels_not_by_data(self):
        # With f == 0 and no loads every I_n is 0, so F needs one term;
        # the resolvent itself still needs the whole series.
        p = make_problem(rhs=ScalarFunction.constant(0.0))
        cfg = ResolventApprox(p)
        assert cfg.terms_needed(1.0) == (1, True)
        assert resolvent(p, 1.0, 0.0, cfg, lam=1.0) == pytest.approx(np.e, abs=1e-6)


class TestReducedCoeffs:
    def test_lambda_zero_reduces_to_raw_data(self):
        p = make_problem(
            lam=0.0,
            loads=(LoadTerm(0.5, ScalarFunction.from_expression("t+1", 1)),),
            rhs=ScalarFunction.from_expression("cos(t)", 1),
        )
        cfg = ResolventApprox(p)
        F, b = reduced_coeffs(p, 0.7, cfg)
        assert F == pytest.approx(np.cos(0.7), abs=1e-15)
        assert b[0] == pytest.approx(1.7, abs=1e-15)

    def test_at_interval_start_integral_is_empty(self):
        p = make_problem(
            lam=0.8,
            loads=(LoadTerm(0.5, ScalarFunction.from_expression("t+1", 1)),),
            rhs=ScalarFunction.from_expression("cos(t)", 1),
        )
        cfg = ResolventApprox(p)
        F, b = reduced_coeffs(p, 0.0, cfg)
        assert F == pytest.approx(1.0, abs=1e-12)
        assert b[0] == pytest.approx(1.0, abs=1e-12)

    def test_unit_kernel_closed_form(self):
        # K == 1, f == 1, lam = 1: F(t) = 1 + int_0^t e^{t-s} ds = e^t.
        p = make_problem(lam=1.0)
        cfg = ResolventApprox(p)
        F, _ = reduced_coeffs(p, 1.0, cfg)
        assert F == pytest.approx(np.e, abs=1e-6)

    def test_normalization_by_a0(self):
        p = make_problem(lam=0.0, a0=ScalarFunction.constant(4.0))
        F, _ = reduced_coeffs(p, 0.3, ResolventApprox(p))
        assert F == pytest.approx(0.25)

    def test_point_outside_interval(self):
        p = make_problem()
        with pytest.raises(ValueError, match=r"^t=1\.5 outside \[0, 1\]$"):
            reduced_coeffs(p, 1.5, ResolventApprox(p, quad_density=16))


UNIT_ONE_LOAD = dict(loads=(LoadTerm(0.5, ScalarFunction.from_expression("t+1", 1)),))


def volterra_integrals(cfg, R):
    """Row-wise trapezoid of int_{t0}^{z_i} R(z_i, s) v(s) ds, one row per v in f~ and every a~_j.

    The reference the recursion for the I_n is tested against, on tables.
    """
    return np.array(
        [cfg.dz * (R @ v - 0.5 * (R[:, 0] * v[0] + np.diagonal(R) * v)) for v in cfg._data]
    )


class TestReducedTables:
    """The lam-free integrals I_n against the integrals of the resolvent table."""

    @pytest.fixture(scope="class")
    def cfgs(self):
        problems = {
            "model1": builtin_problem("model1"),
            "model2": builtin_problem("model2"),
            "unit": make_problem(**UNIT_ONE_LOAD),
        }
        return {name: ResolventApprox(p, quad_density=128) for name, p in problems.items()}

    @staticmethod
    def _assert_close(cfg, lam):
        with warnings.catch_warnings():
            # K == 1 needs more than MAX_TERMS terms at |lam| >= 10
            warnings.simplefilter("ignore", TruncationWarning)
            F_int, B_int = cfg.reduced_tables(lam)
            expected = volterra_integrals(cfg, cfg.resolvent_table(lam))
        ints = np.vstack([F_int[None, :], B_int])
        assert ints.shape == expected.shape
        assert np.abs(ints - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("lam", [-10.0, -1.0, 0.0, 0.25, 3.5641, 10.0])
    @pytest.mark.parametrize("name", ["model1", "model2", "unit"])
    def test_matches_integrals_of_resolvent_table(self, cfgs, name, lam):
        self._assert_close(cfgs[name], lam)

    @pytest.mark.parametrize("lam", [-10.0, -1.0, 0.0, 0.25, 3.5641, 10.0])
    @pytest.mark.parametrize("name", ["model1", "model2", "unit"])
    def test_matches_integrals_of_kernel_tables(self, cfgs, name, lam):
        # The vector recursion against the integrals of the composed
        # tables K_n, summed to the same term count.
        cfg = cfgs[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            count = cfg.terms_needed(lam)[0]
            F_int, B_int = cfg.reduced_tables(lam)
        expected = sum(
            lam**n * volterra_integrals(cfg, cfg.kernel_table(n)) for n in range(1, count + 1)
        )
        ints = np.vstack([F_int[None, :], B_int])
        assert np.abs(ints - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_matches_when_truncated(self):
        cfg = ResolventApprox(make_problem(**UNIT_ONE_LOAD), quad_density=16)
        with pytest.warns(TruncationWarning):
            assert cfg.terms_needed(50.0) == (40, False)
        self._assert_close(cfg, 50.0)

    @pytest.mark.parametrize("n", [1, 2, 64, 65, 513])
    def test_compose_matches_full_product(self, n):
        rng = np.random.default_rng(n)
        first = np.tril(rng.standard_normal((n, n)))
        prev = np.tril(rng.standard_normal((n, n)))
        dz = 1.0 / n
        full = dz * (
            first @ prev
            - 0.5 * (first * np.diagonal(prev)[None, :] + np.diagonal(first)[:, None] * prev)
        )
        out = RESOLVENT_MODULE._compose(first, prev, dz)
        assert np.abs(out - full).max() <= 1e-13 * np.abs(full).max()
        assert np.all(np.triu(out, 1) == 0.0)

    @pytest.mark.parametrize("name", ["model1", "model2"])
    def test_compose_corrections_by_panel_are_bytewise_full_pass(self, name):
        # Reference order: the row-panel product, then the trapezoid
        # corrections as one full n x n pass.
        cfg = ResolventApprox(builtin_problem(name), quad_density=150)
        first, prev, dz = cfg.kernel_table(1), cfg.kernel_table(3), cfg.dz
        full = np.zeros_like(first)
        for r0 in range(0, first.shape[0], RESOLVENT_MODULE.COMPOSE_PANEL_ROWS):
            r1 = min(r0 + RESOLVENT_MODULE.COMPOSE_PANEL_ROWS, first.shape[0])
            full[r0:r1, :r1] = first[r0:r1, :r1] @ prev[:r1, :r1]
        full -= 0.5 * (first * np.diagonal(prev)[None, :] + np.diagonal(first)[:, None] * prev)
        full *= dz
        assert RESOLVENT_MODULE._compose(first, prev, dz).tobytes() == full.tobytes()


class TestPerLambdaCost:
    """Per lam, no entry point but the point evaluator builds an n x n table."""

    def test_no_resolvent_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a resolvent table was built")

        monkeypatch.setattr(ResolventApprox, "resolvent_table", refuse)
        p = builtin_problem("model1")
        cfg = ResolventApprox(p, quad_density=64)
        assert len(solvability_sweep(p, [-1.0, 0.0, 0.25], cfg)) == 3
        assert classify(p, cfg, 0.5).classification == "unique"
        load_matrix(p, cfg, 0.5)
        reduced_coeffs(p, 0.3, cfg, 0.5)
        assert np.all(np.isfinite(semi_analytic_solve(p, [0.0, 0.5, 1.0], cfg, 0.5)))

    def test_no_composition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an iterated-kernel table was composed")

        monkeypatch.setattr(RESOLVENT_MODULE, "_compose", refuse)
        p = builtin_problem("model1")
        cfg = ResolventApprox(p, quad_density=64)
        reports = solvability_sweep(p, np.linspace(-10.0, 10.0, 9), cfg)
        assert [r.classification for r in reports] == ["unique"] * 9
        assert classify(p, cfg, 3.5641).classification == "unique"
        assert np.all(np.isfinite(semi_analytic_solve(p, [0.0, 0.5, 1.0], cfg, 0.5)))
        assert len(cfg._tables) == 0

    @pytest.mark.parametrize("loads", [(), UNIT_ONE_LOAD["loads"]])
    def test_one_truncation_warning_per_call(self, loads):
        p = make_problem(lam=50.0, loads=loads)
        cfg = ResolventApprox(p, quad_density=16)
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                classify(p, cfg)
            assert len(caught) == (1 if loads else 0)
            assert all(w.category is TruncationWarning for w in caught)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                semi_analytic_solve(p, [0.5], cfg)
            assert [w.category for w in caught] == [TruncationWarning]


def _plain(fn):
    """``fn`` as a plain callable: no source, so no split and the table path."""
    return ScalarFunction(lambda *args: fn(*args), fn.arity)


def _with_kernel(p, kernel):
    return dataclasses.replace(p, kernel=kernel)


SPLIT_PROBLEMS = {
    "model1": builtin_problem("model1"),
    "model2": builtin_problem("model2"),
    "1+t-s": _with_kernel(builtin_problem("model1"), ScalarFunction.from_expression("1+t-s", 2)),
    "unit": make_problem(**UNIT_ONE_LOAD),
}


class TestSplitKernel:
    """A separable kernel's running sums against the table path of the same kernel."""

    @pytest.fixture(scope="class")
    def cfg_pairs(self):
        pairs = {}
        for name, p in SPLIT_PROBLEMS.items():
            table_p = _with_kernel(p, _plain(p.kernel))
            pairs[name] = (
                (p, ResolventApprox(p, quad_density=128)),
                (table_p, ResolventApprox(table_p, quad_density=128)),
            )
        return pairs

    @staticmethod
    def _assert_same(split, table, lam):
        (p, cfg), (table_p, table_cfg) = split, table
        assert cfg._factors is not None and table_cfg._factors is None
        F, B = cfg.reduced_tables(lam)
        F_ref, B_ref = table_cfg.reduced_tables(lam)
        ints, expected = np.vstack([F, B]), np.vstack([F_ref, B_ref])
        assert np.abs(ints - expected).max() <= 1e-12 * np.abs(expected).max()
        rep, ref = classify(p, cfg, lam), classify(table_p, table_cfg, lam)
        assert (rep.label, rep.rank) == (ref.label, ref.rank)
        scale = np.abs(load_matrix(table_p, table_cfg, lam)[0]).max() ** len(p.loads)
        assert abs(rep.det - ref.det) <= 1e-12 * scale

    @pytest.mark.parametrize("lam", [-10.0, -1.0, 0.0, 0.25, 3.5641, 10.0])
    @pytest.mark.parametrize("name", list(SPLIT_PROBLEMS))
    def test_matches_table_path(self, cfg_pairs, name, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            self._assert_same(*cfg_pairs[name], lam)

    @pytest.mark.parametrize("name", list(SPLIT_PROBLEMS))
    def test_matches_table_path_when_truncated(self, name):
        p = SPLIT_PROBLEMS[name]
        table_p = _with_kernel(p, _plain(p.kernel))
        split, table = (
            (q, ResolventApprox(q, quad_density=16)) for q in (p, table_p)
        )
        for _, cfg in (split, table):
            with pytest.warns(TruncationWarning):
                assert cfg.terms_needed(50.0) == (40, False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            self._assert_same(split, table, 50.0)

    @pytest.mark.parametrize(
        "kernel",
        [
            # source and callable disagree by 1e-9 t s
            ScalarFunction(lambda t, s: t - 2 * s**2 + 1e-9 * t * s, 2, "t-2*s^2"),
            # each term is 1e8 times the kernel: the split cancels
            ScalarFunction.from_expression("t*(1+1e8) - s - 1e8*t", 2),
        ],
        ids=["broken-source", "cancellation"],
    )
    def test_guard_keeps_the_table(self, kernel):
        p = _with_kernel(builtin_problem("model1"), kernel)
        table_p = _with_kernel(p, _plain(kernel))
        cfg, table_cfg = ResolventApprox(p, quad_density=64), ResolventApprox(table_p, quad_density=64)
        assert cfg._factors is None
        for lam in (-1.0, 0.25, 3.5641):
            ints = np.vstack(cfg.reduced_tables(lam))
            assert ints.tobytes() == np.vstack(table_cfg.reduced_tables(lam)).tobytes()
            assert classify(p, cfg, lam).det == classify(table_p, table_cfg, lam).det

    def test_guard_checks_the_running_sums(self, monkeypatch):
        # Sums off by 1e-9 relative, as cancellation between terms would leave
        # them, while the kernel values on the three lines agree.
        exact = RESOLVENT_MODULE._running_sums
        monkeypatch.setattr(
            RESOLVENT_MODULE, "_running_sums", lambda factors, rows: exact(factors, rows) * (1 + 1e-9)
        )
        assert ResolventApprox(builtin_problem("model1"), quad_density=64)._factors is None

    def test_raising_kernel_reports_as_the_table_does(self):
        # The factor 1/s raises at s = 0, and so does the kernel on the table.
        p = _with_kernel(builtin_problem("model1"), ScalarFunction.from_expression("t/s", 2))
        with pytest.raises(EvalError, match="division by zero"):
            ResolventApprox(p, quad_density=16)

        def picky(t, s):
            if np.any(t > 0.9):
                raise ValueError("kernel undefined past t = 0.9")
            return t - 2 * s**2

        q = _with_kernel(p, ScalarFunction(picky, 2, "t-2*s^2"))
        with pytest.raises(ValueError, match="kernel undefined past t = 0.9"):
            ResolventApprox(q, quad_density=16)

    def test_kernel_table_built_on_first_use(self):
        p = builtin_problem("model1")
        cfg = ResolventApprox(p, quad_density=64)
        assert cfg._tables == []
        table = cfg.kernel_table(1)
        assert table.tobytes() == RESOLVENT_MODULE._first_table(p, cfg.z, 64, p.a0(cfg.z)).tobytes()
        assert np.array_equal(np.diagonal(table), cfg._diag)
        assert np.array_equal(table[:, 0], cfg._col0)

    @pytest.mark.parametrize("density", [1, 16, 100, 513])
    def test_table_panels_give_the_bytes_of_one_triangle_call(self, density):
        p = parse_problem_config((TESTS.parent / "bench" / "fixtures" / "sqrt_ladder.cfg").read_text())
        cfg = ResolventApprox(p, quad_density=density)
        rows, cols = np.tril_indices(cfg.z.size)
        whole = np.zeros((cfg.z.size, cfg.z.size))
        whole[rows, cols] = p.kernel(cfg.z[rows], cfg.z[cols]) / p.a0(cfg.z)[rows]
        table = cfg.kernel_table(2)
        assert cfg._tables[0].tobytes() == whole.tobytes()
        assert cfg._tables_max == [float(np.abs(whole).max()), float(np.abs(table).max())]

    def test_table_build_holds_the_table_and_one_panel(self):
        p = parse_problem_config((TESTS.parent / "bench" / "fixtures" / "sqrt_ladder.cfg").read_text())
        tracemalloc.start()
        try:
            cfg = ResolventApprox(p, quad_density=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg._factors is None  # sqrt(t-s) has no split: the table path
        assert peak <= cfg._tables[0].nbytes + 4e6

    def test_no_square_array(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel table was built")

        monkeypatch.setattr(RESOLVENT_MODULE, "_first_table", refuse)
        p = builtin_problem("model1")
        tracemalloc.start()
        try:
            cfg = ResolventApprox(p)
            reports = solvability_sweep(p, np.linspace(-10.0, 10.0, 41), cfg)
            report = classify(p, cfg, 3.5641)
            values = semi_analytic_solve(p, np.linspace(0.0, 1.0, 1025), cfg, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.label for r in reports] == ["unique"] * 41
        assert report.label == "unique"
        assert np.abs(values - np.cos(np.linspace(0.0, 1.0, 1025))).max() <= 1e-6
        assert peak < cfg.z.size**2 * 8

    def test_memory_linear_past_the_table_limit(self):
        p = builtin_problem("model1")
        tracemalloc.start()
        try:
            cfg = ResolventApprox(p, quad_density=20000)
            reports = solvability_sweep(p, np.linspace(-10.0, 10.0, 41), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.label for r in reports] == ["unique"] * 41
        n = cfg.z.size
        assert n > RESOLVENT_MODULE.TABLE_MAX_NODES
        assert peak < (RESOLVENT_MODULE.MAX_TERMS + 10) * (1 + len(p.loads)) * n * 8


@pytest.mark.parametrize(
    "p, table",
    [
        (builtin_problem("model1"), False),
        (parse_problem_config((TESTS.parent / "bench" / "fixtures" / "sqrt_ladder.cfg").read_text()), True),
    ],
    ids=["split", "table"],
)
def test_a0_evaluated_once_per_point_set(p, table):
    # The grid (513 points) and the load points; the split or the table reads the grid's a0.
    sizes = []

    def a0(t):
        sizes.append(np.size(t))
        return p.a0(t)

    cfg = ResolventApprox(dataclasses.replace(p, a0=ScalarFunction(a0, 1)))
    assert (cfg._factors is None) == table
    assert sizes == [513, len(p.loads)]


class TestTableLimit:
    """The table path refuses a grid past ``TABLE_MAX_NODES`` before allocating it."""

    def test_refused_with_density_and_bytes(self):
        p = _with_kernel(builtin_problem("model1"), _plain(builtin_problem("model1").kernel))
        density = RESOLVENT_MODULE.TABLE_MAX_NODES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"quad_density 4097 has 4098 nodes and needs 134 MB"):
                ResolventApprox(p, quad_density=density)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4098**2 * 8 / 100

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(RESOLVENT_MODULE, "TABLE_MAX_NODES", 65)
        p = _with_kernel(builtin_problem("model1"), _plain(builtin_problem("model1").kernel))
        assert ResolventApprox(p, quad_density=64).kernel_table(1).shape == (65, 65)
        with pytest.raises(ValueError, match="the limit is 65 nodes"):
            ResolventApprox(p, quad_density=65)
        split = ResolventApprox(builtin_problem("model1"), quad_density=65)
        with pytest.raises(ValueError, match="the limit is 65 nodes"):
            resolvent(split.problem, 0.5, 0.25, split)


class TestUnitKernelIntegrals:
    """K == 1, f == 1, no loads: F = e^{lam t}, so F_int = e^{lam t} - 1."""

    @staticmethod
    def _error(lam, density):
        cfg = ResolventApprox(make_problem(), quad_density=density)
        F_int, B_int = cfg.reduced_tables(lam)
        assert B_int.shape == (0, cfg.z.size)
        return float(np.abs(F_int - np.expm1(lam * cfg.z)).max())

    @pytest.mark.parametrize("lam", [-2.0, 1.0, 3.0])
    def test_second_order_against_closed_form(self, lam):
        coarse, fine = self._error(lam, 128), self._error(lam, 256)
        assert fine <= 5e-5 * np.exp(abs(lam))
        assert np.log2(coarse / fine) == pytest.approx(2.0, abs=0.01)


class TestLoadMatrix:
    @pytest.mark.parametrize("name", ["model1", "model2"])
    def test_rows_are_reduced_coeffs_at_load_points(self, name):
        p = builtin_problem(name)
        cfg = ResolventApprox(p, quad_density=64)
        for lam in (-2.0, 0.0, 0.7):
            A, d = load_matrix(p, cfg, lam)
            for i, term in enumerate(p.loads):
                F, b = reduced_coeffs(p, term.point, cfg, lam)
                assert d[i] == F
                np.testing.assert_array_equal(A[i], np.eye(len(p.loads))[i] + b)

    def test_lambda_zero_special_case(self):
        p = make_problem(
            lam=0.0,
            loads=(
                LoadTerm(0.3, ScalarFunction.from_expression("1-t^3", 1)),
                LoadTerm(0.5, ScalarFunction.from_expression("t-2", 1)),
            ),
        )
        A, d = load_matrix(p, ResolventApprox(p))
        expected = np.eye(2)
        for i, ti in enumerate((0.3, 0.5)):
            expected[i, 0] += 1 - ti**3
            expected[i, 1] += ti - 2
        np.testing.assert_allclose(A, expected, atol=1e-14)
        np.testing.assert_allclose(d, [1.0, 1.0], atol=1e-14)

    def test_no_loads_degenerate(self):
        p = make_problem()
        A, d = load_matrix(p, ResolventApprox(p))
        assert A.shape == (0, 0)
        assert d.shape == (0,)
        assert classify(p).classification == "unique"

    def test_no_loads_classify_builds_no_tables(self, monkeypatch):
        p = make_problem()
        cfg_of_other = ResolventApprox(builtin_problem("model1"), quad_density=16)
        built = []
        monkeypatch.setattr(ResolventApprox, "__init__", lambda self, *a, **k: built.append(a))
        report = classify(p, lam=0.5)
        assert (report.classification, report.rank, report.det) == ("unique", 0, 1.0)
        assert report.load_values.shape == (0,)
        with pytest.raises(ValueError, match="another problem"):
            classify(p, cfg_of_other)
        assert built == []

    def test_constructed_singular_one_load(self):
        p = make_problem(
            lam=0.0, loads=(LoadTerm(0.5, ScalarFunction.constant(-1.0)),)
        )
        A, _ = load_matrix(p, ResolventApprox(p))
        assert A.shape == (1, 1)
        assert A[0, 0] == pytest.approx(0.0, abs=1e-15)


class TestClassify:
    def test_model1_unique_with_exact_load_values(self):
        p = builtin_problem("model1")
        report = classify(p)
        assert report.classification == "unique"
        assert report.rank == 2
        np.testing.assert_allclose(
            report.load_values, [np.cos(0.3), np.cos(0.5)], atol=1e-5
        )

    def test_model2_unique(self):
        report = classify(builtin_problem("model2"))
        assert report.classification == "unique"
        np.testing.assert_allclose(
            report.load_values, [np.exp(0.3), np.exp(0.5)], atol=1e-5
        )

    def test_unique_one_load(self):
        p = make_problem(
            lam=0.0, loads=(LoadTerm(0.5, ScalarFunction.constant(0.5)),)
        )
        report = classify(p)
        assert report.label == "unique"
        assert report.load_values[0] == pytest.approx(1 / 1.5)

    def test_family_one_load(self):
        # A = [0], d = [0]: every load value solves the system.
        p = make_problem(
            lam=0.0,
            loads=(LoadTerm(0.5, ScalarFunction.constant(-1.0)),),
            rhs=ScalarFunction.constant(0.0),
        )
        report = classify(p)
        assert report.classification == "family"
        assert report.family_dim == 1
        assert report.label == "family(1)"

    def test_no_solution_one_load(self):
        # A = [0], d = [1]: inconsistent.
        p = make_problem(
            lam=0.0, loads=(LoadTerm(0.5, ScalarFunction.constant(-1.0)),)
        )
        report = classify(p)
        assert report.classification == "no_solution"
        assert report.orthogonality_defect > 1e-2

    def test_scale_invariance_of_classification(self):
        base = make_problem(
            lam=0.0, loads=(LoadTerm(0.5, ScalarFunction.constant(-1.0)),)
        )
        for scale in (1.0, -3.0, 1e-6, 1e6):
            p = make_problem(
                lam=0.0,
                loads=(LoadTerm(0.5, ScalarFunction.constant(-1.0)),),
                rhs=ScalarFunction.constant(scale),
            )
            assert classify(p).classification == classify(base).classification

    def test_full_rank_stable_under_tiny_noise(self):
        p = builtin_problem("model1")
        cfg = ResolventApprox(p)
        A, d = load_matrix(p, cfg)
        from lvie.solvers import rank_and_det

        rng = np.random.default_rng(9)
        for _ in range(20):
            noisy = A + 1e-10 * rng.normal(size=A.shape)
            assert rank_and_det(noisy).rank == 2

    def test_two_load_family_two(self):
        # Linear coefficients tuned so delta_ij + a_j(t_i) == 0: the load
        # matrix has rank 0 and a homogeneous right-hand side, giving a
        # two-parameter family.
        p = make_problem(
            lam=0.0,
            loads=(
                LoadTerm(0.3, ScalarFunction.from_expression("(t-0.5)/0.2", 1)),
                LoadTerm(0.5, ScalarFunction.from_expression("(0.3-t)/0.2", 1)),
            ),
            rhs=ScalarFunction.constant(0.0),
        )
        A, d = load_matrix(p, ResolventApprox(p))
        np.testing.assert_allclose(A, np.zeros((2, 2)), atol=1e-12)
        report = classify(p)
        assert report.classification == "family"
        assert report.family_dim == 2

class TestNonFiniteLambda:
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_classify_refuses_before_any_table(self, monkeypatch, lam):
        def refuse(*args, **kwargs):
            raise AssertionError("a resolvent table was built for a non-finite lambda")

        monkeypatch.setattr(RESOLVENT_MODULE, "ResolventApprox", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=f"lambda must be finite, got {lam}"):
                classify(builtin_problem("model1"), lam=lam)
        assert caught == []

    def test_shared_tables_untouched(self):
        # A NaN partway through a sweep leaves the shared state as it was.
        p = builtin_problem("model1")
        cfg = ResolventApprox(p, quad_density=16)
        classify(p, cfg, 0.25)
        n_tables = len(cfg._tables)
        ints = [row.copy() for row in cfg._ints]
        with pytest.raises(ValueError, match="lambda must be finite"):
            solvability_sweep(p, [0.25, float("nan")], cfg)
        assert len(cfg._tables) == n_tables
        assert len(cfg._ints) == len(ints)
        for before, after in zip(ints, cfg._ints):
            assert after.tobytes() == before.tobytes()
        shared = classify(p, cfg, 0.25)
        fresh = classify(p, ResolventApprox(p, quad_density=16), 0.25)
        assert (shared.det, shared.rank, shared.classification) == (
            fresh.det, fresh.rank, fresh.classification
        )
        assert shared.load_values.tobytes() == fresh.load_values.tobytes()


def _model1_with(**fields):
    return dataclasses.replace(builtin_problem("model1"), **fields)


_F1 = builtin_problem("model1").rhs
# A non-finite value is refused by ScalarFunction where it is read; a zero
# a0 by the normalization, which divides by it.
UNUSABLE_DATA = {
    "f_nan": (
        _model1_with(rhs=ScalarFunction(lambda t: np.where(t > 0.7, np.nan, _F1(t)), 1)),
        EvalError,
        r"^non-finite value nan at t=0\.701172$",
    ),
    "a0_zero": (_model1_with(a0=ScalarFunction.from_expression("t-0.5", 1)), ValueError, r"^a0 is 0 at t=0\.5$"),
    "kernel_nan": (
        _model1_with(kernel=ScalarFunction(lambda t, s: np.full(np.shape(t), np.nan), 2)),
        EvalError,
        r"^non-finite value nan at t=0, s=0$",
    ),
}


class TestUnusableData:
    """Data the normalization cannot use is refused before any division, without a warning."""

    @pytest.mark.parametrize("name", sorted(UNUSABLE_DATA))
    def test_refused_with_the_first_point(self, name):
        p, error, message = UNUSABLE_DATA[name]
        for call in (classify, lambda p: semi_analytic_solve(p, np.linspace(0.0, 1.0, 5))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(error, match=message):
                    call(p)
            assert caught == []

    def test_iterated_kernel_refuses_a_nan_kernel(self):
        p = UNUSABLE_DATA["kernel_nan"][0]
        for n, at in [(1, r"t=0\.5, s=0\.1"), (2, r"t=0\.1, s=0\.1")]:
            with pytest.raises(EvalError, match=rf"^non-finite value nan at {at}$"):
                iterated_kernel(p, n, 0.5, 0.1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_iterated_kernel_refuses_a_zero_a0(self, n):
        p, _, message = UNUSABLE_DATA["a0_zero"]
        with pytest.raises(ValueError, match=message):
            iterated_kernel(p, n, 0.5, 0.1)


class TestOverflowingLambda:
    # |lambda|^n overflows a float for |lambda| above about 5e7 and n near MAX_TERMS.
    @pytest.mark.parametrize("lam", [1e8, -1e8, 6e7])
    def test_classify_names_the_lambda(self, lam):
        p = builtin_problem("model1")
        with pytest.raises(ValueError, match=f"lambda too large, got {lam}"):
            classify(p, ResolventApprox(p, quad_density=16), lam)

    def test_sweep_names_the_largest_lambda(self):
        p = builtin_problem("model1")
        with pytest.raises(ValueError, match="lambda too large, got -1e\\+200"):
            solvability_sweep(p, [0.25, 1e100, -1e200], ResolventApprox(p, quad_density=16))

    def test_resolvent_table_names_the_lambda(self):
        p = builtin_problem("model1")
        with pytest.raises(ValueError, match="lambda too large, got 1e\\+100"):
            resolvent(p, 0.5, 0.25, ResolventApprox(p, quad_density=16), lam=1e100)

    def test_series_that_stops_before_overflowing(self):
        # A zero kernel stops the series at its first term, whatever lambda is.
        p = Problem(
            t0=0.0, T=1.0, lam=1e200,
            loads=(LoadTerm(0.5, ScalarFunction.constant(0.5)),),
            a0=ScalarFunction.constant(1.0),
            kernel=ScalarFunction.constant(0.0, arity=2),
            rhs=ScalarFunction.from_expression("1+t", 1),
        )
        report = classify(p, ResolventApprox(p, quad_density=16))
        assert report.classification == "unique"
        np.testing.assert_allclose(report.load_values, [1.5 / 1.5])


class TestSemiAnalytic:
    def test_lambda_zero_no_loads_returns_rhs(self):
        p = make_problem(lam=0.0, rhs=ScalarFunction.from_expression("cos(t)", 1))
        ts = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(
            semi_analytic_solve(p, ts), np.cos(ts), atol=1e-14
        )

    def test_model2_against_exact(self):
        p = builtin_problem("model2")
        ts = np.linspace(0.0, 1.0, 101)
        values = semi_analytic_solve(p, ts)
        assert np.abs(values - np.exp(ts)).max() <= 1e-4

    def test_model1_at_interval_start(self):
        # Empty integrals at t0 reduce the formula to finite arithmetic:
        # x(0) = f(0) - a1(0) c1 - a2(0) c2 = cos(0) = 1.
        p = builtin_problem("model1")
        value = semi_analytic_solve(p, [0.0])[0]
        assert value == pytest.approx(1.0, abs=1e-5)

    def test_model1_against_collocation(self):
        p = builtin_problem("model1")
        ts = np.linspace(0.0, 1.0, 51)
        semi = semi_analytic_solve(p, ts)
        sol = solve_collocation(p, Fraction(1, 256), solver="dense")
        assert np.abs(semi - sol.evaluate(ts)).max() <= 1e-4

    def test_requires_unique(self):
        p = make_problem(
            lam=0.0, loads=(LoadTerm(0.5, ScalarFunction.constant(-1.0)),)
        )
        with pytest.raises(SolvabilityError, match="not uniquely solvable"):
            semi_analytic_solve(p, [0.5])

    def test_sample_range_validated(self):
        p = make_problem(lam=0.0)
        with pytest.raises(ValueError, match="interval"):
            semi_analytic_solve(p, [1.5])

    @pytest.mark.parametrize("name", ["constant", "model1"])
    def test_nan_sample_rejected(self, name):
        p = make_problem(lam=0.0) if name == "constant" else builtin_problem(name)
        with pytest.raises(ValueError, match="interval"):
            semi_analytic_solve(p, [np.nan, 0.5], ResolventApprox(p, quad_density=16))

    def test_samples_checked_before_classify(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("classify ran before the sample check")

        monkeypatch.setattr(RESOLVENT_MODULE, "classify", fail)
        with pytest.raises(ValueError, match="interval"):
            semi_analytic_solve(builtin_problem("model1"), [1.5])


class TestSweep:
    def test_sweep_row_count_and_csv(self):
        p = builtin_problem("model1")
        reports = solvability_sweep(p, np.linspace(0.0, 1.0, 11))
        assert len(reports) == 11
        assert all(r.classification == "unique" for r in reports)
        text = sweep_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "lambda,detA,rank,classification,orthogonality_defect"
        assert len(lines) == 12
        assert ",unique," in lines[1]

    def test_tables_are_reused_across_lambdas(self):
        p = builtin_problem("model1")
        cfg = ResolventApprox(p)
        solvability_sweep(p, [0.0, 0.1, 0.25], cfg)
        # the integrals grew once; a second sweep grows neither them nor the tables
        n_ints, n_tables = len(cfg._ints), len(cfg._tables)
        solvability_sweep(p, [0.0, 0.1, 0.25], cfg)
        assert (len(cfg._ints), len(cfg._tables)) == (n_ints, n_tables)

    def test_sweep_allocates_no_table_once_tables_exist(self):
        p = builtin_problem("model1")
        cfg = ResolventApprox(p)
        solvability_sweep(p, [-10.0, 10.0], cfg)  # builds every table |lam| <= 10 needs
        tracemalloc.start()
        try:
            solvability_sweep(p, np.linspace(-10.0, 10.0, 41), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.z.size**2 * 8

    def test_memory_does_not_grow_with_lambda_count(self):
        # Per lam only O(n) vectors are kept, so 20 lambdas may not cost
        # another n x n table over 2 lambdas spanning the same range.
        p = builtin_problem("model1")

        def sweep_peak(count):
            tracemalloc.start()
            try:
                cfg = ResolventApprox(p, quad_density=128)
                solvability_sweep(p, np.linspace(0.5, 1.0, count), cfg)
                return tracemalloc.get_traced_memory()[1], cfg.z.size
            finally:
                tracemalloc.stop()

        peak_2, n = sweep_peak(2)
        peak_20, _ = sweep_peak(20)
        assert peak_20 - peak_2 < n * n * 8


# Every entry point that takes a ResolventApprox, called with a model2
# problem and a cfg tabulated for model1.
_CFG_CALLS = {
    "resolvent": lambda p, cfg: resolvent(p, 0.5, 0.25, cfg),
    "reduced_coeffs": lambda p, cfg: reduced_coeffs(p, 0.5, cfg),
    "load_matrix": lambda p, cfg: load_matrix(p, cfg),
    "classify": lambda p, cfg: classify(p, cfg),
    "semi_analytic_solve": lambda p, cfg: semi_analytic_solve(p, [0.5], cfg),
    "solvability_sweep": lambda p, cfg: solvability_sweep(p, [0.25], cfg),
}


@pytest.mark.parametrize("name", list(_CFG_CALLS))
def test_cfg_of_another_problem_rejected(name):
    cfg = ResolventApprox(builtin_problem("model1"), quad_density=16)
    with pytest.raises(ValueError, match="another problem"):
        _CFG_CALLS[name](builtin_problem("model2"), cfg)


def reference_series(lam, count, terms):
    """lam terms[0] + lam^2 terms[1] + ... + lam^count terms[count - 1], summed from zero."""
    total = np.zeros_like(terms[0])
    for n in range(1, count + 1):
        total += lam**n * terms[n - 1]
    return total


def full_grid_reduced(cfg, ts, lam):
    """F and every b_j at ``ts`` from the full tables: the series on every node, then np.interp."""
    ints = reference_series(lam, cfg.terms_needed(lam)[0], cfg._ints)
    tilde = RESOLVENT_MODULE._tilde(cfg.problem, ts)
    F = tilde[0] + np.interp(ts, cfg.z, ints[0])
    B = tilde[1:].copy()
    for j, row in enumerate(ints[1:]):
        B[j] += np.interp(ts, cfg.z, row)
    return F, B


def full_grid_load_system(cfg, lam):
    d, B = full_grid_reduced(cfg, cfg.problem.load_points, lam)
    return np.eye(len(cfg.problem.loads)) + B.T, d


def two_elimination_classify(cfg, lam):
    """The classifier on the full-grid load system, by two eliminations: rank, then solve."""
    m1 = len(cfg.problem.loads)
    A, d = full_grid_load_system(cfg, lam)
    rank = rank_and_det(A, RANK_TOL)
    if rank.rank == m1:
        c = gauss_jordan(A, d)  # full rank at RANK_TOL, so every pivot clears the smaller SINGULAR_TOL
        return SolvabilityReport(lam, rank.det, rank.rank, "unique", load_values=c)
    basis = nullspace(A.T, RANK_TOL)
    d_norm = float(np.linalg.norm(d))
    defect = float(max(abs(basis @ d) / d_norm)) if d_norm else 0.0
    family = defect <= RANK_TOL
    label = "family" if family else "no_solution"
    dim = m1 - rank.rank if family else 0
    return SolvabilityReport(lam, rank.det, rank.rank, label, dim, orthogonality_defect=defect)


def assert_same_bits(got, want):
    """Arrays byte for byte (shape and dtype too), everything else by repr, so -0.0 != 0.0."""
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    else:
        assert type(got) is type(want) and repr(got) == repr(want)


def assert_same_report(got, want):
    for field in dataclasses.fields(SolvabilityReport):
        assert_same_bits(getattr(got, field.name), getattr(want, field.name))


def _loads(*pairs):
    return tuple(LoadTerm(t, ScalarFunction.from_expression(c, 1)) for t, c in pairs)


ORACLE_PROBLEMS = {
    "model1": builtin_problem("model1"),
    "model2": builtin_problem("model2"),
    # a parsed file: the sqrt kernel takes the table path, and there are three loads
    "sqrt_ladder": parse_problem_config(
        (TESTS.parent / "bench" / "fixtures" / "sqrt_ladder.cfg").read_text()
    ),
    "unit": make_problem(**UNIT_ONE_LOAD),
    # loads at t0, on an interior node (at densities 64 and 512) and at T
    "ends_and_node": dataclasses.replace(
        builtin_problem("model1"), loads=_loads((0.0, "t+1"), (0.5, "1-t"), (1.0, "t^2/2"))
    ),
}


class TestLoadSystemOracle:
    """Per lam, the series runs on the nodes interpolation reads; the bits are the full grid's."""

    @pytest.fixture(scope="class")
    def cfgs(self):
        return {}

    def _cfg(self, cfgs, name, density):
        key = (name, density)
        if key not in cfgs:
            cfgs[key] = ResolventApprox(ORACLE_PROBLEMS[name], quad_density=density)
        return cfgs[key]

    @staticmethod
    def _checked(call, converged):
        """``call()``, which must warn once exactly when the series is truncated."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call()
        assert [w.category for w in caught] == ([] if converged else [TruncationWarning])
        return result

    @pytest.mark.parametrize("lam", [0.0, -3.5, 0.25, 3.5641, 10.0, 50.0])
    @pytest.mark.parametrize("density", [1, 64, 512])
    @pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
    def test_bytes_match_the_full_grid(self, cfgs, name, density, lam):
        cfg = self._cfg(cfgs, name, density)
        p = cfg.problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            converged = cfg.terms_needed(lam)[1]
            A_ref, d_ref = full_grid_load_system(cfg, lam)
            report_ref = two_elimination_classify(cfg, lam)
            points = [p.t0, p.T, float(cfg.z[len(cfg.z) // 2]), 0.37, *p.load_points]
            reduced_ref = [full_grid_reduced(cfg, float(t), lam) for t in points]
        if (name, lam) == ("unit", 50.0):
            assert not converged  # K == 1 needs more than MAX_TERMS terms
        A, d = self._checked(lambda: load_matrix(p, cfg, lam), converged)
        assert_same_bits(A, A_ref)
        assert_same_bits(d, d_ref)
        assert_same_report(self._checked(lambda: classify(p, cfg, lam), converged), report_ref)
        for t, (F_ref, b_ref) in zip(points, reduced_ref):
            F, b = self._checked(lambda: reduced_coeffs(p, t, cfg, lam), converged)
            assert_same_bits(F, float(F_ref))
            assert_same_bits(b, b_ref)

    @pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
    def test_seeded_lambdas(self, cfgs, name):
        # Random lam: lam**n and np.power(lam, n) differ in the last bit for many of them.
        cfg = self._cfg(cfgs, name, 64)
        p = cfg.problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for lam in np.random.default_rng(15).uniform(-10.0, 10.0, 100).tolist():
                A, d = full_grid_load_system(cfg, lam)
                assert_same_bits(load_matrix(p, cfg, lam)[0], A)
                assert_same_report(classify(p, cfg, lam), two_elimination_classify(cfg, lam))

    @pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
    def test_semi_analytic_matches_the_full_grid(self, cfgs, name):
        cfg = self._cfg(cfgs, name, 64)
        p = cfg.problem
        ts = np.linspace(p.t0, p.T, 97)
        loads = two_elimination_classify(cfg, p.lam).load_values
        # 97 points, a scalar, none, and a 2-D layout: the result has the shape of the samples
        for samples in [ts, 0.37, ts[:0], ts[1:].reshape(8, 12)]:
            values, B = full_grid_reduced(cfg, samples, p.lam)
            for b_j, c_j in zip(B, loads):
                values = values - b_j * c_j
            got = semi_analytic_solve(p, samples, cfg)
            assert got.shape == np.shape(samples)
            assert_same_bits(got, np.asarray(values))


def trio(lam, f):
    """ROADMAP item 4's singular trio: a0 = K = 1 and a1 = -e^{-lam/2} make A(lam) singular."""
    return make_problem(
        lam=lam,
        loads=(LoadTerm(0.5, ScalarFunction.constant(-math.exp(-lam / 2))),),
        rhs=ScalarFunction.constant(f),
    )


class TestOneElimination:
    """In the unique case classify eliminates ``[A | d]`` once; every other report keeps its fields."""

    @pytest.mark.parametrize("name", ["model1", "model2", "sqrt_ladder"])
    def test_unique_case_eliminates_once(self, monkeypatch, name):
        calls = []
        original = SOLVERS_MODULE._eliminate

        def spy(at, tol):
            calls.append(at.shape)
            return original(at, tol)

        monkeypatch.setattr(SOLVERS_MODULE, "_eliminate", spy)
        p = ORACLE_PROBLEMS[name]
        cfg = ResolventApprox(p, quad_density=64)
        m = len(p.loads)
        for lam in (-2.0, 0.0, p.lam, 3.5):
            calls.clear()
            assert classify(p, cfg, lam).classification == "unique"
            assert calls == [(1, m + 1, m)]  # a stack of one [A | d], stored transposed

    @pytest.mark.parametrize(
        "problem",
        [parse_problem_config((TESTS / "fixtures" / f"{name}.cfg").read_text())
         for name in ("family", "no_solution")]
        + [
            make_problem(
                lam=0.0,
                loads=_loads((0.3, "(t-0.5)/0.2"), (0.5, "(0.3-t)/0.2")),
                rhs=ScalarFunction.constant(0.0),
            )
        ]
        + [trio(lam, f) for lam in (0.25, 1.0) for f in (0.0, 1.0)],
        ids=["family", "no_solution", "family2"]
        + [f"trio-{lam}-{f}" for lam in (0.25, 1.0) for f in (0.0, 1.0)],
    )
    @pytest.mark.parametrize("density", [64, 512, 2048])
    def test_every_report_field_kept(self, problem, density):
        cfg = ResolventApprox(problem, quad_density=density)
        assert_same_report(classify(problem, cfg), two_elimination_classify(cfg, problem.lam))


def per_lambda_classify(cfg, lam):
    """The classifier one lam at a time, as it was before sweeps were stacked: the reference.

    The term count comes from a loop over n that grows the I_n as it
    goes; the series is summed on the nodes np.interp reads at the load
    points with ``sum(axis=0)``; np.interp itself interpolates; and
    ``[A | d]`` is eliminated once.  Returns the report and whether the
    series converged.
    """
    p = cfg.problem
    lam = float(lam)
    m1 = len(p.loads)
    converged = True
    if m1 == 0:
        A, d = np.eye(0), np.empty(0)
    else:
        count = 1
        if lam != 0.0:
            for count in range(1, MAX_TERMS + 1):
                while len(cfg._ints) < count:
                    cfg._grow_integrals()
                if abs(lam) ** count * cfg._ints_max[count - 1] < TERM_TOLERANCE:
                    break
            else:
                converged = False
        ts = p.load_points
        j = np.searchsorted(cfg.z, ts, side="right").clip(1, cfg.z.size - 1)
        nodes = np.unique(np.concatenate([[0], j - 1, j]))
        stack = np.array([ints[:, nodes] for ints in cfg._ints[:count]])
        powers = np.array([lam**n for n in range(1, count + 1)])
        series = (powers[:, None, None] * stack).sum(axis=0)
        tilde = RESOLVENT_MODULE._tilde(p, ts)
        F = tilde[0] + np.interp(ts, cfg.z[nodes], series[0])
        B = tilde[1:].copy()
        for k, row in enumerate(series[1:]):
            B[k] += np.interp(ts, cfg.z[nodes], row)
        A, d = np.eye(m1) + B.T, F
    report = rank_and_det(A, RANK_TOL, rhs=d)
    if report.rank == m1:
        return SolvabilityReport(lam, report.det, m1, "unique", load_values=report.solution), converged
    basis = nullspace(A.T, RANK_TOL)
    d_norm = float(np.linalg.norm(d))
    defect = float(max(abs(basis @ d) / d_norm)) if d_norm else 0.0
    family = defect <= RANK_TOL
    label = "family" if family else "no_solution"
    dim = m1 - report.rank if family else 0
    return SolvabilityReport(lam, report.det, report.rank, label, dim, orthogonality_defect=defect), converged


def _fixture_problem(name):
    return parse_problem_config((TESTS / "fixtures" / f"{name}.cfg").read_text())


SWEEP_PROBLEMS = {
    **{name: ORACLE_PROBLEMS[name] for name in ("model1", "model2", "sqrt_ladder", "unit")},
    "family": _fixture_problem("family"),
    "no_solution": _fixture_problem("no_solution"),
    "no_loads": make_problem(),
}

SWEEP_LAMBDAS = {
    # unsorted, with duplicates, both zeros, the ROADMAP's 3.5641 and a truncated 50
    "mixed": [3.5641, -2.0, 0.0, 10.0, -0.0, 3.5641, 50.0, -7.25, 0.25, -0.0, 1.0, 50.0, -10.0],
    "empty": [],
    "seeded": np.random.default_rng(17).uniform(-10.0, 10.0, 41).tolist(),
    "numpy": list(np.linspace(-10.0, 10.0, 9)),
}


def _truncation_messages(lams):
    return [
        f"resolvent series truncated at {MAX_TERMS} terms above tolerance "
        f"{TERM_TOLERANCE:g} (lam={float(lam):g})"
        for lam in lams
    ]


class TestSweepOracle:
    """One pass per sweep: every report field is the per-lam reference's."""

    @pytest.mark.parametrize("lams", list(SWEEP_LAMBDAS), ids=list(SWEEP_LAMBDAS))
    @pytest.mark.parametrize("name", sorted(SWEEP_PROBLEMS))
    def test_reports_match_per_lambda_classify(self, name, lams):
        p, lams = SWEEP_PROBLEMS[name], SWEEP_LAMBDAS[lams]
        ref_cfg = ResolventApprox(p, quad_density=64)
        expected = [per_lambda_classify(ref_cfg, lam) for lam in lams]
        cfg = ResolventApprox(p, quad_density=64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = solvability_sweep(p, lams, cfg)
        assert len(got) == len(expected)
        for report, (want, _) in zip(got, expected):
            assert_same_report(report, want)
        truncated = [lam for lam, (_, ok) in zip(lams, expected) if not ok and p.loads]
        assert [str(w.message) for w in caught] == _truncation_messages(truncated)
        assert all(w.category is TruncationWarning and w.filename == __file__ for w in caught)
        if p.loads:
            assert len(cfg._ints) == len(ref_cfg._ints)  # grown once, as far as the per-lam loop
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for lam, (want, _) in zip(lams, expected):
                assert_same_report(classify(p, cfg, lam), want)

    def test_benchmark_sweep_at_density_512(self):
        # The 41 stratified lambdas of a model1 sweep at the default density.
        p = builtin_problem("model1")
        rng = np.random.default_rng(3)
        lams = (-10.0 + 20.0 / 41 * (np.arange(41) + rng.random(41))).tolist()
        ref_cfg = ResolventApprox(p)
        expected = [per_lambda_classify(ref_cfg, lam)[0] for lam in lams]
        for got, want in zip(solvability_sweep(p, lams, ResolventApprox(p)), expected):
            assert_same_report(got, want)

    @pytest.mark.parametrize("name", ["model1", "sqrt_ladder", "family", "no_loads"])
    def test_one_rank_and_det_call_per_sweep(self, monkeypatch, name):
        calls = []
        original = RESOLVENT_MODULE.rank_and_det

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(RESOLVENT_MODULE, "rank_and_det", spy)
        p = SWEEP_PROBLEMS[name]
        cfg = ResolventApprox(p, quad_density=64)
        m = len(p.loads)
        lams = np.linspace(-10.0, 10.0, 41)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)  # K == 1 in family.cfg
            assert len(solvability_sweep(p, lams, cfg)) == 41
        assert calls == [(41, m, m)]
        calls.clear()
        classify(p, cfg, 0.5)
        assert calls == [(1, m, m)]

    def test_unique_sweep_eliminates_once(self, monkeypatch):
        calls = []
        original = SOLVERS_MODULE._eliminate

        def spy(at, tol):
            calls.append(at.shape)
            return original(at, tol)

        monkeypatch.setattr(SOLVERS_MODULE, "_eliminate", spy)
        p = builtin_problem("model2")
        reports = solvability_sweep(p, np.linspace(-10.0, 10.0, 41), ResolventApprox(p, quad_density=64))
        assert {r.classification for r in reports} == {"unique"}
        assert calls == [(41, 3, 2)]


_TRUNCATED = make_problem(lam=50.0, **UNIT_ONE_LOAD)

# Every public entry point that sums a series, called with a truncated lam (K == 1, lam = 50).
_TRUNCATING_CALLS = {
    "classify": lambda cfg: classify(_TRUNCATED, cfg),
    "solvability_sweep": lambda cfg: solvability_sweep(_TRUNCATED, [50.0], cfg),
    "load_matrix": lambda cfg: load_matrix(_TRUNCATED, cfg),
    "reduced_coeffs": lambda cfg: reduced_coeffs(_TRUNCATED, 0.3, cfg),
    "semi_analytic_solve": lambda cfg: semi_analytic_solve(_TRUNCATED, [0.2, 0.9], cfg),
    "terms_needed": lambda cfg: cfg.terms_needed(50.0),
    "reduced_tables": lambda cfg: cfg.reduced_tables(),
    "resolvent_table": lambda cfg: cfg.resolvent_table(),
    "resolvent": lambda cfg: resolvent(_TRUNCATED, 0.9, 0.1, cfg),
}


class TestTruncationWarningLocation:
    """The warning names the line that called lvie, once per truncated lam."""

    @pytest.mark.parametrize("name", list(_TRUNCATING_CALLS))
    def test_names_the_callers_line(self, name):
        call = _TRUNCATING_CALLS[name]
        cfg = ResolventApprox(_TRUNCATED, quad_density=16)
        for _ in range(2):  # growing the tables, then with them grown
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call(cfg)
            assert [w.category for w in caught] == [TruncationWarning]
            assert (caught[0].filename, caught[0].lineno) == (__file__, call.__code__.co_firstlineno)

    def test_one_warning_per_truncated_lambda_in_order(self):
        cfg = ResolventApprox(_TRUNCATED, quad_density=16)
        lams = [50.0, 0.25, -60.0, 50.0, 1.0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solvability_sweep(_TRUNCATED, lams, cfg)
        assert [str(w.message) for w in caught] == _truncation_messages([50.0, -60.0, 50.0])
        assert {(w.filename, w.lineno) for w in caught} == {(__file__, caught[0].lineno)}

    def test_no_warning_without_loads(self):
        p = make_problem(lam=50.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            classify(p)
            solvability_sweep(p, [50.0, 60.0])
        assert caught == []


def per_term_count(lam, maxima, grow):
    """(count, converged) by a loop over n that grows ``maxima`` as it goes: the reference rule."""
    if lam == 0.0:
        return 1, True
    for n in range(1, MAX_TERMS + 1):
        while len(maxima) < n:
            grow()
        if abs(lam) ** n * maxima[n - 1] < TERM_TOLERANCE:
            return n, True
    return MAX_TERMS, False


class TestFirstIndexCounts:
    """Term counts are the first index over the stored maxima, as the per-term loop found them."""

    @pytest.mark.parametrize("lam", [0.0, -0.0, 0.25, -1.0, 3.5641, -9.75, 50.0])
    def test_resolvent_table(self, lam):
        p = make_problem()
        cfg = ResolventApprox(p, quad_density=32)
        ref_cfg = ResolventApprox(p, quad_density=32)
        grow = lambda: ref_cfg.kernel_table(len(ref_cfg._tables) + 1)  # noqa: E731
        count, _ = per_term_count(lam, ref_cfg._tables_max, grow)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            table = cfg.resolvent_table(lam)
        ref_cfg.kernel_table(count)
        assert_same_bits(table, reference_series(lam, count, ref_cfg._tables))
        assert len(cfg._tables) == len(ref_cfg._tables)

    @pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
    def test_terms_needed(self, name):
        p = ORACLE_PROBLEMS[name]
        cfg = ResolventApprox(p, quad_density=64)
        ref_cfg = ResolventApprox(p, quad_density=64)
        lams = [0.0, 50.0, *np.random.default_rng(5).uniform(-12.0, 12.0, 60).tolist()]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for lam in lams:
                want = per_term_count(lam, ref_cfg._ints_max, ref_cfg._grow_integrals)
                assert cfg.terms_needed(lam) == want


class TestInterp:
    """``_bracket`` and ``_interp`` give np.interp's bits: between nodes, on nodes and at the last node."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_np_interp(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        z = np.linspace(rng.uniform(-1.0, 0.0), rng.uniform(0.5, 3.0), n)
        ts = np.concatenate([rng.uniform(z[0], z[-1], 30), z[rng.integers(0, n, 10)], [z[0], z[-1]]])
        rng.shuffle(ts)
        y = rng.normal(size=(2, 3, n)) * 10.0 ** rng.integers(-6, 7, size=(2, 3, 1))
        y[:, :, rng.integers(0, n, 5)] = -0.0
        cols, *bracket = RESOLVENT_MODULE._bracket(z, ts)
        got = RESOLVENT_MODULE._interp(y[..., cols], *bracket)
        for index in np.ndindex(y.shape[:2]):
            assert got[index].tobytes() == np.interp(ts, z, y[index]).tobytes()

    def test_last_node_takes_its_value(self):
        # slope * (z_hi - z_lo) + y_lo is not y_hi here; np.interp returns y_hi itself.
        z = np.linspace(0.0, 1.0, 4)
        y = np.array([0.0, 0.5, 0.1, 0.01])
        assert (y[-1] - y[-2]) / (z[-1] - z[-2]) * (z[-1] - z[-2]) + y[-2] != y[-1]
        cols, *bracket = RESOLVENT_MODULE._bracket(z, [1.0, z[1]])
        got = RESOLVENT_MODULE._interp(y[cols], *bracket)
        assert got.tobytes() == np.interp([1.0, z[1]], z, y).tobytes()
