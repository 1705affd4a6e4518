from fractions import Fraction

import numpy as np
import pytest

from lvie.assembly import assemble
from lvie.config import parse_problem_config
from lvie.grid import build_grid
from lvie.problems import LoadTerm, Problem, ScalarFunction, builtin_problem
from lvie.solvers import (
    SingularMatrixError,
    SolvabilityError,
    gauss_jordan,
    nullspace,
    rank_and_det,
    structured_solve,
)

SQRT_LADDER_CONFIG = """
t0 = 0.0
T = 1.0
lambda = 0.5
a0 = "1+t"
kernel = "sqrt(t-s)"
exact = "1+t^2"
f = "(1+t)*(1+t^2) + 1.0625*t + 1.25*(1-t) + 1.5625*t^2/2 - 0.5*(2/3*t*sqrt(t) + 16/105*t^3*sqrt(t))"
load = { point = 0.25, coeff = "t" }
load = { point = 0.5, coeff = "1-t" }
load = { point = 0.75, coeff = "t^2/2" }
"""


def random_structured_problem(rng, max_nodes=200):
    """A smooth random problem whose collocation system is well conditioned."""
    n_loads = rng.integers(1, 5)
    points = np.sort(rng.uniform(0.1, 0.9, size=n_loads))
    while np.any(np.diff(points) < 0.02):
        points = np.sort(rng.uniform(0.1, 0.9, size=n_loads))
    a = rng.uniform(1.5, 2.5)
    b = rng.uniform(-0.3, 0.3, size=3)
    k = rng.uniform(-1.0, 1.0, size=4)
    c = rng.uniform(-2.0, 2.0, size=3)
    lam = rng.uniform(-1.0, 1.0)
    loads = tuple(
        LoadTerm(
            float(x),
            ScalarFunction(
                lambda t, u=rng.uniform(-0.4, 0.4, size=2): u[0] + u[1] * t, 1
            ),
        )
        for x in points
    )
    problem = Problem(
        t0=0.0,
        T=1.0,
        lam=float(lam),
        loads=loads,
        a0=ScalarFunction(lambda t: a + b[0] * t + b[1] * t**2 + b[2] * np.sin(t), 1),
        kernel=ScalarFunction(
            lambda t, s: k[0] + k[1] * t + k[2] * s + k[3] * t * s, 2
        ),
        rhs=ScalarFunction(lambda t: c[0] + c[1] * np.cos(t) + c[2] * t, 1),
    )
    target = int(rng.integers(8, max_nodes - n_loads - 1))
    return problem, Fraction(1, target)


class TestGaussJordan:
    def test_identity(self):
        x = gauss_jordan(np.eye(3), np.array([3.0, -1.0, 4.0]))
        np.testing.assert_array_equal(x, [3.0, -1.0, 4.0])

    def test_forced_pivoting(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = gauss_jordan(a, np.array([2.0, 5.0]))
        np.testing.assert_allclose(x, [5.0, 2.0])

    def test_random_constructed_solution(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(6, 6))
        x_true = rng.normal(size=6)
        x = gauss_jordan(a, a @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        a = rng.normal(size=(n, n)) + n * np.eye(n)  # comfortably conditioned
        x_true = rng.normal(size=n)
        x = gauss_jordan(a, a @ x_true)
        assert np.abs(x - x_true).max() <= 1e-10

    def test_singular_matrix_reports_step(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as exc:
            gauss_jordan(a, np.array([1.0, 1.0]))
        assert exc.value.step == 1

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrixError):
            gauss_jordan(np.zeros((2, 2)), np.zeros(2))

    def test_empty_system(self):
        assert gauss_jordan(np.zeros((0, 0)), np.zeros(0)).shape == (0,)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            gauss_jordan(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            gauss_jordan(np.eye(2), np.zeros(3))

    def test_inputs_not_clobbered(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        a_copy, b_copy = a.copy(), b.copy()
        gauss_jordan(a, b)
        np.testing.assert_array_equal(a, a_copy)
        np.testing.assert_array_equal(b, b_copy)


class TestRankAndDet:
    def test_identity(self):
        rep = rank_and_det(np.eye(3))
        assert rep.rank == 3
        assert rep.det == pytest.approx(1.0)
        assert rep.det_sign == 1
        assert rep.det_log10 == pytest.approx(0.0)

    def test_proportional_rows(self):
        rep = rank_and_det(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert rep.rank == 1
        assert rep.det == 0.0
        assert rep.det_sign == 0

    def test_outer_product_rank(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(4, 2))
        v = rng.normal(size=(2, 4))
        rep = rank_and_det(u @ v)
        assert rep.rank == 2

    def test_det_sign_tracking(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])  # det -1
        rep = rank_and_det(a)
        assert rep.det == pytest.approx(-1.0)
        assert rep.det_sign == -1

    def test_det_value_random(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5))
        rep = rank_and_det(a)
        assert rep.det == pytest.approx(np.linalg.det(a), rel=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_invariant_under_permutation(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 4))
        u = rng.normal(size=(5, r))
        v = rng.normal(size=(r, 5))
        a = u @ v
        perm_rows = rng.permutation(5)
        perm_cols = rng.permutation(5)
        assert rank_and_det(a[perm_rows][:, perm_cols]).rank == rank_and_det(a).rank

    def test_zero_matrix(self):
        rep = rank_and_det(np.zeros((3, 3)))
        assert rep.rank == 0
        assert rep.det == 0.0

    def test_empty_matrix(self):
        rep = rank_and_det(np.zeros((0, 0)))
        assert rep.rank == 0
        assert rep.det == 1.0


def planted_rank_matrix(seed):
    """A seeded n x n matrix (n <= 8) of known rank r, 0 <= r <= n."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    r = int(rng.integers(0, n + 1))
    a = rng.normal(size=(n, r)) @ rng.normal(size=(r, n))
    return a, n, r


class TestNullspace:
    TOL = 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_planted_rank(self, seed):
        a, n, r = planted_rank_matrix(seed)
        assert rank_and_det(a, self.TOL).rank == r
        basis = nullspace(a, self.TOL)
        assert basis.shape == (n - r, n)
        assert np.allclose(np.linalg.norm(basis, axis=1), 1.0)
        if r < n:
            assert np.abs(a @ basis.T).max() <= 1e-9 * np.abs(a).max()
            assert np.linalg.matrix_rank(basis) == n - r

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_plus_nullity(self, seed):
        a, n, _ = planted_rank_matrix(seed)
        assert rank_and_det(a, self.TOL).rank + nullspace(a, self.TOL).shape[0] == n

    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(nullspace(np.zeros((3, 3)), self.TOL), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            nullspace(a, self.TOL)

    def test_input_not_clobbered(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        kept = a.copy()
        nullspace(a, self.TOL)
        assert np.array_equal(a, kept)


class TestStructuredSolve:
    def test_no_loads_is_forward_substitution(self):
        p = Problem(
            t0=0.0, T=1.0, lam=0.5, loads=(),
            a0=ScalarFunction.constant(2.0),
            kernel=ScalarFunction.constant(1.0, arity=2),
            rhs=ScalarFunction.from_expression("cos(t)", 1),
        )
        g = build_grid(p, 0.1)
        system = assemble(p, g, mode="dense")
        x = structured_solve(system)
        np.testing.assert_allclose(x, gauss_jordan(system.matrix, system.rhs), atol=1e-13)

    def test_model1_matches_dense(self):
        p = builtin_problem("model1")
        g = build_grid(p, Fraction(1, 32))
        system = assemble(p, g, mode="dense")
        x_dense = gauss_jordan(system.matrix, system.rhs)
        x_structured = structured_solve(system)
        assert np.abs(x_dense - x_structured).max() <= 1e-12

    @pytest.mark.parametrize("h", [Fraction(1, 32), Fraction(1, 256)], ids=["h=1/32", "h=1/256"])
    def test_sqrt_kernel_matches_gauss_jordan(self, h):
        # Three loads and a kernel undefined above the diagonal (s > t).
        p = parse_problem_config(SQRT_LADDER_CONFIG)
        system = assemble(p, build_grid(p, h), mode="dense")
        x_dense = gauss_jordan(system.matrix, system.rhs)
        assert np.abs(structured_solve(system) - x_dense).max() <= 1e-10

    def test_singular_load_subsystem(self):
        # One load whose consistency equation degenerates: with lam = 0,
        # a0 = 1 and a1 = -1 the load row reads c = c + f(t1), i.e. the
        # 1x1 system (1 + a1(t1)) c = ... vanishes.
        p = Problem(
            t0=0.0, T=1.0, lam=0.0,
            loads=(LoadTerm(0.5, ScalarFunction.constant(-1.0)),),
            a0=ScalarFunction.constant(1.0),
            kernel=ScalarFunction.constant(1.0, arity=2),
            rhs=ScalarFunction.constant(1.0),
        )
        g = build_grid(p, 0.25)
        system = assemble(p, g)
        with pytest.raises(SolvabilityError, match="consistency"):
            structured_solve(system)

    def test_zero_diagonal_detected(self):
        p = Problem(
            t0=0.0, T=1.0, lam=0.0, loads=(),
            a0=ScalarFunction.from_expression("t-0.5", 1),
            kernel=ScalarFunction.constant(1.0, arity=2),
            rhs=ScalarFunction.constant(1.0),
        )
        g = build_grid(p, 0.3)  # nodes k/4, so a0 vanishes at the node 0.5
        assert 0.5 in g.nodes
        with pytest.raises(SolvabilityError, match="diagonal"):
            structured_solve(assemble(p, g))

    @pytest.mark.parametrize("seed", range(12))
    def test_oracle_equivalence_random_systems(self, seed):
        rng = np.random.default_rng(1000 + seed)
        problem, h = random_structured_problem(rng)
        g = build_grid(problem, h)
        system = assemble(problem, g, mode="dense")
        x_dense = gauss_jordan(system.matrix, system.rhs)
        x_structured = structured_solve(system)
        assert np.abs(x_dense - x_structured).max() <= 1e-10
