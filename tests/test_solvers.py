import ast
import dataclasses
import itertools
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lvie
from lvie import solvers, study
from lvie.assembly import BLOCK_ROWS, PANEL_POINTS, AssemblyError, assemble, structured_solve
from lvie.config import parse_problem_config
from lvie.expressions import EvalError
from lvie.grid import Grid, build_grid
from lvie.problems import LoadTerm, Problem, ScalarFunction, builtin_problem
from lvie.solvers import (
    SINGULAR_TOL,
    SingularMatrixError,
    SolvabilityError,
    _eliminate,
    _transposed,
    augmented,
    gauss_jordan,
    nullspace,
    rank_and_det,
    solve_augmented,
)
from lvie.study import solve_collocation

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


    def test_memory_is_one_transposed_copy(self):
        # [A | b] transposed, n(n + 1) doubles, and no |A| copy for the pivot scale.
        p = builtin_problem("model2")
        system = assemble(p, build_grid(p, Fraction(1, 512)), mode="dense")
        n = system.size
        tracemalloc.start()
        try:
            gauss_jordan(system.matrix, system.rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * (n + 1) + 0.75e6


class TestRankAndDet:
    def test_identity(self):
        rep = rank_and_det(np.eye(3))
        assert rep.rank == 3
        assert rep.det == pytest.approx(1.0)

    def test_proportional_rows(self):
        rep = rank_and_det(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert rep.rank == 1
        assert rep.det == 0.0

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

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            rank_and_det(np.eye(2), tol=0)


def reference_eliminate(aug, tol):
    """Row-major full-pivot elimination of ``aug`` in place, every column at every step.

    The oracle for ``_eliminate``, which must match it bit for bit.
    """
    n = aug.shape[0]
    scale = np.abs(aug[:, :n]).max(initial=0.0)
    cols = np.arange(n)
    pivots = []
    swaps = 0
    for k in range(n):
        sub = np.abs(aug[k:, k:n])
        pi, pj = np.unravel_index(np.argmax(sub), sub.shape)
        pi += k
        pj += k
        piv = aug[pi, pj]
        if piv == 0.0 or abs(piv) < tol * scale:
            break
        if pi != k:
            aug[[k, pi]] = aug[[pi, k]]
            swaps += 1
        if pj != k:
            aug[:, [k, pj]] = aug[:, [pj, k]]
            cols[[k, pj]] = cols[[pj, k]]
            swaps += 1
        pivots.append(float(piv))
        aug[k] /= piv
        fac = aug[:, k].copy()
        fac[k] = 0.0
        aug -= np.outer(fac, aug[k])
    return pivots, cols, swaps


def assert_stack_eliminates_like_reference(augs, tol):
    """One elimination of the stack of ``augs``; each member byte-equal to its own reference run.

    Pivots, rank, column order, swaps and every entry a caller reads.
    """
    augs = [np.array(aug, dtype=float) for aug in augs]
    at = np.array([aug.T for aug in augs])
    pivots, cols, swaps = _eliminate(at, tol)
    assert len(pivots) == cols.shape[0] == len(swaps) == len(augs)
    for member, aug in enumerate(augs):
        n = aug.shape[0]
        ref_pivots, ref_cols, ref_swaps = reference_eliminate(aug, tol)
        r = len(ref_pivots)
        assert np.array(pivots[member]).tobytes() == np.array(ref_pivots).tobytes()
        assert cols[member].tobytes() == ref_cols.tobytes()
        assert swaps[member] == ref_swaps
        for block in (np.s_[:r, r:], np.s_[r:, r:n], np.s_[:, n:]):
            assert at[member].T[block].tobytes() == aug[block].tobytes()


def assert_eliminates_like_reference(aug, tol):
    """A stack of one: the single-matrix callers' path."""
    assert_stack_eliminates_like_reference([aug], tol)


class TestEliminateOracle:
    """The transposed elimination against the row-major reference loop."""

    @pytest.mark.parametrize("denominator", [8, 16, 32, 64, 128, 256])
    @pytest.mark.parametrize("name", ["model1", "model2"])
    def test_builtin_dense_systems(self, name, denominator):
        p = builtin_problem(name)
        system = assemble(p, build_grid(p, Fraction(1, denominator)), mode="dense")
        assert_eliminates_like_reference(np.column_stack([system.matrix, system.rhs]), SINGULAR_TOL)
        assert_eliminates_like_reference(system.matrix, 1e-10)

    def test_sqrt_ladder_dense_system(self):
        p = parse_problem_config(SQRT_LADDER_CONFIG)
        system = assemble(p, build_grid(p, Fraction(1, 64)), mode="dense")
        assert_eliminates_like_reference(np.column_stack([system.matrix, system.rhs]), SINGULAR_TOL)

    @pytest.mark.parametrize("block", range(6))
    def test_small_integer_matrices_with_ties(self, block):
        # 300 seeded matrices in all; small integer entries give pivot ties and rank deficiency.
        for seed in range(50 * block, 50 * (block + 1)):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 13))
            a = rng.integers(-3, 4, size=(n, n + 1)).astype(float)
            assert_eliminates_like_reference(a, SINGULAR_TOL)
            assert_eliminates_like_reference(a[:, :n], 1e-10)

    @pytest.mark.parametrize(
        "aug",
        [np.zeros((3, 4)), np.zeros((3, 3)), np.array([[-2.0, 3.0]]), np.array([[0.5]]),
         np.zeros((0, 1)), np.zeros((0, 0))],
        ids=["zero-aug", "zero", "1x1-aug", "1x1", "empty-aug", "empty"],
    )
    def test_degenerate_cases(self, aug):
        assert_eliminates_like_reference(aug, SINGULAR_TOL)


def small_integer_stack(seed):
    """A seeded stack of small-integer ``[A | R]`` members, rank-deficient and zero ones mixed in.

    Pivot ties are common; a member may repeat a row of A, repeat a
    column of A, have a zero row, or be all zero.
    """
    rng = np.random.default_rng(seed)
    n, r, count = int(rng.integers(1, 7)), int(rng.integers(0, 3)), int(rng.integers(1, 9))
    members = []
    for _ in range(count):
        aug = rng.integers(-3, 4, size=(n, n + r)).astype(float)
        kind = int(rng.integers(0, 5))
        if kind == 1 and n > 1:
            aug[-1, :n] = aug[0, :n]
        elif kind == 2 and n > 1:
            aug[:, n - 1] = aug[:, 0]
        elif kind == 3:
            aug[int(rng.integers(0, n)), :n] = 0.0
        elif kind == 4:
            aug[:] = 0.0
        members.append(aug)
    return members


class TestEliminateStack:
    """A stack is eliminated as one; every member has the bits of its own reference run."""

    @pytest.mark.parametrize("block", range(4))
    def test_small_integer_stacks_with_ties(self, block):
        # 200 seeded stacks; full-rank, rank-deficient and zero members share a stack.
        ranks = set()
        for seed in range(50 * block, 50 * (block + 1)):
            members = small_integer_stack(seed)
            assert_stack_eliminates_like_reference(members, SINGULAR_TOL)
            assert_stack_eliminates_like_reference(members, 0.5)  # a coarse tolerance stops more of them
            n = members[0].shape[0]
            ranks.update(rank_and_det(aug[:, :n]).rank < n for aug in members)
        assert ranks == {True, False}

    def test_every_stop_order(self):
        # Members stopping at steps 0, 1, 2 and never, in every order within one stack.
        full = np.array([[2.0, 1.0, 0.0, 1.0], [1.0, 3.0, 1.0, 2.0], [0.0, 1.0, 4.0, 3.0]])
        rank2 = full.copy()
        rank2[2, :3] = rank2[0, :3] + rank2[1, :3]
        rank1 = np.outer([1.0, 2.0, -1.0], [1.0, -1.0, 2.0, 0.5])
        zero = np.zeros((3, 4))
        for order in itertools.permutations([full, rank2, rank1, zero]):
            assert_stack_eliminates_like_reference(list(order) + [full], SINGULAR_TOL)

    @pytest.mark.parametrize("shape", [(0, 3, 2), (0, 2, 2), (0, 1, 0), (4, 1, 0), (4, 0, 0)],
                             ids=["no-members-aug", "no-members", "no-members-n0-aug", "n0-aug", "n0"])
    def test_empty_stacks(self, shape):
        at = np.zeros(shape)
        pivots, cols, swaps = _eliminate(at, SINGULAR_TOL)
        assert pivots == [[]] * shape[0] and swaps == [0] * shape[0]
        assert cols.shape == (shape[0], shape[2])

    def test_rank_and_det_stack_is_each_members_call(self):
        rng = np.random.default_rng(17)
        a = rng.integers(-3, 4, size=(30, 3, 3)).astype(float)
        a[::4] = 0.0
        a[1::4, 2] = a[1::4, 0]
        rhs = rng.normal(size=(30, 3))
        for b in (None, rhs):
            stacked = rank_and_det(a, 1e-10, rhs=b)
            assert len(stacked) == len(a)
            for i, got in enumerate(stacked):
                want = rank_and_det(a[i], 1e-10, rhs=None if b is None else b[i])
                for field in dataclasses.fields(got):
                    x, y = getattr(got, field.name), getattr(want, field.name)
                    assert (x.tobytes() == y.tobytes()) if isinstance(y, np.ndarray) else repr(x) == repr(y)
        assert rank_and_det(np.zeros((0, 2, 2)), rhs=np.zeros((0, 2))) == []
        assert [r.det for r in rank_and_det(np.zeros((2, 0, 0)))] == [1.0, 1.0]

    def test_shapes_validated(self):
        with pytest.raises(ValueError, match="stack of square matrices"):
            rank_and_det(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="does not match"):
            rank_and_det(np.zeros((2, 3, 3)), rhs=np.zeros(3))
        with pytest.raises(ValueError, match="does not match"):
            rank_and_det(np.eye(3), rhs=np.zeros((1, 3)))
        with pytest.raises(ValueError, match="square matrix"):
            gauss_jordan(np.zeros((1, 2, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="square matrix"):
            nullspace(np.zeros((1, 2, 2)), 1e-10)
        with pytest.raises(ValueError, match="finite"):
            rank_and_det(np.array([np.eye(2), np.full((2, 2), np.nan)]))


def triangular_with_loads(rng, n, r):
    """A small-integer ``[A | R]``, A lower triangular but for one or two dense load columns.

    Entries in -2..2 tie often; a row or a column of A may be zero.
    """
    aug = rng.integers(-2, 3, size=(n, n + r)).astype(float)
    loads = rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False)
    dense = aug[:, loads]
    aug[:, :n] = np.tril(aug[:, :n])
    aug[:, loads] = dense
    kind = int(rng.integers(0, 3))
    if kind == 1:
        aug[int(rng.integers(0, n)), :n] = 0.0
    elif kind == 2:
        aug[:, int(rng.integers(0, n))] = 0.0
    return aug


class TestEliminateTriangular:
    """Collocation-shaped matrices: steps whose pivot column is zero below the pivot row.

    Such a step leaves the unpivoted rows as they are and keeps their row
    maxima; a stack does so only when every member going on allows it.
    """

    @pytest.mark.parametrize("block", range(4))
    def test_single_matrices(self, block):
        # 400 seeded matrices, with and without right-hand sides.
        for seed in range(100 * block, 100 * (block + 1)):
            rng = np.random.default_rng(10_000 + seed)
            n = int(rng.integers(1, 13))
            aug = triangular_with_loads(rng, n, int(rng.integers(0, 3)))
            assert_eliminates_like_reference(aug, SINGULAR_TOL)
            assert_eliminates_like_reference(aug, 0.5)
            assert_eliminates_like_reference(aug[:, :n], 1e-10)

    @pytest.mark.parametrize("block", range(4))
    def test_stacks_mixing_triangular_and_dense_members(self, block):
        # 200 seeded stacks; a dense member makes the others take the full update.
        for seed in range(50 * block, 50 * (block + 1)):
            rng = np.random.default_rng(20_000 + seed)
            n, r, count = int(rng.integers(1, 9)), int(rng.integers(0, 3)), int(rng.integers(1, 7))
            members = [
                triangular_with_loads(rng, n, r) if rng.random() < 0.7
                else rng.integers(-2, 3, size=(n, n + r)).astype(float)
                for _ in range(count)
            ]
            assert_stack_eliminates_like_reference(members, SINGULAR_TOL)
            assert_stack_eliminates_like_reference(members, 0.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_negative_zeros_eliminate_as_positive_zeros(self, seed):
        rng = np.random.default_rng(30_000 + seed)
        augs = [triangular_with_loads(rng, 8, 1) for _ in range(50)]
        signed = [np.where((aug == 0.0) & (rng.random(aug.shape) < 0.5), -0.0, aug) for aug in augs]
        assert all(np.signbit(aug).any() for aug in signed)
        at = _transposed(np.array([aug[:, :8] for aug in signed]), np.array([aug[:, 8] for aug in signed]), True)
        assert at.tobytes() == np.array([aug.T for aug in augs]).tobytes()  # zeros made +0.0
        assert_stack_eliminates_like_reference(augs, SINGULAR_TOL)
        for aug, neg in zip(augs, signed):
            if rank_and_det(aug[:, :8], SINGULAR_TOL).rank == 8:
                want = gauss_jordan(aug[:, :8], aug[:, 8])
                assert gauss_jordan(neg[:, :8], neg[:, 8]).tobytes() == want.tobytes()


class TestSolveAugmented:
    """The in-place solve of an ``augmented`` array keeps gauss_jordan's bits, pivots and refusals."""

    def test_layout(self):
        at = augmented(3)
        assert at.shape == (4, 3) and not at.any()
        at[:3].T[:] = [[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 4.0]]  # A
        at[3] = [2.0, 3.0, 8.0]  # b
        np.testing.assert_array_equal(solve_augmented(at), [1.0, 2.0, 2.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_bits_and_singular_messages_match_gauss_jordan(self, seed):
        rng = np.random.default_rng(31_000 + seed)
        for _ in range(50):
            aug = triangular_with_loads(rng, 8, 1)
            aug = np.where((aug == 0.0) & (rng.random(aug.shape) < 0.5), -0.0, aug)
            at = np.ascontiguousarray(aug.T)
            try:
                want = gauss_jordan(aug[:, :8], aug[:, 8])
            except SingularMatrixError as err:
                with pytest.raises(SingularMatrixError) as info:
                    solve_augmented(at)
                assert (str(info.value), info.value.step) == (str(err), err.step)
            else:
                assert solve_augmented(at).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(3, 3), (3,), (2, 4, 3)])
    def test_shape_validated(self, shape):
        with pytest.raises(ValueError, match=r"augmented array of shape \(n \+ 1, n\)"):
            solve_augmented(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_refused(self, bad):
        at = augmented(3)
        at[:3].T[:] = np.eye(3)
        at[1, 2] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            gauss_jordan(at[:3].T, at[3])
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            solve_augmented(at)

    def test_assembled_entry_that_overflows_is_refused_on_the_dense_path(self):
        # Every weight is finite (|J| < 1.6e307), but a0 + |J| passes the largest double.
        p = dataclasses.replace(builtin_problem("model1"), lam=1e308, a0=ScalarFunction.constant(1.7e308),
                                kernel=ScalarFunction.constant(-20.0, arity=2))
        system = assemble(p, build_grid(p, Fraction(1, 64)), mode="dense")
        assert np.isfinite(system.weights(0, system.size, 0, system.size - 1)).all()
        assert not np.isfinite(system.matrix).all()
        with pytest.raises(ValueError) as copy:
            gauss_jordan(system.matrix, system.rhs)
        with pytest.raises(ValueError) as in_place:
            solve_collocation(p, Fraction(1, 64), "dense")
        assert str(in_place.value) == str(copy.value) == "matrix entries must be finite"

    @pytest.mark.parametrize("name", ["model1", "model2"])
    def test_dense_solve_is_gauss_jordan_on_a_copy(self, name):
        p = builtin_problem(name)
        for k in (3, 6):
            system = assemble(p, build_grid(p, Fraction(1, 2**k)), mode="dense")
            want = gauss_jordan(system.matrix, system.rhs)
            assert solve_collocation(p, Fraction(1, 2**k), "dense").values.tobytes() == want.tobytes()


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

    def test_sqrt_ladder_residual_at_h_1_2048(self):
        p = parse_problem_config(SQRT_LADDER_CONFIG)
        system = assemble(p, build_grid(p, Fraction(1, 2048)))
        x = structured_solve(system)
        assert system.residual(x) <= 1e-12 * np.abs(system.rhs).max()

    @pytest.mark.parametrize("name", ["sqrt_ladder", "model1"])
    def test_memory_beyond_state_is_bounded(self, name):
        # Past its O(m N) arrays B, X and Y the solve holds only panels, on
        # a lag system (sqrt_ladder) and on the panel path (model1) alike.
        p = parse_problem_config(SQRT_LADDER_CONFIG) if name == "sqrt_ladder" else builtin_problem(name)
        system = assemble(p, build_grid(p, Fraction(1, 8192)))
        state = 3 * system.size * (1 + len(system.load_columns)) * 8
        tracemalloc.start()
        try:
            structured_solve(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - state <= 1_000_000


def uniform_grid(n_nodes, load_indices=()):
    """``n_nodes`` equispaced nodes on [0, 1] with loads at the given node indices."""
    cuts = [0, *load_indices, n_nodes - 1]
    return Grid(
        nodes=np.linspace(0.0, 1.0, n_nodes),
        segment_counts=tuple(b - a for a, b in zip(cuts, cuts[1:])),
        load_indices=tuple(load_indices),
    )


class CountingSqrtKernel:
    """sqrt(t-s)·(1+s/2), recording every (t, s) pair it is asked for."""

    def __init__(self):
        self.calls = []

    def __call__(self, t, s):
        assert np.all(s <= t), "kernel evaluated above the diagonal"
        self.calls.append((t.ravel().copy(), s.ravel().copy()))
        return np.sqrt(t - s) * (1.0 + 0.5 * s)


R = BLOCK_ROWS
BLOCK_CASES = [
    (n, m)
    # 5R+2: two far panels; 9R+2: the square pushed after block 7 is 512
    # columns wide, two column panels.
    for n in (2, R, R + 1, R + 2, 2 * R + 1, 5 * R + 2, 9 * R + 2)
    for m in (0, 1, 3)
    if m <= n - 2
]


class TestBlockedSubstitution:
    @pytest.mark.parametrize("n_nodes, n_loads", BLOCK_CASES, ids=[f"n={n}-m={m}" for n, m in BLOCK_CASES])
    def test_matches_gauss_jordan_and_evaluates_each_pair_once(self, n_nodes, n_loads):
        rng = np.random.default_rng(n_nodes * 10 + n_loads)
        idx = sorted(rng.choice(np.arange(1, n_nodes - 1), size=n_loads, replace=False)) if n_loads else []
        g = uniform_grid(n_nodes, [int(i) for i in idx])
        u = rng.uniform(-0.4, 0.4, size=(n_loads, 2))
        c = rng.uniform(-2.0, 2.0, size=3)
        kernel = CountingSqrtKernel()
        p = Problem(
            t0=0.0,
            T=1.0,
            lam=float(rng.uniform(-1.0, 1.0)),
            loads=tuple(
                LoadTerm(float(g.nodes[v]), ScalarFunction(lambda t, u=u[j]: u[0] + u[1] * t, 1))
                for j, v in enumerate(idx)
            ),
            a0=ScalarFunction(lambda t: 2.0 + 0.3 * np.sin(t), 1),
            kernel=ScalarFunction(kernel, 2),
            rhs=ScalarFunction(lambda t: c[0] + c[1] * np.cos(t) + c[2] * t, 1),
        )
        dense = assemble(p, g, mode="dense")
        x_ref = gauss_jordan(dense.matrix, dense.rhs)
        kernel.calls.clear()
        x = structured_solve(assemble(p, g))
        assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

        sizes = [t.size for t, _ in kernel.calls]
        assert max(sizes, default=0) <= PANEL_POINTS
        n_last = n_nodes - 1
        assert sum(sizes) == n_last * (n_last + 1) // 2
        counts = np.zeros((n_nodes, n_last), dtype=int)
        mids = 0.5 * (g.nodes[:-1] + g.nodes[1:])
        for t, s in kernel.calls:
            np.add.at(counts, (np.searchsorted(g.nodes, t), np.searchsorted(mids, s)), 1)
        # Row i needs J_{k+1}^i for every k < i, exactly once.
        np.testing.assert_array_equal(counts, np.tril(np.ones_like(counts), -1))


def failing_kernel(bad):
    """t + s, raising EvalError wherever ``bad(t, s)`` holds."""

    def kernel(t, s):
        if np.any(bad(t, s)):
            raise EvalError("kernel undefined here")
        return t + s

    return ScalarFunction(kernel, 2)


class TestBlockedErrorLocation:
    # lam = 0, so the triangular pivots are the a0 values.  Rows 100 and 110
    # lie inside the block 65..128; rows 321..384 form a block with two far
    # panels (columns 0..255 and 256..319).
    GRID = uniform_grid(400)
    NODES = GRID.nodes
    MIDS = 0.5 * (NODES[:-1] + NODES[1:])

    # Rows 513..699 of WIDE take their whole far field from the square pushed
    # after block 7: columns 0..511, in two column panels of 256.
    WIDE = uniform_grid(700)
    WIDE_MIDS = 0.5 * (WIDE.nodes[:-1] + WIDE.nodes[1:])

    def system(self, a0=None, kernel=None, grid=GRID):
        p = Problem(
            t0=0.0, T=1.0, lam=0.0, loads=(),
            a0=a0 or ScalarFunction(lambda t: 2.0 + t, 1),
            kernel=kernel or ScalarFunction(lambda t, s: t + s, 2),
            rhs=ScalarFunction.constant(1.0),
        )
        return assemble(p, grid)

    def solve(self, a0=None, kernel=None, grid=GRID):
        return structured_solve(self.system(a0, kernel, grid))

    def zero_pivots_at(self, rows):
        """An a0 that vanishes exactly at the given nodes."""
        roots = [self.NODES[i] for i in rows]
        return ScalarFunction(lambda t: np.prod([t - r for r in roots], axis=0), 1)

    def kernel_error(self, row, grid=GRID):
        expected = f"kernel failed at row {row}, t={grid.nodes[row]:.6g}:"
        return pytest.raises(AssemblyError, match=re.escape(expected))

    def pivot_error(self, row):
        return pytest.raises(SolvabilityError, match=rf"diagonal entry .* at row {row}$")

    def test_zero_pivot_mid_block(self):
        with self.pivot_error(100):
            self.solve(a0=self.zero_pivots_at([100, 110]))

    def test_kernel_failure_in_near_triangle(self):
        # Only pairs with s past mids[98] fail: in row 100's own block.
        with self.kernel_error(100):
            self.solve(kernel=failing_kernel(lambda t, s: s > self.MIDS[98]))

    def test_kernel_failure_in_far_panel(self):
        bad = lambda t, s: (t >= self.NODES[100]) & (s < self.MIDS[10])
        with self.kernel_error(100):
            self.solve(kernel=failing_kernel(bad))

    def test_earliest_row_wins_across_far_panels(self):
        # Row 340 fails in the first far panel, row 330 only in the second.
        bad = lambda t, s: ((t >= self.NODES[340]) & (s < self.MIDS[5])) | (
            (t >= self.NODES[330]) & (s > self.MIDS[300]) & (s < self.MIDS[310])
        )
        with self.kernel_error(330):
            self.solve(kernel=failing_kernel(bad))

    def test_zero_pivot_before_kernel_failure(self):
        with self.pivot_error(90):
            self.solve(
                a0=self.zero_pivots_at([90]),
                kernel=failing_kernel(lambda t, s: t >= self.NODES[100]),
            )

    def test_kernel_failure_before_zero_pivot(self):
        with self.kernel_error(90):
            self.solve(
                a0=self.zero_pivots_at([100]),
                kernel=failing_kernel(lambda t, s: t >= self.NODES[90]),
            )

    def test_kernel_failure_and_zero_pivot_in_one_row(self):
        with self.kernel_error(95):
            self.solve(
                a0=self.zero_pivots_at([95]),
                kernel=failing_kernel(lambda t, s: t >= self.NODES[95]),
            )

    def wide_bad(self, early, late):
        """Row ``early`` fails only in the second column panel of the square, ``late`` in the first."""
        nodes, mids = self.WIDE.nodes, self.WIDE_MIDS
        return lambda t, s: ((t >= nodes[late]) & (s < mids[5])) | (
            (t >= nodes[early]) & (s > mids[300]) & (s < mids[310])
        )

    def test_earliest_row_wins_across_column_panels_of_a_square(self):
        with self.kernel_error(530, self.WIDE):
            self.solve(kernel=failing_kernel(self.wide_bad(530, 540)), grid=self.WIDE)

    def test_near_triangle_failure_wins_over_a_square_ahead(self):
        # The square pushed after block 3 (rows 257..512, columns 0..255)
        # records row 500; row 300 fails later, in block 4's near triangle.
        nodes, mids = self.WIDE.nodes, self.WIDE_MIDS
        bad = lambda t, s: ((t >= nodes[500]) & (s < mids[5])) | ((t >= nodes[300]) & (s > mids[280]))
        with self.kernel_error(300, self.WIDE):
            self.solve(kernel=failing_kernel(bad), grid=self.WIDE)

    def test_residual_names_the_earliest_row(self):
        system = self.system(kernel=failing_kernel(self.wide_bad(530, 540)), grid=self.WIDE)
        with self.kernel_error(530, self.WIDE) as info:
            system.residual(np.ones(system.size))
        assert info.value.row == 530


class TestOverflowingSolution:
    # x = exp(1000 t) (a0 = 1, K = 1, f = cos t, lam = 1000): on h = 1/1024
    # the forward substitution first leaves the floats at row 641, the
    # first row of the block 641..704.  A refusal at the block's last row
    # comes after it: solved without that row, rows 641..703 still overflow.
    STEP = Fraction(1, 1024)
    ROW = 641
    LAST = ROW + BLOCK_ROWS - 1

    def problem(self, kernel=None, a0=None, loads=(), lam=1000.0, rhs="cos(t)"):
        return Problem(
            t0=0.0, T=1.0, lam=lam, loads=loads,
            a0=a0 or ScalarFunction.constant(1.0),
            kernel=kernel or ScalarFunction.from_expression("1", 2),
            rhs=ScalarFunction.from_expression(rhs, 1),
        )

    def overflow_error(self, grid, row):
        expected = f"solution overflows at row {row}, t={grid.nodes[row]:.6g}"
        return pytest.raises(SolvabilityError, match=f"^{re.escape(expected)}$")

    @pytest.mark.parametrize("path", ["lag", "direct"])
    def test_names_the_first_row_that_overflows(self, path):
        kernel = ScalarFunction(lambda t, s: np.ones(np.broadcast(t, s).shape), 2) if path == "direct" else None
        p = self.problem(kernel)
        system = assemble(p, build_grid(p, self.STEP))
        assert (system.lag_weights() is not None) == (path == "lag")
        with self.overflow_error(system.grid, self.ROW):
            structured_solve(system)

    @pytest.mark.parametrize("lam", [1000.0, 1.0])
    def test_comes_before_a_later_zero_pivot_in_its_block(self, lam):
        system = assemble(self.problem(lam=lam), build_grid(self.problem(), self.STEP))
        g, diagonal_weight = system.grid, system.row_weights(self.LAST)[-1]
        # a0 = J_i^i at one node: the pivot a0 - J_i^i of that row is exactly 0.
        a0 = ScalarFunction(lambda t: np.where(t == g.nodes[self.LAST], diagonal_weight, 1.0), 1)
        error = self.overflow_error(g, self.ROW) if lam == 1000.0 else pytest.raises(
            SolvabilityError, match=rf"diagonal entry .* at row {self.LAST}$")
        with error:
            structured_solve(assemble(self.problem(a0=a0, lam=lam), g))

    @pytest.mark.parametrize("big", [1e308, 1.0])
    def test_comes_before_a_later_kernel_failure_in_its_block(self, big):
        # a0 = f = 0.01, lam = 1, and K = big on rows 641.. and columns
        # 512..639 only: the square pushed after block 9 into rows 641..768.
        # Its row panel 641..704 fails at row 704; pushed again without that
        # row, it still makes x_641 = 1.25e309 when big = 1e308.
        g = build_grid(self.problem(), self.STEP)
        nodes = g.nodes

        def kernel(t, s):
            if np.any(t >= nodes[self.LAST]):
                raise EvalError("kernel undefined here")
            return np.where((t >= nodes[self.ROW]) & (s >= nodes[512]) & (s < nodes[640]), big, 0.0)

        p = self.problem(ScalarFunction(kernel, 2), a0=ScalarFunction.constant(0.01), lam=1.0, rhs="0.01")
        error = self.overflow_error(g, self.ROW) if big > 1.0 else pytest.raises(
            AssemblyError, match=rf"^kernel failed at row {self.LAST},")
        with error:
            structured_solve(assemble(p, g))

    def test_load_combination_that_overflows_is_refused_by_row(self):
        # lam = 0: X[:, 0] = 1e300 and X[:, 1] = -a1 are finite, the load
        # value is c = 1e300, and x = 1e300 - a1(t) c overflows once a1 passes 1.8e8.
        a1 = ScalarFunction(lambda t: 1e10 * np.maximum(t - 0.5, 0.0), 1)
        p = self.problem(loads=(LoadTerm(0.5, a1),), lam=0.0, rhs="1e300")
        system = assemble(p, build_grid(p, Fraction(1, 64)))
        row = int(np.argmax(1e10 * (system.grid.nodes - 0.5) > 1.8e8))
        with self.overflow_error(system.grid, row):
            structured_solve(system)


def test_solvers_is_a_leaf_of_dense_linear_algebra():
    # solvers imports no lvie module; the block solve lives beside the collocation system it reads,
    # and the study calls it through its own module global (the name a tracer wraps).
    tree = ast.parse(Path(solvers.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.partition(".")[0] != "lvie", ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert all(alias.name.partition(".")[0] != "lvie" for alias in node.names), ast.unparse(node)
    assert lvie.structured_solve is lvie.assembly.structured_solve is study.structured_solve
    assert not hasattr(solvers, "structured_solve")
