"""The lag table: difference kernels on uniform meshes, streaming assembly."""

import re
from fractions import Fraction

import numpy as np
import pytest

from lvie.assembly import BLOCK_ROWS, PANEL_POINTS, AssemblyError, assemble, structured_solve
from lvie.expressions import evaluate, parse
from lvie.grid import build_grid
from lvie.problems import LoadTerm, Problem, ScalarFunction
from lvie.solvers import SolvabilityError, gauss_jordan

QUARTER_LOADS = (0.25, 0.5, 0.75)  # four equal segments: uniform at every step
MODEL_LOADS = (0.3, 0.5)  # unequal segments: not uniform at h = 1/64


def formula(text):
    """The parsed formula as a plain callable, for ScalarFunction wrappers."""
    expr = parse(text)
    return lambda t, s: evaluate(expr, t, s)


class CountingKernel:
    """Records the size of every call; asserts s <= t like the Volterra triangle."""

    def __init__(self, fn):
        self.fn = fn
        self.sizes = []

    def __call__(self, t, s):
        assert np.all(s <= t), "kernel evaluated above the diagonal"
        self.sizes.append(np.size(t))
        return self.fn(t, s)


def make_problem(kernel, load_points=(), lam=0.5, a0=None):
    return Problem(
        t0=0.0,
        T=1.0,
        lam=lam,
        loads=tuple(
            LoadTerm(x, ScalarFunction(lambda t, c=x: c - 0.5 * t, 1)) for x in load_points
        ),
        a0=a0 or ScalarFunction.from_expression("1+t", 1),
        kernel=kernel,
        rhs=ScalarFunction.from_expression("cos(t)", 1),
    )


class TestKernelPoints:
    def solve_counting(self, source, load_points):
        kernel = CountingKernel(formula("sqrt(t-s)"))
        p = make_problem(ScalarFunction(kernel, 2, source), load_points)
        g = build_grid(p, Fraction(1, 64))
        structured_solve(assemble(p, g))
        return sum(kernel.sizes), g.last_index

    def test_difference_kernel_on_uniform_mesh_takes_n_points(self):
        points, n = self.solve_counting("sqrt(t-s)", QUARTER_LOADS)
        assert points == n

    @pytest.mark.parametrize(
        "source, load_points",
        [("sqrt(t-s)", MODEL_LOADS), ("<callable>", QUARTER_LOADS)],
        ids=["non-uniform-mesh", "callable-source"],
    )
    def test_direct_path_takes_every_pair(self, source, load_points):
        points, n = self.solve_counting(source, load_points)
        assert points == n * (n + 1) // 2

    def test_dense_assembly_takes_every_pair(self):
        kernel = CountingKernel(formula("sqrt(t-s)"))
        p = make_problem(ScalarFunction(kernel, 2, "sqrt(t-s)"), QUARTER_LOADS)
        g = build_grid(p, Fraction(1, 64))
        assemble(p, g, mode="dense")
        n = g.last_index
        assert sum(kernel.sizes) == n * (n + 1) // 2
        assert max(kernel.sizes) <= PANEL_POINTS


class TestWindows:
    @pytest.mark.parametrize(
        "i0, i1, k0, k1",
        [(10, 14, 0, 8), (3, 9, 0, 12), (5, 9, 6, 8), (1, 18, 0, 17), (0, 19, 0, 18), (4, 4, 0, 3)],
        ids=["below", "straddling", "above-and-below", "all", "with-row-0", "no-rows"],
    )
    def test_panels_match_direct_path(self, i0, i1, k0, k1):
        lag = make_problem(ScalarFunction.from_expression("sqrt(t-s)", 2), QUARTER_LOADS)
        direct = make_problem(ScalarFunction(formula("sqrt(t-s)"), 2), QUARTER_LOADS)
        g = build_grid(lag, Fraction(1, 16))  # N = 20
        panel = assemble(lag, g).weights(i0, i1, k0, k1)
        assert panel.flags.writeable
        expected = assemble(direct, g).weights(i0, i1, k0, k1)
        np.testing.assert_allclose(panel, expected, rtol=1e-14, atol=0)


KERNELS = ["sqrt(t-s)", "exp(-(t-s))", "(t-s)^2"]


class TestOracle:
    # h = 1/300 gives N = 301 (no loads) or 304 (quarter loads): five
    # blocks of 64 rows, the last with two far panels.
    @pytest.mark.parametrize("load_points", [(), QUARTER_LOADS], ids=["no-loads", "quarter-loads"])
    @pytest.mark.parametrize("text", KERNELS)
    def test_matches_gauss_jordan_and_direct_path(self, text, load_points):
        counting = CountingKernel(formula(text))
        p = make_problem(ScalarFunction(counting, 2, text), load_points)
        g = build_grid(p, Fraction(1, 300))
        assert g.uniform_step() is not None
        x = structured_solve(assemble(p, g))
        assert sum(counting.sizes) == g.last_index  # the lag table served every panel

        dense = assemble(p, g, mode="dense")
        x_ref = gauss_jordan(dense.matrix, dense.rhs)
        assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

        direct = make_problem(ScalarFunction(formula(text), 2), load_points)
        x_direct = structured_solve(assemble(direct, g))
        assert np.abs(x - x_direct).max() <= 1e-12 * np.abs(x_direct).max()

    def test_residual_reads_the_lag_table(self):
        p = make_problem(ScalarFunction.from_expression("sqrt(t-s)", 2), QUARTER_LOADS)
        system = assemble(p, build_grid(p, Fraction(1, 300)))
        x = structured_solve(system)
        assert system.residual(x) <= 1e-13 * np.abs(system.rhs).max()


class TestErrorLocation:
    # sqrt(0.7-(t-s)) fails at every pair with t - s > 0.7: first at the
    # column-0 pair of some row, as for its "<callable>" twin.
    TEXT = "sqrt(0.7-(t-s))"
    H = Fraction(1, 256)  # N = 257: the failing row lies in the third block

    def grid(self):
        return build_grid(make_problem(ScalarFunction.from_expression(self.TEXT, 2)), self.H)

    def failing_row(self):
        tau = self.grid().nodes
        return int(np.argmax(tau[1:] - 0.5 * (tau[0] + tau[1]) > 0.7)) + 1

    def solve(self, source, lam=0.5, a0=None):
        p = make_problem(ScalarFunction(formula(self.TEXT), 2, source), lam=lam, a0=a0)
        return structured_solve(assemble(p, self.grid()))

    def test_same_row_and_abscissa_as_direct_path(self):
        row = self.failing_row()
        assert 128 < row < 193
        tau = self.grid().nodes
        expected = f"kernel failed at row {row}, t={tau[row]:.6g}:"
        messages = []
        for source in (self.TEXT, "<callable>"):
            with pytest.raises(AssemblyError, match=re.escape(expected)) as info:
                self.solve(source)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_non_finite_value_leaves_the_lag_path(self):
        # NaN where the formula raises: the lag table is refused, and the direct path names the row.
        def nan_twin(t, s):
            d = 0.7 - (t - s)
            return np.where(d < 0, np.nan, np.sqrt(np.abs(d)))

        row = self.failing_row()
        p = make_problem(ScalarFunction(nan_twin, 2, self.TEXT))
        system = assemble(p, self.grid())
        assert system.lag_weights() is None
        with pytest.raises(AssemblyError) as info:
            structured_solve(system)
        assert info.value.row == row
        tau = self.grid().nodes
        at = f"t={tau[row]:.6g}, s={0.5 * (tau[0] + tau[1]):.6g}"  # the row's first pair: column 0
        assert str(info.value) == f"kernel failed at row {row}, t={tau[row]:.6g}: non-finite value nan at {at}"

    @pytest.mark.parametrize("offset", [70, 5], ids=["earlier-block", "same-block"])
    def test_earlier_zero_pivot_wins(self, offset):
        # With lam = 0 the triangular pivots are the a0 values.
        root_row = self.failing_row() - offset
        root = self.grid().nodes[root_row]
        a0 = ScalarFunction(lambda t: t - root, 1)
        for source in (self.TEXT, "<callable>"):
            with pytest.raises(SolvabilityError, match=rf"diagonal entry .* at row {root_row}$"):
                self.solve(source, lam=0.0, a0=a0)


def lag_system(text, denominator, load_points=(), lam=0.5, a0=None):
    """A streaming system on the lag path (the kernel parsed from ``text``)."""
    p = make_problem(ScalarFunction.from_expression(text, 2), load_points, lam, a0)
    system = assemble(p, build_grid(p, Fraction(1, denominator)))
    assert system.lag_weights() is not None
    return system


class CountingIrfft:
    """Counts the inverse transforms of the far field."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class TestPushSchedule:
    # Every N leaves a ragged last block: N = 64 q + 1 or, for 301, 45 rows.
    @pytest.mark.parametrize("n_last", [65, 129, 301, 1025, 4097])
    def test_far_field_is_the_toeplitz_product(self, n_last):
        system = lag_system("sqrt(t-s)", n_last)
        calls = []
        integral = system.integral

        def recording(out, i0, x, k0, k1):
            calls.append((i0, out.shape[0], k0, k1))
            integral(out, i0, x, k0, k1)

        system.integral = recording
        structured_solve(system)

        # Replay the solve's far-field products on random nodal values x.
        rng = np.random.default_rng(n_last)
        x = rng.uniform(-1.0, 1.0, size=(n_last + 1, 2))
        y = x[:-1] + x[1:]
        far = np.zeros((n_last + 1, 2))
        for i0, rows, k0, k1 in calls:
            integral(far[i0 : i0 + rows], i0, x, k0, k1)

        # Row i of block r0..r0+63 needs every column k < r0 - 1, each once.
        w = system.lag_weights()
        expected = np.zeros_like(far)
        for r0 in range(1, n_last + 1, BLOCK_ROWS):
            r1 = min(r0 + BLOCK_ROWS, n_last + 1)
            lags = np.subtract.outer(np.arange(r0, r1) - 1, np.arange(r0 - 1))
            expected[r0:r1] = w[lags] @ y[: r0 - 1]
        scale = np.abs(expected).max(initial=1.0)
        assert np.abs(far - expected).max() <= 1e-13 * scale


class TestFFTOracle:
    # h = 1/1024: sixteen blocks; rows 513..1024 take one FFT product of side 512.
    @pytest.mark.parametrize("load_points", [(), QUARTER_LOADS], ids=["no-loads", "quarter-loads"])
    @pytest.mark.parametrize("text", KERNELS)
    def test_matches_gauss_jordan_and_direct_path(self, text, load_points, monkeypatch):
        system = lag_system(text, 1024, load_points)
        irfft = CountingIrfft(np.fft.irfft)
        monkeypatch.setattr(np.fft, "irfft", irfft)
        x = structured_solve(system)
        assert irfft.calls > 0

        g = system.grid
        dense = assemble(system.problem, g, mode="dense")
        x_ref = gauss_jordan(dense.matrix, dense.rhs)
        assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

        direct = make_problem(ScalarFunction(formula(text), 2), load_points)
        x_direct = structured_solve(assemble(direct, g))
        assert np.abs(x - x_direct).max() <= 1e-12 * np.abs(x_direct).max()

    @pytest.mark.parametrize("text", KERNELS)
    def test_residual_matches_direct_path(self, text):
        system = lag_system(text, 1024, QUARTER_LOADS)
        direct = assemble(make_problem(ScalarFunction(formula(text), 2), QUARTER_LOADS), system.grid)
        x = np.random.default_rng(7).uniform(-1.0, 1.0, system.size)
        scale = np.abs(system.rhs).max()
        assert abs(system.residual(x) - direct.residual(x)) <= 1e-13 * scale


class TestLagPivots:
    # lam = 0: every weight is zero and the pivots are the a0 values.
    @pytest.mark.parametrize("root_row", [0, 40, 200, 300])
    def test_zero_pivot_names_the_direct_path_row(self, root_row):
        g = build_grid(make_problem(ScalarFunction.constant(1.0, 2)), Fraction(1, 300))
        a0 = ScalarFunction(lambda t, root=g.nodes[root_row]: t - root, 1)
        messages = []
        for source in ("sqrt(t-s)", "<callable>"):
            p = make_problem(ScalarFunction(formula("sqrt(t-s)"), 2, source), lam=0.0, a0=a0)
            system = assemble(p, g)
            assert (system.lag_weights() is None) == (source == "<callable>")
            with pytest.raises(SolvabilityError, match=rf"diagonal entry .* at row {root_row}$") as info:
                structured_solve(system)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
