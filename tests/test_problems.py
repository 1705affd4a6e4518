import dataclasses
import importlib
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from lvie.assembly import AssemblyError, assemble
from lvie.expressions import evaluate, parse
from lvie.grid import build_grid
from lvie.problems import (
    LoadTerm,
    Problem,
    ScalarFunction,
    builtin_names,
    builtin_problem,
    validate_problem,
)
from lvie.resolvent import classify, iterated_kernel
from lvie.solvers import structured_solve

# Closed forms of the model right-hand sides at the interval endpoints:
# f1(0) = 1 + cos(3/10) - 2*cos(1/2),  f1(1) = 3*cos(1) - cos(1/2) - 0.75*sin(1).
F1_AT_0 = 0.20017136534486046
F1_AT_1 = 0.11222111710812421


def make_problem(t0=0.0, T=1.0, lam=0.0, loads=(), a0=None, kernel=None, rhs=None, exact=None):
    return Problem(
        t0=t0,
        T=T,
        lam=lam,
        loads=tuple(loads),
        a0=a0 or ScalarFunction.constant(1.0),
        kernel=kernel or ScalarFunction.constant(1.0, arity=2),
        rhs=rhs or ScalarFunction.constant(1.0),
        exact=exact,
    )


class TestScalarFunction:
    def test_expression_backed(self):
        fn = ScalarFunction.from_expression("t^2+1", 1)
        assert fn(2.0) == 5.0
        np.testing.assert_allclose(fn(np.array([0.0, 1.0])), [1.0, 2.0])

    def test_two_argument_broadcast(self):
        fn = ScalarFunction.from_expression("t-2*s^2", 2)
        out = fn(np.array([[1.0], [2.0]]), np.array([0.0, 0.5]))
        assert out.shape == (2, 2)
        assert out[1, 1] == 2.0 - 0.5

    def test_constant_expands_to_input_shape(self):
        fn = ScalarFunction.from_expression("2", 2)
        out = fn(np.zeros(4), np.zeros(4))
        assert out.shape == (4,)
        assert np.all(out == 2.0)

    def test_scalar_in_float_out(self):
        fn = ScalarFunction.constant(3.5)
        assert isinstance(fn(0.1), float)

    def test_one_arg_expression_rejects_s(self):
        with pytest.raises(ValueError, match="references the variable 's'"):
            ScalarFunction.from_expression("t+s", 1)

    def test_arity_enforced(self):
        fn = ScalarFunction.constant(1.0)
        with pytest.raises(TypeError):
            fn(0.0, 0.5)
        fn2 = ScalarFunction.constant(1.0, arity=2)
        with pytest.raises(TypeError):
            fn2(0.0)
        with pytest.raises(ValueError, match="arity must be 1 or 2"):
            ScalarFunction(np.cos, 3)

    def test_callable_backed(self):
        fn = ScalarFunction(np.cos, 1, "cos")
        assert fn(0.0) == 1.0

    @pytest.mark.parametrize(
        "fn, expected",
        [
            (ScalarFunction.from_expression("sqrt(t-s)", 2), True),
            (ScalarFunction(lambda t, s: np.sqrt(t - s), 2, "sqrt(t-s)"), True),
            (ScalarFunction.constant(1.0, arity=2), True),
            (ScalarFunction(lambda t, s: np.sqrt(t - s), 2), False),  # "<callable>"
            (ScalarFunction.from_expression("t-2*s^2", 2), False),
            (ScalarFunction.from_expression("1", 1), False),
        ],
        ids=["expression", "callable-with-source", "constant", "callable", "model-kernel", "arity-1"],
    )
    def test_difference_structure_read_from_source(self, fn, expected):
        assert fn.is_difference is expected

    @pytest.mark.parametrize(
        "fn, rank",
        [
            (ScalarFunction.from_expression("t-2*s^2", 2), 2),
            (ScalarFunction(lambda t, s: t - s + 1, 2, "1+t-s"), 3),
            (ScalarFunction.constant(1.0, arity=2), 1),
            (ScalarFunction(lambda t, s: t - s, 2), None),  # "<callable>"
            (ScalarFunction.from_expression("sqrt(t-s)", 2), None),
            (ScalarFunction.from_expression("t", 1), None),
        ],
        ids=["expression", "callable-with-source", "constant", "callable", "sqrt", "arity-1"],
    )
    def test_separable_split_read_from_source(self, fn, rank):
        pairs = fn.separable
        assert (None if pairs is None else len(pairs)) == rank
        if pairs is not None:
            t = np.linspace(0.0, 1.0, 7)
            s = t[::-1].copy()
            for u, v in pairs:
                assert (u.arity, v.arity) == (1, 1)
                assert np.shape(u(t)) == np.shape(v(s)) == t.shape
            split = sum(u(t) * v(s) for u, v in pairs)
            np.testing.assert_allclose(split, fn(t, s), rtol=1e-14, atol=1e-15)


class TestValidation:
    """``validate_problem`` samples the functions; the interval, lambda and
    load-point cases are refused when the problem is built."""

    def test_model1_passes(self):
        assert validate_problem(builtin_problem("model1")).passed

    def test_model2_passes(self):
        assert validate_problem(builtin_problem("model2")).passed

    def test_unordered_loads(self):
        loads = [LoadTerm(0.5, ScalarFunction.constant(1.0)), LoadTerm(0.3, ScalarFunction.constant(1.0))]
        with pytest.raises(ValueError) as info:
            make_problem(loads=loads)
        assert str(info.value) == "cannot place load points [0.5, 0.3]: load points not increasing"

    def test_vanishing_a0(self):
        # a0 = t is exactly zero at the first sample, t0 = 0.
        report = validate_problem(make_problem(a0=ScalarFunction.from_expression("t", 1)))
        assert not report
        assert report.violation == "a0 vanishes near t=0"

    def test_a0_sampled_once(self):
        calls = []

        def a0(t):
            calls.append(np.size(t))
            return 1.0 + t

        p = make_problem(a0=ScalarFunction(a0, 1, "1+t"))
        assert validate_problem(p)
        assert calls == [1000]

    def test_sign_change_between_samples(self):
        p = make_problem(a0=ScalarFunction.from_expression("t-0.5", 1))
        report = validate_problem(p)  # 0.5 is not a sample point
        assert not report
        assert report.violation == f"a0 vanishes near t={0.5 * (499 + 500) / 999:.6g}"

    def test_bad_interval(self):
        with pytest.raises(ValueError, match="^interval start must precede interval end$"):
            make_problem(t0=1.0, T=0.0)

    @pytest.mark.parametrize("field", [{"T": np.inf}, {"lam": np.nan}], ids=["T", "lambda"])
    def test_non_finite_interval_or_lambda(self, field):
        with pytest.raises(ValueError, match="^interval endpoints and lambda must be finite$"):
            make_problem(**field)

    def test_non_finite_a0_names_its_first_sample(self):
        p = make_problem(a0=ScalarFunction(lambda t: np.where(t < 0.75, 1.0, np.nan), 1))
        report = validate_problem(p)
        assert report.violation == f"a0 not evaluable: non-finite value nan at t={750 / 999:.6g}"

    def test_load_point_outside(self):
        with pytest.raises(ValueError) as info:
            make_problem(loads=[LoadTerm(1.5, ScalarFunction.constant(1.0))])
        assert str(info.value) == "cannot place load points [1.5]: load point 1.5 outside the open interval"

    def test_load_point_at_endpoint(self):
        with pytest.raises(ValueError) as info:
            make_problem(loads=[LoadTerm(1.0, ScalarFunction.constant(1.0))])
        assert str(info.value) == "cannot place load points [1.0]: load point 1 outside the open interval"

    def test_non_evaluable_rhs(self):
        p = make_problem(rhs=ScalarFunction.from_expression("1/t", 1))
        report = validate_problem(p)
        assert not report
        assert report.violation.startswith("f not evaluable")

    def test_kernel_sampled_on_triangle_only(self):
        # Defined only for s <= t; must still validate.
        p = make_problem(kernel=ScalarFunction.from_expression("sqrt(t-s)", 2))
        assert validate_problem(p).passed

    def test_kernel_sampled_by_row_blocks_in_row_major_order(self):
        calls = []

        def kernel(t, s):
            calls.append((t.copy(), s.copy()))
            return t - s

        assert validate_problem(make_problem(kernel=ScalarFunction(kernel, 2)))
        ts = np.linspace(0.0, 1.0, 1000)
        rows, cols = np.tril_indices(1000)
        assert len(calls) > 1
        assert max(t.size for t, _ in calls) < rows.size // 4
        np.testing.assert_array_equal(np.concatenate([t for t, _ in calls]), ts[rows])
        np.testing.assert_array_equal(np.concatenate([s for _, s in calls]), ts[cols])

    def test_late_non_finite_kernel_point_as_on_whole_triangle(self):
        ts = np.linspace(0.0, 1.0, 1000)

        def kernel(t, s):
            return np.where((t == ts[998]) & (s >= ts[517]), np.inf, t - s)

        report = validate_problem(make_problem(kernel=ScalarFunction(kernel, 2)))
        # Reference: one kernel call on the whole triangle.
        rows, cols = np.tril_indices(1000)
        first = np.flatnonzero(~np.isfinite(kernel(ts[rows], ts[cols])))[0]
        at = f"t={ts[rows[first]]:.6g}, s={ts[cols[first]]:.6g}"
        expected = f"kernel not evaluable: non-finite value inf at {at}"
        assert (report.passed, report.violation) == (False, expected)
        assert at == "t=0.998999, s=0.517518"

    def test_earliest_failing_block_wins(self):
        # A NaN on the diagonal fails the first block of rows and a raise at
        # t = 1 the last one; whichever comes first in row order is reported.
        def kernel(raise_at, nan_from):
            def fn(t, s):
                if np.any(t == raise_at):
                    raise ValueError("boom")
                return np.where((t == s) & (t >= nan_from), np.nan, 1.0)

            return ScalarFunction(fn, 2)

        nan_first = validate_problem(make_problem(kernel=kernel(1.0, 0.0)))
        assert nan_first.violation == "kernel not evaluable: non-finite value nan at t=0, s=0"
        raise_first = validate_problem(make_problem(kernel=kernel(0.0, 0.5)))
        assert raise_first.violation == "kernel not evaluable: boom"

    def test_a_domain_error_names_its_first_sample(self):
        p = dataclasses.replace(builtin_problem("model1"), loads=(
            LoadTerm(0.3, ScalarFunction.from_expression("ln(t-0.7)", 1)), builtin_problem("model1").loads[1],
        ))
        assert validate_problem(p).violation == "a1 not evaluable: ln of a non-positive value at t=0"
        kernel = ScalarFunction.from_expression("sqrt(0.9 - t) * (t - 2*s^2)", 2)
        at = f"t={np.linspace(0, 1, 1000)[900]:.6g}, s=0"
        report = validate_problem(dataclasses.replace(builtin_problem("model1"), kernel=kernel))
        assert report.violation == f"kernel not evaluable: sqrt of a negative value at {at}"

    def test_functions_are_checked_in_assemblys_order(self):
        # a0, f, then a_1 ... a_m: with f and a1 both failing, both layers name f.
        bad = ScalarFunction.from_expression("ln(t-0.7)", 1)
        model1 = builtin_problem("model1")
        p = dataclasses.replace(model1, rhs=bad, loads=(LoadTerm(0.3, bad), model1.loads[1]))
        assert validate_problem(p).violation == "f not evaluable: ln of a non-positive value at t=0"
        with pytest.raises(AssemblyError, match=r"^f failed at row 0, t=0: ln of a non-positive value at t=0$"):
            assemble(p, build_grid(p, Fraction(1, 8)))

    def test_never_raises_for_bad_callables(self):
        def explode(t):
            raise ValueError("boom")

        p = make_problem(rhs=ScalarFunction(explode, 1))
        report = validate_problem(p)
        assert not report.passed


# model1 made ill-formed: the fields changed, its load points (None: kept), and the refusal
_ILL_FORMED_MODEL1 = {
    "reversed": ({"t0": 1.0, "T": 0.0}, None, "interval start must precede interval end"),
    "load-outside": (
        {}, (0.3, 1.5), "cannot place load points [0.3, 1.5]: load point 1.5 outside the open interval"
    ),
    "unordered": ({}, (0.5, 0.3), "cannot place load points [0.5, 0.3]: load points not increasing"),
    "repeated": ({}, (0.3, 0.3), "cannot place load points [0.3, 0.3]: load points not increasing"),
    "T-nan": ({"T": float("nan")}, None, "interval endpoints and lambda must be finite"),
}


@pytest.mark.parametrize("name", sorted(_ILL_FORMED_MODEL1))
def test_ill_formed_problem_refused_when_built(monkeypatch, name):
    # The resolvent checks nothing of its own: these never reach it.
    def refuse(*args, **kwargs):
        raise AssertionError("a ResolventApprox was built for an ill-formed problem")

    monkeypatch.setattr(importlib.import_module("lvie.resolvent"), "ResolventApprox", refuse)
    changes, points, message = _ILL_FORMED_MODEL1[name]
    base = builtin_problem("model1")
    if points is not None:
        changes = {"loads": tuple(LoadTerm(x, term.coeff) for x, term in zip(points, base.loads))}
    with pytest.raises(ValueError) as info:
        classify(dataclasses.replace(base, **changes))
    assert str(info.value) == message


def test_check_inside_names_the_first_point_outside():
    p = builtin_problem("model1")
    p.check_inside(t=0.0, s=np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match=r"^s=1\.5 outside \[0, 1\]$"):
        p.check_inside(t=1.0, s=np.array([[0.2, 1.5], [np.nan, -1.0]]))
    with pytest.raises(ValueError, match=r"^t=nan outside \[0, 1\]$"):
        p.check_inside(t=np.nan, s=2.0)


def _quiet(fn):
    """``fn`` run as a compiled formula runs: IEEE values, no numpy warnings."""

    def call(*args):
        with np.errstate(all="ignore"):
            return fn(*args)

    return call


# field of model1: (formula, arity, its plain-callable twin), each non-finite somewhere
_NON_FINITE_TWINS = {
    "rhs": ("exp(1000*t)", 1, lambda t: np.exp(1000 * t)),
    "kernel": ("exp(1000*t*s)", 2, lambda t, s: np.exp(1000 * t * s)),
    "a0": ("(1+t)*(exp(1000)-exp(1000))", 1, lambda t: (1 + t) * np.nan),
}


def _outcome(call):
    """What ``call()`` gives: the exception's type and message, or its value (an array's bytes)."""
    try:
        value = call()
    except Exception as err:  # noqa: BLE001 -- the type is what is compared
        return type(err).__name__, str(err)
    return "value", value if isinstance(value, str) else np.asarray(value).tobytes()


@pytest.mark.parametrize("field", sorted(_NON_FINITE_TWINS))
def test_formula_and_callable_twins_are_refused_alike(field):
    # One rule refuses a non-finite value, in ScalarFunction: a formula and
    # a plain callable with the same values fail alike everywhere they are read.
    text, arity, fn = _NON_FINITE_TWINS[field]
    base = builtin_problem("model1")
    twins = [
        ScalarFunction.from_expression(text, arity),
        ScalarFunction(_quiet(fn), arity),
    ]
    t, s = np.linspace(0.0, 1.0, 33)[:, None], np.linspace(0.0, 1.0, 33)[None, :]
    args = (t, s) if arity == 2 else (t[:, 0],)
    outcomes = []
    for twin in twins:
        p = dataclasses.replace(base, **{field: twin})
        g = build_grid(p, Fraction(1, 16))
        calls = {
            "validate_problem": lambda: validate_problem(p).violation,
            "dense": lambda: structured_solve(assemble(p, g, "dense")),
            "streaming": lambda: structured_solve(assemble(p, g)),
            "classify": lambda: classify(p).load_values,
            "iterated_kernel": lambda: iterated_kernel(p, 1, 0.95, 0.9),
            "call": lambda: twin(*args),
        }
        outcomes.append({name: _outcome(call) for name, call in calls.items()})
    formula, callable_ = outcomes
    assert formula == callable_
    assert _outcome(lambda: evaluate(parse(text), *args)) == formula["call"]
    assert formula["call"][0] == "EvalError"
    assert "not evaluable: non-finite value" in formula["validate_problem"][1]
    assert formula["dense"][0] == "AssemblyError"


class TestBuiltins:
    def test_model1_parameters(self):
        p = builtin_problem("model1")
        assert p.lam == 0.25
        assert tuple(p.load_points) == (0.3, 0.5)
        assert p.a0(0.0) == 1.0
        assert p.a0(1.0) == 2.0
        assert p.kernel(1.0, 0.5) == 1.0 - 2 * 0.25
        assert p.exact(0.0) == 1.0

    def test_model2_parameters(self):
        p = builtin_problem("model2")
        assert p.lam == pytest.approx(1 / 6)
        assert tuple(p.load_points) == (0.3, 0.5)
        assert p.a0(1.0) == 1.0
        assert p.exact(0.0) == 1.0
        assert p.exact(1.0) == pytest.approx(np.e)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="no such builtin"):
            builtin_problem("model3")

    def test_builtin_names(self):
        names = dict(builtin_names())
        assert set(names) == {"model1", "model2"}

    def test_model1_rhs_endpoints(self):
        p = builtin_problem("model1")
        assert p.rhs(0.0) == pytest.approx(F1_AT_0, abs=1e-12)
        assert p.rhs(1.0) == pytest.approx(F1_AT_1, abs=1e-12)

    def test_rhs_cancellation_with_unit_trig(self):
        # Replacing the three trigonometric factors of the leading terms
        # by 1 must cancel at t=0: 1 + 1 - 2 = 0.
        fn = ScalarFunction.from_expression("(t^2+1)*1 + (1-t^3)*1 + (t-2)*1", 1)
        assert fn(0.0) == 0.0

    def test_referential_transparency(self):
        p1, p2 = builtin_problem("model1"), builtin_problem("model1")
        assert (p1.t0, p1.T, p1.lam, p1.name) == (p2.t0, p2.T, p2.lam, p2.name)
        assert tuple(p1.load_points) == tuple(p2.load_points)
        ts = np.linspace(0, 1, 17)
        for fn1, fn2 in [(p1.a0, p2.a0), (p1.rhs, p2.rhs), (p1.exact, p2.exact)]:
            np.testing.assert_array_equal(fn1(ts), fn2(ts))
        np.testing.assert_array_equal(
            p1.kernel(ts, ts / 2), p2.kernel(ts, ts / 2)
        )

    @pytest.mark.parametrize("name", ["model1", "model2"])
    def test_exact_solution_satisfies_equation(self, name):
        # Substituting the claimed exact solution with a high-order
        # reference quadrature must leave a tiny residual everywhere.
        p = builtin_problem(name)
        worst = 0.0
        for t in np.linspace(p.t0, p.T, 100):
            integral = quad(
                lambda s, t=t: p.kernel(t, s) * p.exact(s), p.t0, t, epsabs=1e-12
            )[0]
            lhs = p.a0(t) * p.exact(t) + sum(
                term.coeff(t) * p.exact(term.point) for term in p.loads
            )
            worst = max(worst, abs(lhs - p.lam * integral - p.rhs(t)))
        assert worst <= 1e-6
