import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lvie.config import load_problem_config
from lvie.expressions import (
    MAX_DEPTH,
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    compiled,
    evaluate,
    finite,
    is_difference,
    located,
    parse,
    separable,
)
from lvie.problems import ScalarFunction, builtin_names, builtin_problem


def test_parse_sum_of_power():
    assert parse("t^2+1") == BinOp("+", BinOp("^", Var("t"), Num(2.0)), Num(1.0))


def test_parse_precedence_kernel_formula():
    expected = BinOp("-", Var("t"), BinOp("*", Num(2.0), BinOp("^", Var("s"), Num(2.0))))
    assert parse("t-2*s^2") == expected


def test_parse_unbalanced_parenthesis_position():
    with pytest.raises(ParseError) as exc:
        parse("cos(t")
    assert exc.value.position == 5
    assert "position 5" in str(exc.value)


@pytest.mark.parametrize("text, message, position", [("t t", "'name'", 2), ("t)", "')'", 1)])
def test_parse_unexpected_token_after_expression(text, message, position):
    with pytest.raises(ParseError, match=re.escape(f"unexpected {message} at position {position}")):
        parse(text)


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'x'"):
        parse("x+1")


def test_parse_unknown_function():
    with pytest.raises(ParseError, match="unknown function 'tan'"):
        parse("tan(t)")


def test_parse_whitespace_insensitive():
    assert parse(" t ^ 2 + 1 ") == parse("t^2+1")


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0.0) == 512.0


def test_unary_minus_binds_looser_than_power():
    assert evaluate(parse("-2^2"), 0.0) == -4.0
    assert evaluate(parse("-t^2"), 3.0) == -9.0


def test_signed_exponent():
    assert evaluate(parse("2^-2"), 0.0) == pytest.approx(0.25)


def test_eval_polynomial():
    assert evaluate(parse("t^2+1"), 2.0) == 5.0


def test_eval_two_variables():
    assert evaluate(parse("t-2*s^2"), 1.0, 0.5) == pytest.approx(0.5)


def test_eval_division_by_zero():
    with pytest.raises(EvalError, match="division by zero"):
        evaluate(parse("1/t"), 0.0)


def test_eval_missing_s():
    with pytest.raises(EvalError, match="'s'"):
        evaluate(parse("t+s"), 1.0)


def test_eval_ln_domain():
    with pytest.raises(EvalError):
        evaluate(parse("ln(t)"), 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("ln(t)"), -1.0)
    assert evaluate(parse("ln(exp(t))"), 2.5) == pytest.approx(2.5)


def test_eval_sqrt_domain():
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(t)"), -1.0)
    assert evaluate(parse("sqrt(t)"), 9.0) == 3.0


def test_fractional_power_of_negative_base():
    with pytest.raises(EvalError, match="non-positive base"):
        evaluate(parse("t^0.5"), -2.0)


def test_integer_power_of_negative_base():
    assert evaluate(parse("t^3"), -2.0) == -8.0


def test_eval_on_arrays_broadcasts():
    ts = np.linspace(0.0, 1.0, 7)
    out = evaluate(parse("t^2+1"), ts)
    np.testing.assert_allclose(out, ts**2 + 1)


def test_eval_array_domain_violation():
    with pytest.raises(EvalError):
        evaluate(parse("1/t"), np.array([1.0, 0.0, 2.0]))


# The coefficient strings shipped with the built-in problems must agree
# with direct hand-coded evaluations to machine precision.
_BUILTIN_FORMULAS = [
    ("t^2+1", lambda t: t**2 + 1),
    ("1-t^3", lambda t: 1 - t**3),
    ("t-2", lambda t: t - 2),
    ("cos(t)", np.cos),
    ("(2+t)/3", lambda t: (2 + t) / 3),
    ("t^3-1/2", lambda t: t**3 - 0.5),
    ("2*t-t^2", lambda t: 2 * t - t**2),
    ("exp(t)", np.exp),
    (
        "(t^2+1)*cos(t) + (1-t^3)*cos(3/10) + (t-2)*cos(1/2)"
        " + (t^2/2)*sin(t) - (t/4)*sin(t) + t*cos(t) - sin(t)",
        lambda t: (t**2 + 1) * np.cos(t)
        + (1 - t**3) * np.cos(0.3)
        + (t - 2) * np.cos(0.5)
        + (t**2 / 2) * np.sin(t)
        - (t / 4) * np.sin(t)
        + t * np.cos(t)
        - np.sin(t),
    ),
    (
        "((2+t)/3)*exp(t) + (t^3-1/2)*exp(3/10) + (2*t-t^2)*exp(1/2)"
        " + (exp(t)*t^2)/3 - (5*t*exp(t))/6 + (2*exp(t))/3 + t/6 - 2/3",
        lambda t: (2 + t) / 3 * np.exp(t)
        + (t**3 - 0.5) * np.exp(0.3)
        + (2 * t - t**2) * np.exp(0.5)
        + np.exp(t) * t**2 / 3
        - 5 * t * np.exp(t) / 6
        + 2 * np.exp(t) / 3
        + t / 6
        - 2 / 3,
    ),
]


@pytest.mark.parametrize("text,direct", _BUILTIN_FORMULAS, ids=[f[0][:24] for f in _BUILTIN_FORMULAS])
def test_round_trip_against_hand_coded(text, direct):
    expr = parse(text)
    for t in np.linspace(0.0, 1.0, 37):
        assert evaluate(expr, t) == pytest.approx(direct(t), rel=1e-15, abs=1e-15)


def test_kernel_round_trip():
    expr = parse("t-2*s^2")
    for t in np.linspace(0.0, 1.0, 11):
        for s in np.linspace(0.0, t, 7):
            assert evaluate(expr, t, s) == t - 2 * s**2


@given(st.text(max_size=40))
def test_parser_is_total(text):
    # Any input either parses or raises a positioned ParseError.
    try:
        parse(text)
    except ParseError as err:
        assert isinstance(err.position, int)
        assert 0 <= err.position <= len(text)


@given(
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100),
)
def test_arithmetic_matches_python(a, b):
    expr = parse("t*s + t - s")
    assert evaluate(expr, a, b) == pytest.approx(a * b + a - b, rel=1e-12, abs=1e-12)


def test_deterministic():
    expr = parse("cos(t)*exp(s)")
    first = evaluate(expr, 0.7, 0.2)
    assert all(evaluate(expr, 0.7, 0.2) == first for _ in range(5))


def test_overflow_is_an_error():
    with pytest.raises(EvalError, match="non-finite"):
        evaluate(parse("exp(exp(t))"), 100.0)


class TestFinite:
    """``finite``: the one rule that refuses a non-finite value, naming its point."""

    def test_finite_values_pass_through(self):
        values = np.array([1.0, -2.0])
        assert finite(values, _GRID[:2]) is values
        assert finite(0.5, 0.25) == 0.5

    def test_names_the_first_entry_in_row_major_order(self):
        t, s = _GRID[:, None], _GRID[None, :]
        values = np.where((t > 0.5) & (s > 0.25), np.nan, t * s)
        values[30, 1] = np.inf
        with pytest.raises(EvalError, match=r"^non-finite value nan at t=0\.53125, s=0\.28125$"):
            finite(values, t, s)

    def test_a_constant_value_takes_the_first_point(self):
        with pytest.raises(EvalError, match=r"^non-finite value -inf at t=0$"):
            finite(-np.inf, _GRID)

    def test_evaluate_applies_it_and_compiled_does_not(self):
        expr = parse("ln(t+1) * exp(1000*t)")
        with np.errstate(all="ignore"):
            direct = np.log(_GRID + 1) * np.exp(1000 * _GRID)
        assert compiled(expr)(_GRID).tobytes() == direct.tobytes()
        with pytest.raises(EvalError, match=r"^non-finite value inf at t=0\.71875$"):
            evaluate(expr, _GRID)


class TestLocated:
    """``located``: a domain error names its first failing point, row-major, in every caller."""

    def test_scalar_function_names_the_point_of_a_domain_error(self):
        with pytest.raises(EvalError, match=r"^ln of a non-positive value at t=0$") as info:
            ScalarFunction.from_expression("ln(t)", 1)(0.0)
        assert info.value.point == (0.0,)

    def test_first_failing_point_in_row_major_order(self):
        t, s = _GRID[:, None], _GRID[None, :]
        i, j = np.argwhere(np.broadcast_to(0.5 - t * s < 0, (33, 33)))[0]
        with pytest.raises(EvalError) as info:
            ScalarFunction.from_expression("sqrt(0.5-t*s)", 2)(t, s)
        assert info.value.point == (_GRID[i], _GRID[j])
        assert str(info.value) == f"sqrt of a negative value at t={_GRID[i]:.6g}, s={_GRID[j]:.6g}"

    def test_evaluate_names_the_point(self):
        with pytest.raises(EvalError, match=r"^ln of a non-positive value at t=0\.71875$"):
            evaluate(parse("ln(0.7-t)"), _GRID)

    def test_the_points_own_error_is_raised(self):
        # The whole call fails on ln(0) at t=0, but t=1 comes first: 0 * inf is nan there.
        with pytest.raises(EvalError, match=r"^non-finite value nan at t=1$") as info:
            evaluate(parse("ln(t) * exp(1000*t)"), np.array([1.0, 0.0]))
        assert info.value.point == (1.0,)

    def test_parts_are_evaluated_as_the_whole_call(self):
        # The whole call raises at t=1; bisection meets the nan at t=0.625
        # first, because every 1-D part goes through finite as the whole call.
        shapes = []

        def fn(t):
            shapes.append(t.shape)
            if np.any(t == 1.0):
                raise EvalError("undefined at 1")
            return np.where(t > 0.6, np.nan, 1.0)

        with pytest.raises(EvalError, match=r"^non-finite value nan at t=0\.625$"):
            ScalarFunction(fn, 1)(_GRID)
        assert shapes[0] == (33,) and all(len(shape) == 1 for shape in shapes)

    def test_bisection_is_logarithmic(self):
        calls = []
        function = ScalarFunction.from_expression("sqrt(0.6-t)", 1)

        def counted(t):
            calls.append(np.size(t))
            if np.any(t > 0.6):
                raise EvalError("sqrt of a negative value")
            return np.sqrt(0.6 - t)

        grid = np.linspace(0.0, 1.0, 1025)
        with pytest.raises(EvalError) as info:
            ScalarFunction(counted, 1)(grid)
        with pytest.raises(EvalError) as reference:
            function(grid)
        assert str(info.value) == str(reference.value) == f"sqrt of a negative value at t={grid[615]:.6g}"
        assert len(calls) <= 2 + math.ceil(math.log2(grid.size))

    def test_missing_s_names_no_point(self):
        with pytest.raises(EvalError, match=r"^expression references 's' but no value was supplied$") as info:
            evaluate(parse("t+s"), _GRID)
        assert info.value.point == ()

    def test_an_error_no_point_reproduces_is_raised_as_is(self):
        def fn(t):
            if np.size(t) > 1:
                raise EvalError("batch only")
            return np.zeros(np.shape(t))

        with pytest.raises(EvalError, match="^batch only$") as info:
            ScalarFunction(fn, 1)(_GRID)
        assert info.value.point is None

    def test_an_empty_call_has_no_point(self):
        with pytest.raises(EvalError, match="^ln of a non-positive value$"):
            ScalarFunction.from_expression("ln(0)", 1)(np.array([]))


def test_number_scientific_notation():
    assert evaluate(parse("1e-3 + 2.5E2"), 0.0) == pytest.approx(250.001)


def test_ast_nodes_report_variables():
    assert parse("t-2*s^2").variables() == {"t", "s"}
    assert parse("cos(1/2)").variables() == set()
    assert Neg(Call("cos", Var("t"))).variables() == {"t"}


_T = np.array([0.25, 0.5, 1.5, 2.0])
_S = np.array([2.0, -0.5, 3.0, 0.75])

# Every function name and operator of the grammar against the direct numpy
# expression it stands for.
_OPERATOR_CASES = [
    ("cos(t)", lambda t, s: np.cos(t)),
    ("sin(t)", lambda t, s: np.sin(t)),
    ("exp(t)", lambda t, s: np.exp(t)),
    ("ln(t)", lambda t, s: np.log(t)),
    ("sqrt(t)", lambda t, s: np.sqrt(t)),
    ("abs(s)", lambda t, s: np.abs(s)),
    ("t+s", lambda t, s: t + s),
    ("t-s", lambda t, s: t - s),
    ("t*s", lambda t, s: t * s),
    ("t/s", lambda t, s: t / s),
    ("s^3", lambda t, s: np.power(s, 3.0)),
    ("t^0.5", lambda t, s: np.exp(0.5 * np.log(t))),
    ("-s", lambda t, s: -s),
]


@pytest.mark.parametrize("text,direct", _OPERATOR_CASES, ids=[c[0] for c in _OPERATOR_CASES])
def test_every_operator_matches_numpy(text, direct):
    np.testing.assert_array_equal(evaluate(parse(text), _T, _S), direct(_T, _S))


# Every EvalError message, each raised by the case that leaves the domain.
_DOMAIN_CASES = [
    ("t/(s-s)", "division by zero"),
    ("ln(s)", "ln of a non-positive value"),
    ("sqrt(s)", "sqrt of a negative value"),
    ("(t-t)^-1", "zero raised to a negative power"),
    ("s^0.5", "fractional power of a non-positive base"),
    ("exp(exp(t*100))", "non-finite value inf at t=0.25, s=2"),
]


@pytest.mark.parametrize("text,message", _DOMAIN_CASES, ids=[c[0] for c in _DOMAIN_CASES])
def test_every_domain_error_message(text, message):
    with pytest.raises(EvalError, match=re.escape(message)):
        evaluate(parse(text), _T, _S)


# Which formulas depend on t - s only: every t and s occurs as the node t - s.
_DIFFERENCE_CASES = [
    ("sqrt(t-s)", True),
    ("exp(-(t-s))", True),
    ("(t-s)^2", True),
    ("sqrt(0.7-(t-s))", True),
    ("2.5", True),
    ("t-2*s^2", False),
    ("1+t-s", False),  # parses as (1+t)-s
    ("sqrt(0.7-t)+s", False),
    ("s-t", False),
    ("t", False),
]


@pytest.mark.parametrize("text,expected", _DIFFERENCE_CASES, ids=[c[0] for c in _DIFFERENCE_CASES])
def test_difference_structure(text, expected):
    assert is_difference(parse(text)) is expected


# Signed sums of products of one-variable factors, and their ranks: one
# pair per term, with no terms merged.
_SEPARABLE_CASES = [
    ("t-2*s^2", 2),
    ("1+t-s", 3),
    ("t*s", 1),
    ("-t/s", 1),
    ("2.5", 1),
    ("t", 1),
    ("s", 1),
    ("-(t*s)/(2*-s)", 1),
    ("1/(t*s)", 1),
    ("t/(s/t)", 1),
    ("exp(t)*cos(s)/(1+t^2) - -sqrt(s)*t + 3", 3),
    ("-(t + s)", 2),
]


@pytest.mark.parametrize("text,rank", _SEPARABLE_CASES, ids=[c[0] for c in _SEPARABLE_CASES])
def test_separable_rank(text, rank):
    pairs = separable(parse(text))
    assert len(pairs) == rank
    for u, v in pairs:
        assert u.variables() <= {"t"} and v.variables() <= {"s"}


@pytest.mark.parametrize("text", [c[0] for c in _SEPARABLE_CASES])
def test_separable_factor_products_match_tree(text):
    t, s = np.meshgrid(np.linspace(0.25, 2.0, 9), np.linspace(0.5, 3.0, 11))
    split = sum(evaluate(u, t, s) * evaluate(v, t, s) for u, v in separable(parse(text)))
    np.testing.assert_allclose(split, evaluate(parse(text), t, s), rtol=1e-14, atol=0)


@pytest.mark.parametrize("text", ["sqrt(t-s)", "exp(t*s)", "(t-s)^2", "(t+s)*t", "cos(t)/(t-s)"])
def test_not_separable(text):
    assert separable(parse(text)) is None


# ---------------------------------------------------------------------------
# Compiled evaluation against a reference walk of the tree: every node in
# post-order, each operator with its own domain check, and inf or nan kept as
# values (finite() refuses them later).  Compiling shares repeated subtrees,
# folds constants and picks the branch of a constant exponent; none of that
# may change a bit, inf and nan included, or an error message.


def _ref_checked(fn, outside, message):
    def checked(*args):
        if np.any(outside(np.asarray(args[-1]))):
            raise EvalError(message)
        return fn(*args)

    return checked


def _ref_power(a, b):
    b_arr = np.asarray(b)
    if np.all(b_arr == np.floor(b_arr)):
        if np.any((np.asarray(a) == 0.0) & (b_arr < 0)):
            raise EvalError("zero raised to a negative power")
        return np.power(a, b)
    if np.any(np.asarray(a) <= 0.0):
        raise EvalError("fractional power of a non-positive base")
    return np.exp(b * np.log(a))


_REF_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _ref_checked(lambda a, b: a / b, lambda b: b == 0.0, "division by zero"),
    "^": _ref_power,
    "cos": np.cos,
    "sin": np.sin,
    "exp": np.exp,
    "ln": _ref_checked(np.log, lambda x: x <= 0.0, "ln of a non-positive value"),
    "sqrt": _ref_checked(np.sqrt, lambda x: x < 0.0, "sqrt of a negative value"),
    "abs": np.abs,
}


def _walk(node, t, s):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name == "t":
            return t
        if s is None:
            raise EvalError("expression references 's' but no value was supplied")
        return s
    if isinstance(node, Neg):
        return -_walk(node.operand, t, s)
    if isinstance(node, BinOp):
        return _REF_OPS[node.op](_walk(node.left, t, s), _walk(node.right, t, s))
    return _REF_OPS[node.func](_walk(node.arg, t, s))


def _reference(expr, t, s=None):
    with np.errstate(all="ignore"):
        return _walk(expr, t, s)


def _outcome(fn, *args):
    """What a call gives: the result's type, shape and bytes, or the error raised."""
    try:
        out = fn(*args)
    except EvalError as err:
        return "EvalError", str(err)
    return type(out).__name__, np.shape(out), np.asarray(out, dtype=float).tobytes()


_GRID = np.linspace(0.0, 1.0, 33)
# Python floats, 0-d arrays (what ScalarFunction passes), vectors and a
# broadcast (t, s) grid, with zeros and negative values where the domain ends.
_ORACLE_INPUTS = [
    (0.0, 0.0),
    (0.3, 0.7),
    (-1.5, 2.0),
    (np.array(0.5), np.array(0.25)),
    (_GRID, _GRID[::-1].copy()),
    (_GRID - 0.5, _GRID),
    (_GRID[:, None], _GRID[None, ::3]),
]


def _assert_matches_reference(expr):
    fn = compiled(expr)
    for t, s in _ORACLE_INPUTS:
        assert _outcome(fn, t, s) == _outcome(_reference, expr, t, s), (expr, t, s)
        if "s" not in expr.variables():
            assert _outcome(fn, t) == _outcome(_reference, expr, t), (expr, t)


def _fixture_formulas():
    root = Path(__file__).resolve().parent
    problems = [builtin_problem(name) for name, _ in builtin_names()]
    problems += [load_problem_config(path) for path in sorted((root / "fixtures").glob("*.cfg"))]
    problems.append(load_problem_config(root.parent / "bench" / "fixtures" / "sqrt_ladder.cfg"))
    texts = []
    for p in problems:
        fns = [p.a0, p.kernel, p.rhs, p.exact, *(term.coeff for term in p.loads)]
        texts += [fn.source for fn in fns if fn is not None and fn.source not in texts]
    return texts


_FIXTURE_FORMULAS = _fixture_formulas()


def test_fixture_formulas_cover_every_file():
    assert len(_FIXTURE_FORMULAS) >= 20
    assert "sqrt(t-s)" in _FIXTURE_FORMULAS


@pytest.mark.parametrize("text", _FIXTURE_FORMULAS)
def test_compiled_fixture_formula_matches_tree_walk(text):
    _assert_matches_reference(parse(text))


_LITERALS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 0.25, 1e-3, 7.5, 1000.0, 1e300])
_TREES = st.recursive(
    st.one_of(_LITERALS.map(Num), st.sampled_from([Var("t"), Var("s")])),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(["cos", "sin", "exp", "ln", "sqrt", "abs"]), sub),
    ),
    max_leaves=12,
)


@given(_TREES)
def test_compiled_tree_matches_tree_walk(expr):
    _assert_matches_reference(expr)


@given(_TREES)
@example(Neg(Call("cos", Call("exp", Num(1000.0)))))  # folds to -nan; cos(inf) is the other nan
def test_compiled_repeated_subtree_matches_tree_walk(expr):
    # A subtree that occurs several times is computed once by compiled code.
    _assert_matches_reference(BinOp("-", BinOp("*", expr, Call("cos", expr)), expr))


# Constant formulas that leave the domain: compiling succeeds, every call of
# the function raises the message, and the compiled function is the tree walk.
_CONSTANT_DOMAIN_CASES = [
    ("1/0", "division by zero"),
    ("ln(0)", "ln of a non-positive value"),
    ("sqrt(-1)", "sqrt of a negative value"),
    ("0^-1", "zero raised to a negative power"),
    ("(-8)^(1/3)", "fractional power of a non-positive base"),
    ("exp(1000)", "non-finite value"),
]


@pytest.mark.parametrize("text,message", _CONSTANT_DOMAIN_CASES, ids=[c[0] for c in _CONSTANT_DOMAIN_CASES])
def test_constant_domain_error_raises_when_called(text, message):
    fn = ScalarFunction.from_expression(text, 1)
    for t in (0.5, _GRID):
        with pytest.raises(EvalError, match=re.escape(message)):
            fn(t)
    _assert_matches_reference(parse(text))
    _assert_matches_reference(parse(f"t + {text}"))


def test_first_error_is_the_tree_walks():
    assert _outcome(compiled(parse("ln(t) + 1/t")), 0.0) == ("EvalError", "ln of a non-positive value")
    assert _outcome(compiled(parse("1/t + ln(t)")), _GRID) == ("EvalError", "division by zero")
    assert _outcome(compiled(parse("ln(t) + s")), 0.0) == ("EvalError", "ln of a non-positive value")


# Deep formulas: every input parses and compiles, or raises a positioned ParseError.
DEEP = 5000


def test_deeply_nested_parentheses_parse():
    assert parse("(" * DEEP + "t" + ")" * DEEP) == Var("t")
    assert parse("(" * 150 + "t" + ")" * 150) == Var("t")
    assert evaluate(parse("(" * DEEP + "t*s" + ")" * DEEP), 2.0, 3.0) == 6.0


@pytest.mark.parametrize(
    "text, position",
    [
        ("-" * DEEP + "t", DEEP - MAX_DEPTH),
        ("^".join(["t"] * DEEP), 2 * (DEEP - MAX_DEPTH) - 1),
        ("cos(" * DEEP + "t" + ")" * DEEP, 4 * (DEEP - MAX_DEPTH)),
    ],
)
def test_deep_right_nesting_is_a_positioned_parse_error(text, position):
    # Reported at the operator or function whose node would be MAX_DEPTH + 1 deep.
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels") as exc:
        parse(text)
    assert exc.value.position == position


def test_long_sum_is_a_positioned_parse_error():
    text = "+".join(f"{k}*t^2" for k in range(DEEP))
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels") as exc:
        parse(text)
    # Each term is 3 deep, and "+" number j (from 1) makes a node of depth j + 3.
    assert text[: exc.value.position].count("+") == MAX_DEPTH - 3


def test_depth_bound_is_exact():
    assert isinstance(parse("-" * (MAX_DEPTH - 1) + "t"), Neg)
    with pytest.raises(ParseError, match="at position 0"):
        parse("-" * MAX_DEPTH + "t")


def test_deep_chains_within_the_bound_compile_without_recursion():
    t = np.linspace(0.1, 1.0, 11)
    negated = compiled(parse("-" * (MAX_DEPTH - 1) + "t"))(t)
    assert negated.tobytes() == (-t).tobytes()
    tower = compiled(parse("^".join(["t"] * (MAX_DEPTH // 2))))(t)
    assert np.isfinite(tower).all()
    assert not is_difference(parse("+".join(["(t-s)"] * (MAX_DEPTH - 10)) + "+t"))
    assert is_difference(parse("+".join(["(t-s)"] * (MAX_DEPTH - 10))))


@pytest.mark.parametrize("terms", [400, 500, MAX_DEPTH - 3])
def test_long_sum_keeps_its_bits(terms):
    # k*t^2 summed left to right, t^2 computed once, as the tree walk would.
    t = np.linspace(0.0, 1.0, 101)
    expr = parse("+".join(f"{k}*t^2" for k in range(terms)))
    square = np.power(t, 2.0)
    expected = 0.0 * square
    for k in range(1, terms):
        expected = expected + float(k) * square
    assert compiled(expr)(t).tobytes() == expected.tobytes()
    assert expr.variables() == {"t"}
    assert len(separable(parse("+".join(f"{k}*t*s^2" for k in range(terms))))) == terms

