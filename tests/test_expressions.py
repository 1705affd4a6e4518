import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lvie.expressions import (
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    evaluate,
    is_difference,
    parse,
    separable,
)


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
    ("exp(exp(t*100))", "non-finite value"),
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
