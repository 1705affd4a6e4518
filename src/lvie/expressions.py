"""Arithmetic expression language used in problem definition files.

The grammar covers exactly what coefficient formulas need: decimal
literals, the variables ``t`` and ``s``, the operators ``+ - * / ^``,
unary minus, parentheses, and the functions ``cos``, ``sin``, ``exp``,
``ln``, ``sqrt``, ``abs``.

Precedence, loosest to tightest: ``+ -``, then ``* /``, then unary
minus, then ``^`` (right-associative, so ``2^3^2`` is ``2^(3^2)`` and
``-t^2`` is ``-(t^2)``).

Every operator and function has one implementation in the table
``_OPS``, which lists the function names the parser accepts.  Evaluation
is plain IEEE double precision and works elementwise on numpy arrays
as well as on scalars.  Leaving the real domain (division by zero,
``ln`` of a non-positive value, a fractional power of a non-positive
base) raises :class:`EvalError` instead of producing NaN or infinity.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = ["Expr", "ParseError", "EvalError", "parse", "evaluate", "is_difference", "separable"]


class ParseError(ValueError):
    """Syntax or name error, carrying the 0-based offset where it occurred."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvalError(ArithmeticError):
    """Evaluation left the real domain or a referenced variable is missing."""


class Expr:
    """Base class for expression nodes.  Nodes are immutable and shareable."""

    def eval(self, t, s=None):
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        return frozenset().union(*(child.variables() for child in self.children()))

    def children(self) -> list["Expr"]:
        return [v for v in vars(self).values() if isinstance(v, Expr)]


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def eval(self, t, s=None):
        return self.value


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "t" or "s"

    def eval(self, t, s=None):
        if self.name == "t":
            return t
        if s is None:
            raise EvalError("expression references 's' but no value was supplied")
        return s

    def variables(self):
        return frozenset((self.name,))


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr

    def eval(self, t, s=None):
        return -self.operand.eval(t, s)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of "+ - * / ^"
    left: Expr
    right: Expr

    def eval(self, t, s=None):
        return _OPS[self.op](self.left.eval(t, s), self.right.eval(t, s))


@dataclass(frozen=True)
class Call(Expr):
    func: str  # a function name of _OPS
    arg: Expr

    def eval(self, t, s=None):
        return _OPS[self.func](self.arg.eval(t, s))


def _power(a, b):
    b_arr = np.asarray(b)
    if np.all(b_arr == np.floor(b_arr)):
        # Integer exponents keep the usual semantics (negative bases allowed).
        if np.any((np.asarray(a) == 0.0) & (b_arr < 0)):
            raise EvalError("zero raised to a negative power")
        return np.power(a, b)
    if np.any(np.asarray(a) <= 0.0):
        raise EvalError("fractional power of a non-positive base")
    return np.exp(b * np.log(a))


def _checked(fn, outside, message: str):
    """``fn`` raising ``EvalError(message)`` where its last argument is ``outside`` the domain."""

    def checked(*args):
        if np.any(outside(np.asarray(args[-1]))):
            raise EvalError(message)
        return fn(*args)

    return checked


_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _checked(operator.truediv, lambda b: b == 0.0, "division by zero"),
    "^": _power,
    "cos": np.cos,
    "sin": np.sin,
    "exp": np.exp,
    "ln": _checked(np.log, lambda x: x <= 0.0, "ln of a non-positive value"),
    "sqrt": _checked(np.sqrt, lambda x: x < 0.0, "sqrt of a negative value"),
    "abs": np.abs,
}


_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == ".":
            m = _NUMBER_RE.match(text, i)
            if m is None:
                raise ParseError("malformed number", i)
            tokens.append(("num", float(m.group()), i))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            m = _NAME_RE.match(text, i)
            if m is None:  # a Unicode letter outside the ASCII grammar
                raise ParseError(f"unexpected character {c!r}", i)
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0

    @property
    def current(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expression(self) -> Expr:
        left = self.term()
        while self.current[0] in ("+", "-"):
            op = self.advance()[0]
            left = BinOp(op, left, self.term())
        return left

    def term(self) -> Expr:
        left = self.unary()
        while self.current[0] in ("*", "/"):
            op = self.advance()[0]
            left = BinOp(op, left, self.unary())
        return left

    def unary(self) -> Expr:
        if self.current[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.current[0] == "^":
            self.advance()
            # Exponent parsed at unary level: right-associative, may be signed.
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "name":
            if self.current[0] == "(":
                if value not in _OPS:  # a name token is never an operator symbol
                    raise ParseError(f"unknown function {value!r}", pos)
                self.advance()
                arg = self.expression()
                if self.current[0] != ")":
                    raise ParseError("expected ')'", self.current[2])
                self.advance()
                return Call(value, arg)
            if value in ("t", "s"):
                return Var(value)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "(":
            inner = self.expression()
            if self.current[0] != ")":
                raise ParseError("expected ')'", self.current[2])
            self.advance()
            return inner
        raise ParseError("expected a number, variable, function, or '('", pos)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` (with position) on malformed input or
    unknown names; never aborts in any other way.
    """
    p = _Parser(_tokenize(text))
    expr = p.expression()
    kind, _, pos = p.current
    if kind != "end":
        raise ParseError(f"unexpected {kind!r}", pos)
    return expr


def is_difference(expr: Expr) -> bool:
    """True when every ``t`` and ``s`` in ``expr`` occurs as the node ``t - s``
    (so a constant qualifies, and ``1+t-s``, parsed as ``(1+t)-s``, does not)."""
    if expr == BinOp("-", Var("t"), Var("s")):
        return True
    return not isinstance(expr, Var) and all(is_difference(c) for c in expr.children())


def _signed_terms(expr: Expr, sign: bool, out: list) -> None:
    """Append ``(negated, term)`` for every term of the signed sum ``expr``."""
    if isinstance(expr, BinOp) and expr.op in "+-":
        _signed_terms(expr.left, sign, out)
        _signed_terms(expr.right, sign ^ (expr.op == "-"), out)
    elif isinstance(expr, Neg):
        _signed_terms(expr.operand, not sign, out)
    else:
        out.append((sign, expr))


def _factors(expr: Expr, divide: bool, sign: bool, out: list) -> bool:
    """Append ``(divide, factor)`` for every factor of the product or quotient
    ``expr``; returns the sign flipped by every unary minus met on the way."""
    if isinstance(expr, BinOp) and expr.op in "*/":
        sign = _factors(expr.left, divide, sign, out)
        return _factors(expr.right, divide ^ (expr.op == "/"), sign, out)
    if isinstance(expr, Neg):
        return _factors(expr.operand, divide, not sign, out)
    out.append((divide, expr))
    return sign


def _product(factors: list) -> Expr:
    """``1`` times or divided by each ``(divide, factor)`` pair in turn."""
    result: Expr = Num(1.0)
    for divide, factor in factors:
        result = BinOp("/" if divide else "*", result, factor)
    return result


def separable(expr: Expr):
    """Rank-r split ``[(u_1, v_1), ...]`` of ``expr`` = sum_r u_r(t) v_r(s), or None.

    ``expr`` must be a signed sum (``+``, ``-``, unary ``-``) of terms, each
    a product or quotient of factors that depend on ``t`` only or on ``s``
    only; each term gives one pair, so ``t-2*s^2`` has rank 2 and
    ``1+t-s`` rank 3.  Constant factors and the term's sign go into ``u``,
    whose subtree references ``t`` only; ``v`` references ``s`` only.
    Sums inside a factor are not expanded: ``(t-s)^2`` gives None.
    """
    terms: list = []
    _signed_terms(expr, False, terms)
    pairs = []
    for sign, term in terms:
        factors: list = []
        sign = _factors(term, False, sign, factors)
        u_factors, v_factors = [], []
        for divide, factor in factors:
            names = factor.variables()
            if "t" in names and "s" in names:
                return None
            (v_factors if "s" in names else u_factors).append((divide, factor))
        u = _product(u_factors)
        pairs.append((Neg(u) if sign else u, _product(v_factors)))
    return pairs


def evaluate(expr: Expr, t, s=None):
    """Evaluate ``expr`` at ``t`` (and ``s`` for two-variable expressions).

    Accepts scalars or numpy arrays; arrays broadcast elementwise.
    Raises :class:`EvalError` when the result is not finite or a domain
    rule is violated.
    """
    with np.errstate(all="ignore"):  # non-finite values raise below instead
        out = expr.eval(t, s)
    if not np.all(np.isfinite(out)):
        raise EvalError("expression evaluated to a non-finite value")
    return out
