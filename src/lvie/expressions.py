"""Arithmetic expression language used in problem definition files.

The grammar covers exactly what coefficient formulas need: decimal
literals, the variables ``t`` and ``s``, the operators ``+ - * / ^``,
unary minus, parentheses, and the functions ``cos``, ``sin``, ``exp``,
``ln``, ``sqrt``, ``abs``.

Precedence, loosest to tightest: ``+ -``, then ``* /``, then unary
minus, then ``^`` (right-associative, so ``2^3^2`` is ``2^(3^2)`` and
``-t^2`` is ``-(t^2)``).

Every operator and function has one implementation in the table
``_OPS``, which lists the function names the parser accepts.  A tree is
compiled once (:func:`compiled`) into a flat list of steps: a repeated
subtree is computed once per call, constant subtrees are folded, and a
constant exponent or divisor fixes its operation.  Evaluation is plain
IEEE double precision, bit for bit that of a walk of the tree, and works
elementwise on numpy arrays as well as on scalars.  Leaving the real
domain (division by zero, ``ln`` of a non-positive value, a fractional
power of a non-positive base) or a non-finite result raises
:class:`EvalError` when the function is called, never when it is compiled.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = ["Expr", "ParseError", "EvalError", "parse", "compiled", "evaluate", "is_difference", "separable"]


class ParseError(ValueError):
    """Syntax or name error, carrying the 0-based offset where it occurred."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvalError(ArithmeticError):
    """Evaluation left the real domain or a referenced variable is missing."""


class Expr:
    """Base class for expression nodes.  Nodes are immutable and shareable."""

    def variables(self) -> frozenset[str]:
        return frozenset().union(*(child.variables() for child in self.children()))

    def children(self) -> list["Expr"]:
        return [v for v in vars(self).values() if isinstance(v, Expr)]


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "t" or "s"

    def variables(self):
        return frozenset((self.name,))


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of "+ - * / ^"
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str  # a function name of _OPS
    arg: Expr


def _checked(fn, outside, message: str, arg: int = -1):
    """``fn`` raising ``EvalError(message)`` where its argument ``arg`` is ``outside`` the domain."""

    def checked(*args):
        if outside(np.asarray(args[arg])).any():
            raise EvalError(message)
        return fn(*args)

    return checked


_fractional_power = _checked(
    lambda a, b: np.exp(b * np.log(a)), lambda a: a <= 0.0, "fractional power of a non-positive base", 0
)


def _power(a, b):
    b_arr = np.asarray(b)
    if not np.all(b_arr == np.floor(b_arr)):
        return _fractional_power(a, b)
    # Integer exponents keep the usual semantics (negative bases allowed).
    if np.any((np.asarray(a) == 0.0) & (b_arr < 0)):
        raise EvalError("zero raised to a negative power")
    return np.power(a, b)


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


def _binary(op: str, b):
    """The implementation of ``op`` for a right operand ``b`` (None: not a constant).

    A non-zero constant divisor needs no check, and a constant exponent
    takes its branch of ``_power`` once: ``np.power`` for an integer
    b >= 0, ``_fractional_power`` for a fractional b.
    """
    if b is None or op not in "/^":
        return _OPS[op]
    if op == "/":
        return _OPS[op] if b == 0.0 else operator.truediv
    if not b == np.floor(b):
        return _fractional_power
    return _power if b < 0 else np.power


def _given_s(s):
    if s is None:
        raise EvalError("expression references 's' but no value was supplied")
    return s


def compiled(expr: Expr):
    """``expr`` as a function ``(t, s=None)``, compiled once; see :func:`evaluate`.

    One post-order walk of the tree lists its steps, each an operation on
    the slots of t, s, constants and earlier steps.  Equal operations on
    equal slots are one step, so a repeated subtree is computed once per
    call.  An operation on constants is folded into its value, computed as
    the step would; one that raises :class:`EvalError` stays a step, so
    ``1/0`` raises when called.  Steps run in the walk's order, so the
    first error raised is the walk's.
    """
    values: list = [None, None]  # t, s, then every constant and step (None until called)
    steps: list = []  # (slot, fn, operand slot, second operand slot or None)
    slots: dict = {}  # a constant's (type, repr), or a step's (fn, i, j) -> its slot

    def slot(node: Expr) -> int:
        if isinstance(node, Num):
            return constant(node.value)
        if isinstance(node, Var):
            return 0 if node.name == "t" else operation(_given_s, 1)
        if isinstance(node, Neg):
            return operation(operator.neg, slot(node.operand))
        if isinstance(node, Call):
            return operation(_OPS[node.func], slot(node.arg))
        left, right = slot(node.left), slot(node.right)
        return operation(_binary(node.op, values[right]), left, right)

    def constant(value) -> int:
        key = (type(value), repr(value))
        if key not in slots:
            slots[key] = len(values)
            values.append(value)
        return slots[key]

    def operation(fn, i: int, j=None) -> int:
        if (fn, i, j) not in slots:
            args = [values[k] for k in (i, j) if k is not None]
            try:
                slots[fn, i, j] = None if None in args else constant(fn(*args))
            except EvalError:
                slots[fn, i, j] = None
            if slots[fn, i, j] is None:
                slots[fn, i, j] = len(values)
                steps.append((len(values), fn, i, j))
                values.append(None)
        return slots[fn, i, j]

    with np.errstate(all="ignore"):
        out = slot(expr)
    # A step writes to the slot of a result that no later step reads, so a
    # call frees every array after its last use, as a walk of the tree does.
    last = {k: n for n, (_, _, i, j) in enumerate(steps) for k in (i, j)}
    last[out] = len(steps)
    register: dict = {}  # step slot -> the slot it writes
    free: list = []
    for n, (at, fn, i, j) in enumerate(steps):
        free += [register[k] for k in {i, j} if k in register and last[k] == n]
        register[at] = free.pop() if free else at
        steps[n] = (register[at], fn, register.get(i, i), register.get(j, j))
    out = register.get(out, out)

    def function(t, s=None):
        vals = [t, s] + values[2:]
        with np.errstate(all="ignore"):  # non-finite values raise below instead
            for at, fn, i, j in steps:
                vals[at] = fn(vals[i]) if j is None else fn(vals[i], vals[j])
        if not np.isfinite(vals[out]).all():
            raise EvalError("expression evaluated to a non-finite value")
        return vals[out]

    return function


# Every character starts one match: whitespace, a token, or a bad character.
_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """``(kind, value, position)`` of every token, then ``("end", "", len(text))``."""
    tokens: list[tuple[str, object, int]] = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            number = value.isdigit() or value == "."
            raise ParseError("malformed number" if number else f"unexpected character {value!r}", pos)
        if kind == "num":
            tokens.append((kind, float(value), pos))
        elif kind != "space":
            tokens.append((value if kind == "op" else kind, value, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0

    def take(self, kind: str) -> bool:
        """Step past the next token if it is of ``kind``."""
        found = self.tokens[self.k][0] == kind
        self.k += found
        return found

    def chain(self, ops: tuple, operand) -> Expr:
        """``operand``s joined left to right by the operators ``ops``."""
        left = operand()
        while self.tokens[self.k][0] in ops:
            self.k += 1
            left = BinOp(self.tokens[self.k - 1][0], left, operand())
        return left

    def expression(self) -> Expr:
        return self.chain(("+", "-"), self.term)

    def term(self) -> Expr:
        return self.chain(("*", "/"), self.unary)

    def unary(self) -> Expr:
        if self.take("-"):
            return Neg(self.unary())
        base = self.atom()
        # Exponent parsed at unary level: right-associative, may be signed.
        return BinOp("^", base, self.unary()) if self.take("^") else base

    def atom(self) -> Expr:
        kind, value, pos = self.tokens[self.k]
        self.k += 1
        if kind == "num":
            return Num(value)
        if kind == "name" and not self.take("("):
            if value in ("t", "s"):
                return Var(value)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "name" and value not in _OPS:  # a name token is never an operator symbol
            raise ParseError(f"unknown function {value!r}", pos)
        if kind not in ("name", "("):
            raise ParseError("expected a number, variable, function, or '('", pos)
        inner = self.expression()
        if not self.take(")"):
            raise ParseError("expected ')'", self.tokens[self.k][2])
        return Call(value, inner) if kind == "name" else inner


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` (with position) on malformed input or
    unknown names; never aborts in any other way.
    """
    p = _Parser(_tokenize(text))
    expr = p.expression()
    kind, _, pos = p.tokens[p.k]
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
    rule is violated.  Compiles ``expr`` on every call; :func:`compiled`
    compiles it once.
    """
    return compiled(expr)(t, s)
