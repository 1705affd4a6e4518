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
power of a non-positive base) raises :class:`EvalError` when the function
is called, never when it is compiled; inf and nan are values.
:func:`finite`, the one rule that refuses them, naming the point, is
applied by :func:`evaluate` and by every ``ScalarFunction`` call.
A formula whose tree is deeper than ``MAX_DEPTH`` nodes does not parse.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = ["Expr", "ParseError", "EvalError", "parse", "compiled", "evaluate", "is_difference", "separable"]


# Deepest tree ``parse`` builds, in nodes from the root to a leaf.  Parsing,
# compiling and every walk of a tree here use explicit stacks, so no formula
# raises RecursionError; a tree deeper than Python's default recursion limit
# is refused with a position all the same.
MAX_DEPTH = 1000


class ParseError(ValueError):
    """Syntax or name error, carrying the 0-based offset where it occurred."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvalError(ArithmeticError):
    """Evaluation left the real domain, gave a non-finite value, or a referenced variable is missing."""


def finite(values, t, s=None):
    """``values``, or :class:`EvalError` naming the first non-finite entry (row-major) at ``t``, ``s``."""
    if np.isfinite(values).all():
        return values
    arrays = np.broadcast_arrays(values, t) if s is None else np.broadcast_arrays(values, t, s)
    i = np.argmax(~np.isfinite(arrays[0]))
    at = ", ".join(f"{name}={p.flat[i]:.6g}" for name, p in zip("ts", arrays[1:]))
    raise EvalError(f"non-finite value {arrays[0].flat[i]} at {at}")


class Expr:
    """Base class for expression nodes.  Nodes are immutable and shareable."""

    def variables(self) -> frozenset[str]:
        return frozenset(node.name for node in _postorder(self) if isinstance(node, Var))

    def children(self) -> tuple["Expr", ...]:
        return ()


def _postorder(expr: Expr):
    """The nodes of ``expr``, children left to right before their parent; no recursion.

    That is the reverse of the walk parent, then children right to left.
    """
    order, stack = [], [expr]
    while stack:
        node = stack.pop()
        order.append(node)
        stack += node.children()
    return reversed(order)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "t" or "s"


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of "+ - * / ^"
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Call(Expr):
    func: str  # a function name of _OPS
    arg: Expr

    def children(self):
        return (self.arg,)


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

    def slot(node: Expr, done: list) -> int:
        """The slot of ``node``, whose operands' slots end ``done`` (taken off it)."""
        if isinstance(node, Num):
            return constant(node.value)
        if isinstance(node, Var):
            return 0 if node.name == "t" else operation(_given_s, 1)
        if isinstance(node, Neg):
            return operation(operator.neg, done.pop())
        if isinstance(node, Call):
            return operation(_OPS[node.func], done.pop())
        right, left = done.pop(), done.pop()
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

    done: list = []
    with np.errstate(all="ignore"):
        for node in _postorder(expr):
            done.append(slot(node, done))
    out = done.pop()
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
        with np.errstate(all="ignore"):  # IEEE values; finite() refuses the non-finite ones
            for at, fn, i, j in steps:
                vals[at] = fn(vals[i]) if j is None else fn(vals[i], vals[j])
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


# Binding of the operators parse reduces: the binary ones are left-associative,
# "neg" (unary minus) is a prefix and "^" associates to the right.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` (with position) on malformed input,
    unknown names, or a tree deeper than ``MAX_DEPTH`` nodes (at the
    operator or function whose node would pass it); never aborts in any
    other way.  The parser keeps its pending operators and operands on
    explicit stacks, so nesting costs no recursion.
    """
    tokens = _tokenize(text)
    operands: list[tuple[Expr, int]] = []  # (tree, depth)
    # (op, function, position): op is a binary operator, "neg" or "(", which
    # carries its function's name (None for plain parentheses)
    pending: list[tuple[str, object, int]] = []

    def build(node: Expr, depth: int, pos: int) -> None:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        operands.append((node, depth))

    def reduce(precedence: int) -> None:
        """Apply the pending operators that bind at least as tightly as ``precedence``."""
        while pending and pending[-1][0] != "(" and _PRECEDENCE[pending[-1][0]] >= precedence:
            op, _, pos = pending.pop()
            right, depth = operands.pop()
            if op == "neg":
                build(Neg(right), depth + 1, pos)
            else:
                left, left_depth = operands.pop()
                build(BinOp(op, left, right), max(left_depth, depth) + 1, pos)

    k = 0
    while True:  # an operand is due
        kind, value, pos = tokens[k]
        k += 1
        if kind == "-":
            pending.append(("neg", None, pos))
            continue
        call = kind == "name" and tokens[k][0] == "("
        if call and value not in _OPS:  # a name token is never an operator symbol
            raise ParseError(f"unknown function {value!r}", pos)
        if call or kind == "(":
            k += call
            pending.append(("(", value if call else None, pos))
            continue
        if kind == "name" and value not in ("t", "s"):
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind not in ("num", "name"):
            raise ParseError("expected a number, variable, function, or '('", pos)
        operands.append((Num(value) if kind == "num" else Var(value), 1))
        while True:  # an operator is due
            kind, _, pos = tokens[k]
            k += 1
            if kind in _PRECEDENCE:
                if kind != "^":  # "^" binds tightest and to the right: nothing pending is complete
                    reduce(_PRECEDENCE[kind])
                pending.append((kind, None, pos))
                break
            reduce(0)
            inner = pending and pending[-1][0] == "("
            if kind == ")" and inner:
                _, func, at = pending.pop()
                if func is not None:
                    arg, depth = operands.pop()
                    build(Call(func, arg), depth + 1, at)
                continue
            if inner:
                raise ParseError("expected ')'", pos)
            if kind != "end":
                raise ParseError(f"unexpected {kind!r}", pos)
            return operands[0][0]


def is_difference(expr: Expr) -> bool:
    """True when every ``t`` and ``s`` in ``expr`` occurs as the node ``t - s``
    (so a constant qualifies, and ``1+t-s``, parsed as ``(1+t)-s``, does not)."""
    difference, stack = BinOp("-", Var("t"), Var("s")), [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            return False
        if node != difference:
            stack.extend(node.children())
    return True


def _signed_terms(expr: Expr) -> list:
    """``(negated, term)`` for every term of the signed sum ``expr``, left to right."""
    out, stack = [], [(expr, False)]
    while stack:
        node, sign = stack.pop()
        if isinstance(node, BinOp) and node.op in "+-":
            stack += [(node.right, sign ^ (node.op == "-")), (node.left, sign)]
        elif isinstance(node, Neg):
            stack.append((node.operand, not sign))
        else:
            out.append((sign, node))
    return out


def _factors(expr: Expr, sign: bool) -> tuple[bool, list]:
    """``sign`` flipped by every unary minus met in the product or quotient
    ``expr``, and ``(divide, factor)`` for every factor, left to right."""
    out, stack = [], [(expr, False)]
    while stack:
        node, divide = stack.pop()
        if isinstance(node, BinOp) and node.op in "*/":
            stack += [(node.right, divide ^ (node.op == "/")), (node.left, divide)]
        elif isinstance(node, Neg):
            sign = not sign
            stack.append((node.operand, divide))
        else:
            out.append((divide, node))
    return sign, out


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
    pairs = []
    for sign, term in _signed_terms(expr):
        sign, factors = _factors(term, sign)
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
    Raises :class:`EvalError` when a domain rule is violated or, through
    :func:`finite`, when the result is not finite.  Compiles ``expr`` on
    every call; :func:`compiled` compiles it once.
    """
    return finite(compiled(expr)(t, s), t, s)
