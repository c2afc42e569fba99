"""Scalar functions of one variable ``s`` as expression trees: the one
composite field type of h1curves.

A ``ScalarFn`` is built by parsing text or by arithmetic (``+ - * / **``,
unary minus and ``apply("sin")`` and the like) over numbers, the variable
``S`` and numeric fields, which enter the tree as ``Leaf`` nodes.  It
evaluates on floats and numpy arrays, each node and each leaf's field
once per call however many subtrees share it, and ``derivative()``
differentiates symbolically, each shared node once, so a derivative
shares its subtrees as its tree does and both walks are linear in the
tree's distinct nodes.
A leaf holds one numeric field: it evaluates as ``field(s)`` and
differentiates to the tree of ``field.derivative()``, which its producer
built, so no new field is built and one call evaluates each field once.

One table, ``_OPS``, declares each binary operator and each function once:
its precedence, its kernel (evaluation together with its domain check) and
its derivative rule.  The tokenizer, the parser, constant folding,
evaluation, differentiation and the printer all read it.  The text form is
parsed by precedence climbing (T. Norvell, Parsing Expressions by
Recursive Descent, 1999):

    expr(p) := unary (op expr(q))*   over the ops of precedence >= p, with
                                     q = prec(op), '^' grouping to the right,
                                     else prec(op) + 1, grouping to the left
    unary   := '-' expr(3) | atom    (binds between '*' (2) and '^' (4))
    atom    := number | 's' | 'pi' | func '(' expr(1) ')' | '(' expr(1) ')'

with the ops + - (1), * / (2), ^ (4) and the functions sin, cos, tan, exp,
log, sqrt and abs.

Evaluation is IEEE-754 double (vectorized over numpy arrays).  Leaving a
function's real domain raises EvalDomainError instead of propagating NaN;
overflow and zero to a negative power give inf, which the callers'
finiteness checks report.  An operator over two numbers folds by its own
kernel, so a constant fails exactly as the same value of ``s`` would.
Differentiation is symbolic, so curvature formulas built on second
derivatives stay accurate to roundoff.  No simplification beyond that
folding and dropping of additive/multiplicative neutral elements,
whichever way a tree is built.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "ExpressionError",
    "EvalDomainError",
    "Leaf",
    "S",
    "ScalarFn",
    "parse",
    "to_text",
]


class ExpressionError(ValueError):
    """Syntax or name error while parsing; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ValueError):
    """Evaluation left the function's real domain (log/sqrt of a negative
    number, division by zero, ...)."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


@dataclass(frozen=True, eq=False)
class Leaf:
    """A numeric field inside a tree: called as ``field(s)``, differentiated
    as the tree of ``field.derivative()``."""

    field: object


def _is_num(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def _neg(child):
    if _is_num(child):
        return Num(-child.value)
    if isinstance(child, Neg):
        return child.child
    return Neg(child)


def _binop(op, left, right):
    if _is_num(left) and _is_num(right):
        return Num(float(_apply(op, BinOp(op, left, right), left.value, right.value)))
    if op == "+":
        if _is_num(left, 0.0):
            return right
        if _is_num(right, 0.0):
            return left
    elif op == "-":
        if _is_num(right, 0.0):
            return left
        if _is_num(left, 0.0):
            return _neg(right)
    elif op == "*":
        if _is_num(left, 0.0) or _is_num(right, 0.0):
            return Num(0.0)
        if _is_num(left, 1.0):
            return right
        if _is_num(right, 1.0):
            return left
    elif op == "/":
        if _is_num(left, 0.0) and not _is_num(right, 0.0):
            return Num(0.0)
        if _is_num(right, 1.0):
            return left
    elif op == "^":
        if _is_num(right, 1.0):
            return left
        if _is_num(right, 0.0):
            return Num(1.0)
    return BinOp(op, left, right)


# ---------------------------------------------------------------------------
# The operator table


def _divide(a, b):
    if np.any(b == 0.0):
        raise EvalDomainError("division by zero")
    return a / b


def _power(a, b):
    # overflow and 0^-1 give inf, left to the callers' finiteness checks
    with np.errstate(all="ignore"):
        out = np.power(np.asarray(a, dtype=float), b)
    if np.any(np.isnan(out)) and not np.any(np.isnan(a)):
        raise EvalDomainError("fractional power of a negative base")
    return out if np.ndim(out) else float(out)


def _refusing(ufunc, bad, reason):
    """``ufunc``, raising EvalDomainError(reason) where ``bad(a, 0)`` holds."""

    def kernel(a):
        if np.any(bad(a, 0.0)):
            raise EvalDomainError(reason)
        return ufunc(a)

    return kernel


def _d_power(node, du, dv):
    u, v = node.left, node.right
    if _is_num(v):
        return _binop("*", _binop("*", v, _binop("^", u, Num(v.value - 1.0))), du)
    # general u^v = exp(v log u)
    term1 = _binop("*", dv, Call("log", u))
    term2 = _binop("/", _binop("*", v, du), u)
    return _binop("*", node, _binop("+", term1, term2))


class _Op(NamedTuple):
    """An operator or function of the language."""

    prec: int  # binding power of a binary operator; 0 for a function
    kernel: Callable  # operand values -> value, raising EvalDomainError
    # binary: (node, d left, d right) -> derivative tree;
    # function: argument tree -> derivative of the function at it
    rule: Callable
    assoc: str = "left"  # "right" for '^'; "any" when either grouping prints bare


_OPS = {
    "+": _Op(1, operator.add, lambda n, du, dv: _binop("+", du, dv), "any"),
    "-": _Op(1, operator.sub, lambda n, du, dv: _binop("-", du, dv)),
    "*": _Op(2, operator.mul, lambda n, du, dv: _binop(
        "+", _binop("*", du, n.right), _binop("*", n.left, dv)), "any"),
    "/": _Op(2, _divide, lambda n, du, dv: _binop(
        "/", _binop("-", _binop("*", du, n.right), _binop("*", n.left, dv)),
        _binop("^", n.right, Num(2.0)))),
    "^": _Op(4, _power, _d_power, "right"),
    "sin": _Op(0, np.sin, lambda u: Call("cos", u)),
    "cos": _Op(0, np.cos, lambda u: _neg(Call("sin", u))),
    "tan": _Op(0, np.tan, lambda u: _binop("+", Num(1.0), _binop("^", Call("tan", u), Num(2.0)))),
    "exp": _Op(0, np.exp, lambda u: Call("exp", u)),
    "log": _Op(0, _refusing(np.log, np.less_equal, "log of a non-positive argument"),
               lambda u: _binop("/", Num(1.0), u)),
    "sqrt": _Op(0, _refusing(np.sqrt, np.less, "sqrt of a negative argument"),
                lambda u: _binop("/", Num(0.5), Call("sqrt", u))),
    "abs": _Op(0, np.abs, lambda u: _binop("/", u, Call("abs", u))),
}
_NEG_PREC = 3  # unary minus binds between '*' and '^'


def _is_function(name: str) -> bool:
    return name.isalpha() and name in _OPS


def _apply(name, node, *values):
    """The kernel of ``name`` on operand values; a domain error names ``node``."""
    try:
        return _OPS[name].kernel(*values)
    except EvalDomainError as exc:
        raise EvalDomainError(f"{exc} in {to_text(node)!r}") from None


# ---------------------------------------------------------------------------
# Tokenizer / parser

# The deepest text accepted: its parse nests at most this many expressions
# (a parenthesis, function argument, unary minus or operand opens one) and
# its tree is at most this many nodes deep.  A third derivative is at most 13
# times deeper (633 for ((s^s)^s)^..., the worst shape found), so parsing,
# evaluation, printing and differentiation to order 3 stay well below
# Python's default recursion limit of 1000 frames.
_MAX_DEPTH = 50


@dataclass
class _Token:
    kind: str  # num, name, op, (, ), end
    text: str
    pos: int
    value: float = 0.0


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"malformed number {text[i:j]!r}", i) from None
            tokens.append(_Token("num", text[i:j], i, value))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if c in "()":
            tokens.append(_Token(c, c, i))
        elif c in _OPS or c == "−":  # the unicode minus is accepted too
            tokens.append(_Token("op", "-" if c == "−" else c, i))
        else:
            raise ExpressionError(f"unexpected character {c!r}", i)
        i += 1
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0  # expressions being parsed, one inside the other

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos
            )
        return self.advance()

    def parse(self):
        node = self.climb(1)
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def climb(self, min_prec: int):
        """The longest expression whose binary operators bind at least as
        tightly as ``min_prec``."""
        self.nesting += 1
        if self.nesting > _MAX_DEPTH:
            raise ExpressionError(f"expression deeper than {_MAX_DEPTH} levels", self.peek().pos)
        node = self.unary()
        while self.peek().kind == "op":
            name = self.peek().text
            op = _OPS[name]
            if op.prec < min_prec:
                break
            self.advance()
            node = _binop(name, node, self.climb(op.prec + (op.assoc != "right")))
        self.nesting -= 1
        return node

    def unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return _neg(self.climb(_NEG_PREC))
        return self.atom()

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return Num(tok.value)
        if tok.kind == "name":
            if tok.text == "s":
                return Var()
            if tok.text == "pi":
                return Num(math.pi)
            if _is_function(tok.text):
                self.expect("(")
                arg = self.climb(1)
                self.expect(")")
                return Call(tok.text, arg)
            raise ExpressionError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "(":
            node = self.climb(1)
            self.expect(")")
            return node
        raise ExpressionError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )


def _children(node):
    if isinstance(node, BinOp):
        return node.left, node.right
    return (node.child,) if isinstance(node, Neg) else (node.arg,) if isinstance(node, Call) else ()


def _depth(node) -> int:
    """The number of nodes on the longest path down from ``node``, walked
    level by level, a node that differentiation shared once per level."""
    deepest, level = 0, [node]
    while level:
        deepest += 1
        level = list({id(child): child for n in level for child in _children(n)}.values())
    return deepest


def parse(text: str):
    """Parse expression text into an AST; raises ExpressionError on bad input
    or on a text deeper than ``_MAX_DEPTH``, and EvalDomainError on a
    constant outside an operator's domain."""
    if not text or not text.strip():
        raise ExpressionError("empty expression", 0)
    node = _Parser(text).parse()
    if _depth(node) > _MAX_DEPTH:
        raise ExpressionError(f"expression deeper than {_MAX_DEPTH} levels", 0)
    return node


# ---------------------------------------------------------------------------
# Evaluation, differentiation and printing


def _eval(node, s, memo):
    """The value of ``node`` at ``s``, each node once however many parents
    share it and each field once however many leaves stand for it: ``memo``
    holds the values by node identity and by field."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return s
    key = node.field if isinstance(node, Leaf) else id(node)
    if key in memo:
        return memo[key]
    if isinstance(node, Leaf):
        value = node.field(s)
    elif isinstance(node, Neg):
        value = -_eval(node.child, s, memo)
    elif isinstance(node, BinOp):
        value = _apply(node.op, node, _eval(node.left, s, memo), _eval(node.right, s, memo))
    elif isinstance(node, Call):
        value = _apply(node.fn, node, _eval(node.arg, s, memo))
    else:
        raise AssertionError(type(node))
    memo[key] = value
    return value


def _diff(node, memo):
    """The derivative tree of ``node``, each node differentiated once (``memo``
    by node identity), so it shares subtrees where ``node`` does."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    key = id(node)
    if key in memo:
        return memo[key]
    if isinstance(node, Leaf):
        out = node.field.derivative().ast
    elif isinstance(node, Neg):
        out = _neg(_diff(node.child, memo))
    elif isinstance(node, BinOp):
        out = _OPS[node.op].rule(node, _diff(node.left, memo), _diff(node.right, memo))
    elif isinstance(node, Call):
        out = _binop("*", _OPS[node.fn].rule(node.arg), _diff(node.arg, memo))
    else:
        raise AssertionError(type(node))
    memo[key] = out
    return out


def _fmt(node, parent_prec=0):
    if isinstance(node, Num):
        if node.value < 0:
            text = repr(-node.value)
            return f"(-{text})" if parent_prec > 0 else f"-{text}"
        return repr(node.value)
    if isinstance(node, Var):
        return "s"
    if isinstance(node, Leaf):  # seen only in error messages
        return f"<{type(node.field).__name__}>"
    if isinstance(node, Neg):
        text = f"-{_fmt(node.child, _NEG_PREC)}"
        return f"({text})" if parent_prec >= _NEG_PREC else text
    if isinstance(node, BinOp):
        op = _OPS[node.op]
        left = _fmt(node.left, op.prec + (op.assoc == "right"))
        right = _fmt(node.right, op.prec + (op.assoc == "left"))
        # sums and differences print spaced, products and powers bare
        text = f"{left} {node.op} {right}" if op.prec == 1 else f"{left}{node.op}{right}"
        return f"({text})" if op.prec < parent_prec else text
    if isinstance(node, Call):
        return f"{node.fn}({_fmt(node.arg, 0)})"
    raise AssertionError(type(node))


def to_text(node) -> str:
    """Render an AST back to parseable text (for trees without leaves)."""
    return _fmt(node, 0)


# ---------------------------------------------------------------------------
# Public function object


def _node(value):
    """The tree of a ScalarFn, number (not a bool) or numeric field; None otherwise."""
    if isinstance(value, ScalarFn):
        return value.ast
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return Num(float(value))
    if callable(value) and hasattr(value, "derivative"):
        return Leaf(value)
    return None


def _operator(op: str, reflected: bool = False):
    """The method ``self op other`` (``other op self`` when reflected)."""

    def method(self, other):
        node = _node(other)
        if node is None:
            return NotImplemented
        left, right = (node, self.ast) if reflected else (self.ast, node)
        return ScalarFn(_binop(op, left, right))

    return method


@dataclass
class ScalarFn:
    """A scalar function of ``s`` with cached exact derivatives.

    Callable on floats and numpy arrays; ``derivative(order)`` returns a new
    ScalarFn for orders up to 3.  Arithmetic with numbers, numeric fields
    and other ScalarFns, on either side, builds a new tree.
    """

    ast: object
    _derivatives: dict = field(default_factory=dict, repr=False)

    # numpy scalars and arrays defer to the reflected operators below
    __array_ufunc__ = None

    @classmethod
    def parse(cls, text: str) -> "ScalarFn":
        return cls(parse(text))

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        # overflow and the like yield inf/nan, which the callers' finiteness
        # checks report as one error; numpy's warnings would add stderr lines
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = _eval(self.ast, arr if arr.ndim else float(arr), {})
        if arr.ndim and np.ndim(out) == 0:
            out = np.full(arr.shape, float(out))
        return out

    def derivative(self, order: int = 1) -> "ScalarFn":
        if not 1 <= order <= 3:
            raise ValueError("derivative order must be between 1 and 3")
        if order not in self._derivatives:
            base = self if order == 1 else self.derivative(order - 1)
            self._derivatives[order] = ScalarFn(_diff(base.ast, {}))
        return self._derivatives[order]

    def apply(self, fn: str) -> "ScalarFn":
        """``fn`` of this function, for fn one of the grammar's functions."""
        if not _is_function(fn):
            raise ValueError(f"unknown function {fn!r}")
        return ScalarFn(Call(fn, self.ast))

    __add__, __radd__ = _operator("+"), _operator("+", reflected=True)
    __sub__, __rsub__ = _operator("-"), _operator("-", reflected=True)
    __mul__, __rmul__ = _operator("*"), _operator("*", reflected=True)
    __truediv__, __rtruediv__ = _operator("/"), _operator("/", reflected=True)
    __pow__, __rpow__ = _operator("^"), _operator("^", reflected=True)

    def __neg__(self):
        return ScalarFn(_neg(self.ast))


S = ScalarFn(Var())
