"""Parser, evaluator and exact symbolic differentiator for scalar functions
of a single variable ``s``, supplied as text.

Grammar (recursive descent, standard precedence, '^' right-associative,
unary minus binding looser than '^'):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := number | 's' | 'pi' | func '(' expr ')' | '(' expr ')'
    func   := sin | cos | tan | exp | log | sqrt | abs

Evaluation is IEEE-754 double (vectorized over numpy arrays); domain
violations raise instead of propagating NaN.  Differentiation is symbolic,
so curvature formulas built on second derivatives stay accurate to
roundoff.  No simplification beyond constant folding and dropping of
additive/multiplicative neutral elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExpressionError",
    "EvalDomainError",
    "ScalarFn",
    "parse",
    "to_text",
]

_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")


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
        return Num(_apply_scalar(op, left.value, right.value))
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


def _apply_scalar(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise EvalDomainError("division by zero in constant expression")
        return a / b
    if op == "^":
        try:
            return float(a) ** float(b)
        except (OverflowError, ValueError) as exc:
            raise EvalDomainError(f"invalid constant power {a}^{b}") from exc
    raise AssertionError(op)


# ---------------------------------------------------------------------------
# Tokenizer / parser


@dataclass
class _Token:
    kind: str  # num, name, op, lparen, rparen, end
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
        if c in "+*/^":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        if c == "-" or c == "−":  # accept the unicode minus too
            tokens.append(_Token("op", "-", i))
            i += 1
            continue
        if c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

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
                f"expected {kind}, found {tok.text or 'end of input'!r}", tok.pos
            )
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = _binop(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = _binop(op, node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return _neg(self.factor())
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = _binop("^", node, self.factor())
        return node

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return Num(tok.value)
        if tok.kind == "name":
            if tok.text == "s":
                return Var()
            if tok.text == "pi":
                return Num(math.pi)
            if tok.text in _FUNCTIONS:
                self.expect("lparen")
                arg = self.expr()
                self.expect("rparen")
                return Call(tok.text, arg)
            raise ExpressionError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "lparen":
            node = self.expr()
            self.expect("rparen")
            return node
        raise ExpressionError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )


def parse(text: str):
    """Parse expression text into an AST; raises ExpressionError on bad input."""
    if not text or not text.strip():
        raise ExpressionError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation


def _eval(node, s):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return s
    if isinstance(node, Neg):
        return -_eval(node.child, s)
    if isinstance(node, BinOp):
        a = _eval(node.left, s)
        b = _eval(node.right, s)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if np.any(b == 0.0):
                raise EvalDomainError(f"division by zero in {to_text(node)!r}")
            return a / b
        if node.op == "^":
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.power(np.asarray(a, dtype=float), b)
            if np.any(np.isnan(out)) and not np.any(np.isnan(a)):
                raise EvalDomainError(
                    f"fractional power of a negative base in {to_text(node)!r}"
                )
            return out if np.ndim(s) else float(out)
        raise AssertionError(node.op)
    if isinstance(node, Call):
        a = _eval(node.arg, s)
        if node.fn == "sin":
            return np.sin(a)
        if node.fn == "cos":
            return np.cos(a)
        if node.fn == "tan":
            return np.tan(a)
        if node.fn == "exp":
            return np.exp(a)
        if node.fn == "log":
            if np.any(np.asarray(a) <= 0.0):
                raise EvalDomainError("log of a non-positive argument")
            return np.log(a)
        if node.fn == "sqrt":
            if np.any(np.asarray(a) < 0.0):
                raise EvalDomainError("sqrt of a negative argument")
            return np.sqrt(a)
        if node.fn == "abs":
            return np.abs(a)
        raise AssertionError(node.fn)
    raise AssertionError(type(node))


# ---------------------------------------------------------------------------
# Symbolic differentiation


def _diff(node):
    if isinstance(node, (Num,)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        return _neg(_diff(node.child))
    if isinstance(node, BinOp):
        u, v = node.left, node.right
        du, dv = _diff(u), _diff(v)
        if node.op in "+-":
            return _binop(node.op, du, dv)
        if node.op == "*":
            return _binop("+", _binop("*", du, v), _binop("*", u, dv))
        if node.op == "/":
            num = _binop("-", _binop("*", du, v), _binop("*", u, dv))
            return _binop("/", num, _binop("^", v, Num(2.0)))
        if node.op == "^":
            if _is_num(v):
                c = v.value
                return _binop(
                    "*",
                    _binop("*", Num(c), _binop("^", u, Num(c - 1.0))),
                    du,
                )
            # general u^v = exp(v log u)
            term1 = _binop("*", dv, Call("log", u))
            term2 = _binop("/", _binop("*", v, du), u)
            return _binop("*", node, _binop("+", term1, term2))
        raise AssertionError(node.op)
    if isinstance(node, Call):
        u, du = node.arg, _diff(node.arg)
        if node.fn == "sin":
            outer = Call("cos", u)
        elif node.fn == "cos":
            outer = _neg(Call("sin", u))
        elif node.fn == "tan":
            outer = _binop("+", Num(1.0), _binop("^", Call("tan", u), Num(2.0)))
        elif node.fn == "exp":
            outer = Call("exp", u)
        elif node.fn == "log":
            outer = _binop("/", Num(1.0), u)
        elif node.fn == "sqrt":
            outer = _binop("/", Num(0.5), Call("sqrt", u))
        elif node.fn == "abs":
            outer = _binop("/", u, Call("abs", u))
        else:
            raise AssertionError(node.fn)
        return _binop("*", outer, du)
    raise AssertionError(type(node))


# ---------------------------------------------------------------------------
# Pretty printer (re-parseable output)

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PRECEDENCE = 3  # between '*' and '^'


def _fmt(node, parent_prec=0):
    if isinstance(node, Num):
        if node.value < 0:
            text = repr(-node.value)
            return f"(-{text})" if parent_prec > 0 else f"-{text}"
        return repr(node.value)
    if isinstance(node, Var):
        return "s"
    if isinstance(node, Neg):
        inner = _fmt(node.child, _NEG_PRECEDENCE)
        text = f"-{inner}"
        return f"({text})" if parent_prec >= _NEG_PRECEDENCE else text
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        left = _fmt(node.left, prec if node.op != "^" else prec + 1)
        right = _fmt(node.right, prec + 1 if node.op in "-/" else prec)
        text = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Call):
        return f"{node.fn}({_fmt(node.arg, 0)})"
    raise AssertionError(type(node))


def to_text(node) -> str:
    """Render an AST back to parseable text."""
    return _fmt(node, 0)


# ---------------------------------------------------------------------------
# Public function object


@dataclass
class ScalarFn:
    """A parsed scalar function of ``s`` with cached exact derivatives.

    Callable on floats and numpy arrays; ``derivative(order)`` returns a new
    ScalarFn for orders up to 3.
    """

    ast: object
    _derivatives: dict = field(default_factory=dict, repr=False)

    @classmethod
    def parse(cls, text: str) -> "ScalarFn":
        return cls(parse(text))

    @classmethod
    def constant(cls, value: float) -> "ScalarFn":
        return cls(Num(float(value)))

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        # overflow and the like yield inf/nan, which the callers' finiteness
        # checks report as one error; numpy's warnings would add stderr lines
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = _eval(self.ast, arr if arr.ndim else float(arr))
        if arr.ndim and np.ndim(out) == 0:
            out = np.full(arr.shape, float(out))
        return out

    def derivative(self, order: int = 1) -> "ScalarFn":
        if not 1 <= order <= 3:
            raise ValueError("derivative order must be between 1 and 3")
        if order not in self._derivatives:
            base = self if order == 1 else self.derivative(order - 1)
            self._derivatives[order] = ScalarFn(_diff(base.ast))
        return self._derivatives[order]

    def text(self) -> str:
        return to_text(self.ast)
