import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from h1curves.expressions import (
    _MAX_DEPTH,
    BinOp,
    Call,
    EvalDomainError,
    ExpressionError,
    Neg,
    Num,
    ScalarFn,
    Var,
    _children,
    _depth,
    parse,
    to_text,
)

SAFE_S = st.floats(min_value=0.1, max_value=4.0, allow_nan=False)


class TestParse:
    def test_shape_of_simple_expression(self):
        ast = parse("2*sin(s)+1")
        assert isinstance(ast, BinOp) and ast.op == "+"
        assert isinstance(ast.left, BinOp) and ast.left.op == "*"
        assert isinstance(ast.left.right, Call) and ast.left.right.fn == "sin"
        assert ast.right == Num(1.0)

    def test_unary_minus_binds_looser_than_power(self):
        # -s^2 is -(s^2), not (-s)^2
        ast = parse("-s^2")
        assert isinstance(ast, Neg)
        assert isinstance(ast.child, BinOp) and ast.child.op == "^"
        fn = ScalarFn(ast)
        assert fn(3.0) == -9.0

    def test_power_right_associative(self):
        assert ScalarFn.parse("2^3^2")(0.0) == 512.0

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError, match="unknown identifier 'q'"):
            parse("sin(q)")

    def test_error_carries_offset(self):
        with pytest.raises(ExpressionError) as err:
            parse("1 + @")
        assert err.value.offset == 4

    def test_empty_input(self):
        with pytest.raises(ExpressionError):
            parse("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse("1 + 2)")

    def test_unicode_minus_accepted(self):
        assert ScalarFn.parse("−s")(2.0) == -2.0

    # the groupings precedence climbing must keep: '-' and '/' to the left,
    # '^' to the right, unary minus between '*' and '^'
    @pytest.mark.parametrize("text,ast", [
        ("s-2-3", BinOp("-", BinOp("-", Var(), Num(2.0)), Num(3.0))),
        ("s/2/3", BinOp("/", BinOp("/", Var(), Num(2.0)), Num(3.0))),
        ("2^3^s", BinOp("^", Num(2.0), BinOp("^", Num(3.0), Var()))),
        ("2^-s^2", BinOp("^", Num(2.0), Neg(BinOp("^", Var(), Num(2.0))))),
        ("-s*2", BinOp("*", Neg(Var()), Num(2.0))),
        ("s*-2", BinOp("*", Var(), Num(-2.0))),
        ("s*−2", BinOp("*", Var(), Num(-2.0))),
        ("−s^2", Neg(BinOp("^", Var(), Num(2.0)))),
    ])
    def test_shape(self, text, ast):
        assert parse(text) == ast


class TestEval:
    def test_square(self):
        assert ScalarFn.parse("s^2")(3.0) == 9.0

    def test_pi(self):
        assert ScalarFn.parse("pi")(12.0) == math.pi

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            ScalarFn.parse("1/s")(0.0)

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            ScalarFn.parse("log(s)")(-1.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            ScalarFn.parse("sqrt(s)")(-0.5)

    def test_folded_constant_has_the_domain_of_evaluation(self):
        with pytest.raises(EvalDomainError, match="fractional power of a negative base"):
            parse("(-8)^(1/3)")
        with pytest.raises(EvalDomainError):
            ScalarFn.parse("s^(1/3)")(-8.0)
        # zero to a negative power overflows to inf, as np.power gives it
        assert parse("0^(-1)") == Num(float("inf"))

    def test_vectorized(self):
        s = np.linspace(0, 1, 7)
        out = ScalarFn.parse("2*s + 1")(s)
        assert np.allclose(out, 2 * s + 1)

    def test_constant_broadcasts(self):
        out = ScalarFn.parse("3")(np.zeros(5))
        assert out.shape == (5,) and np.all(out == 3.0)

    def test_precedence(self):
        assert ScalarFn.parse("1 + 2*3^2")(0.0) == 19.0

    def test_boolean_is_no_operand(self):
        # Python counts True as the number 1; a tree does not
        f = ScalarFn.parse("s")
        assert f.__add__(True) is NotImplemented
        assert f.__rmul__(False) is NotImplemented
        with pytest.raises(TypeError):
            f + True


GOLDEN = [
    "sin(s)",
    "cos(2*s)",
    "tan(s/2)",
    "exp(-s)",
    "log(s + 2)",
    "sqrt(s + 1)",
    "s^3 - 2*s + 1",
    "1/(s + 1)",
    "s^2*sin(s)",
    "exp(s)*cos(s)",
    "2 + sin(s)",
    "sin(s)^2 + cos(s)^2",
    "s/(1 + s^2)",
    "sqrt(s^2 + 1)",
    "log(exp(s))",
    "-s^2 + 3*s",
    "abs(s - 1)*(s - 1)",
    "sin(cos(s))",
    "exp(sin(2*s))",
    "(s + 1)^2.5",
    "pi*s",
    "s^(-1)",
    "cos(s)/(2 + sin(s))",
    "tan(s)/s",
    "sqrt(2)*s",
    "3.5e-1*s^2",
    "exp(s/3) - s",
    "log(1 + s^2)",
    "s*s*s",
    "1 - 2^(-s)",
]


def central_diff(fn, s, h=1e-5):
    return (fn(s + h) - fn(s - h)) / (2 * h)


class TestDifferentiate:
    def test_sin_derivative_is_cos(self):
        d = ScalarFn.parse("sin(s)").derivative()
        assert abs(d(0.7) - math.cos(0.7)) < 1e-10

    def test_second_derivative_of_cubic(self):
        d2 = ScalarFn.parse("s^3").derivative(2)
        assert d2(2.0) == pytest.approx(12.0, abs=1e-12)

    def test_constant_derivative_vanishes(self):
        d = ScalarFn.parse("41.5").derivative()
        assert np.all(d(np.linspace(-5, 5, 11)) == 0.0)

    def test_order_limits(self):
        fn = ScalarFn.parse("s")
        with pytest.raises(ValueError):
            fn.derivative(0)
        with pytest.raises(ValueError):
            fn.derivative(4)

    @pytest.mark.parametrize("text", GOLDEN)
    def test_golden_against_finite_differences(self, text):
        fn = ScalarFn.parse(text)
        d = fn.derivative()
        for s in (0.3, 0.9, 1.7, 2.6):
            expected = central_diff(fn, s)
            got = d(s)
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("text", ["sin(2*s)", "s^4", "exp(-s)*s"])
    def test_third_order(self, text):
        fn = ScalarFn.parse(text)
        d2 = fn.derivative(2)
        d3 = fn.derivative(3)
        for s in (0.5, 1.3):
            assert d3(s) == pytest.approx(central_diff(d2, s), rel=1e-5, abs=1e-5)


class TestSharedSubtrees:
    """Evaluation and differentiation walk a tree's distinct nodes, not the
    paths through them: a derivative uses its operand many times over."""

    @staticmethod
    def operator_nodes(node) -> int:
        """The number of distinct BinOp and Call nodes of a tree, by identity."""
        seen, stack = {}, [node]
        while stack:
            n = stack.pop()
            if id(n) not in seen:
                seen[id(n)] = n
                stack.extend(_children(n))
        return sum(isinstance(n, (BinOp, Call)) for n in seen.values())

    def test_each_operator_of_a_third_derivative_applies_once(self, monkeypatch):
        # the third derivative of 8 chained quotients calls a kernel about
        # 10 000 times along its unfolded paths, 361 times once per node
        from h1curves import expressions

        d3 = ScalarFn.parse("/".join(["(s+2)"] * 8)).derivative(3)
        calls = []
        apply = expressions._apply

        def counting(name, node, *values):
            calls.append(name)
            return apply(name, node, *values)

        monkeypatch.setattr(expressions, "_apply", counting)
        d3(np.linspace(0.0, 1.0, 11))
        assert 0 < len(calls) <= self.operator_nodes(d3.ast)


_COEF = st.floats(min_value=-3, max_value=3, allow_nan=False).map(lambda v: round(v, 4))
_FREQ = st.floats(min_value=0.2, max_value=2.0, allow_nan=False).map(lambda v: round(v, 4))


@st.composite
def smooth_expressions(draw):
    """Random singularity-free expression built from trig/exp/poly atoms."""
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["sin", "cos", "poly", "exp"]))
        a, w = draw(_COEF), draw(_FREQ)
        if kind == "poly":
            atoms.append(f"{a}*s^{draw(st.integers(1, 3))}")
        elif kind == "exp":
            atoms.append(f"{a}*exp({round(-abs(w), 4)}*s)")
        else:
            atoms.append(f"{a}*{kind}({w}*s + {draw(_COEF)})")
    return " + ".join(atoms)


class TestRandomSmoothDerivatives:
    @given(smooth_expressions(), SAFE_S)
    def test_derivative_matches_central_differences(self, text, s):
        fn = ScalarFn.parse(text)
        d = fn.derivative()
        oracle = central_diff(fn, s)
        assert d(s) == pytest.approx(oracle, rel=1e-6, abs=1e-6)


class TestRoundTrip:
    @pytest.mark.parametrize("text", GOLDEN)
    def test_pretty_print_reparses_identically(self, text):
        ast = parse(text)
        again = parse(to_text(ast))
        fn1, fn2 = ScalarFn(ast), ScalarFn(again)
        s = np.linspace(0.05, 3.0, 100)
        assert np.max(np.abs(fn1(s) - fn2(s))) < 1e-12

    @given(SAFE_S)
    def test_derivative_text_round_trip(self, s):
        d = ScalarFn.parse("s^2*sin(s) - cos(2*s)/(s + 1)").derivative()
        again = ScalarFn.parse(to_text(d.ast))
        assert again(s) == pytest.approx(d(s), rel=1e-12, abs=1e-12)


# texts of a given depth: nesting for the first three, tree depth for the sum
DEEP_TEXTS = {
    "parentheses": lambda k: "(" * (k - 1) + "s" + ")" * (k - 1),
    "sin": lambda k: "sin(" * (k - 1) + "s" + ")" * (k - 1),
    "minus": lambda k: "-" * (k - 1) + "s",
    "sum": lambda k: "+".join(["s"] * k),
}


class TestDepthBound:
    @pytest.mark.parametrize("shape", DEEP_TEXTS)
    def test_at_the_bound_parses_evaluates_and_differentiates(self, shape):
        f = ScalarFn.parse(DEEP_TEXTS[shape](_MAX_DEPTH))
        assert np.isfinite(f(0.5)) and np.isfinite(f.derivative(3)(0.5))
        assert parse(to_text(f.ast)) == f.ast

    @pytest.mark.parametrize("shape", DEEP_TEXTS)
    def test_one_past_the_bound_is_refused(self, shape):
        with pytest.raises(ExpressionError, match="deeper than 50 levels"):
            parse(DEEP_TEXTS[shape](_MAX_DEPTH + 1))

    def test_deepest_third_derivative_fits_the_recursion_limit(self):
        # ((s^s)^s)^... deepens fastest under differentiation: each level adds
        # 13 to its third derivative, 633 deep at the bound, where it also
        # evaluates.  Evaluating or printing a tree takes one frame per level.
        def third(levels):
            text = "s"
            for _ in range(levels - 1):
                text = f"({text})^s"
            f = ScalarFn.parse(text)
            assert _depth(f.ast) == levels
            return f.derivative(3)

        assert _depth(third(20).ast) - _depth(third(19).ast) == 13
        assert _depth(third(20).ast) <= 13 * 20
        deepest = third(_MAX_DEPTH)
        assert _depth(deepest.ast) == 633 and np.isfinite(deepest(0.5))
        assert 13 * _MAX_DEPTH + 300 < sys.getrecursionlimit()
