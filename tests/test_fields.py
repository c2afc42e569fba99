import numpy as np
import pytest

from h1curves.expressions import Leaf, S, ScalarFn, to_text
from h1curves.fields import (
    CubicHermite,
    SampledField,
    antiderivative,
    as_field,
    local_slopes,
)
from h1curves.numerics import cumulative_simpson

from conftest import RecordingField


def cubic(s):
    return 0.7 - 1.3 * s + 0.4 * s**2 - 0.25 * s**3


def cubic_slope(s):
    return -1.3 + 0.8 * s - 0.75 * s**2


def jittered_nodes(rng, lo, hi, n):
    """Strictly increasing nodes on [lo, hi], spacing varying by a factor
    of about three."""
    steps = rng.uniform(0.5, 1.5, n - 1)
    return lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(steps) / steps.sum()])


def hermite_with_local_slopes(nodes, values):
    return CubicHermite(nodes, values, local_slopes(nodes, values))


# queries inside the nodes [-0.5, 2.5] and a few node spacings beyond; far
# out, extrapolation amplifies the roundoff of the cubic coefficients
QUERIES = np.linspace(-0.7, 2.7, 341)


class TestCubicHermite:
    def test_exact_slopes_reproduce_a_cubic(self, rng):
        x = jittered_nodes(rng, -0.5, 2.5, 9)
        f = CubicHermite(x, cubic(x), cubic_slope(x))
        assert np.max(np.abs(f(QUERIES) - cubic(QUERIES))) < 1e-12
        assert f(1.1) == pytest.approx(cubic(1.1), abs=1e-14)

    def test_local_slopes_are_exact_on_cubics(self, rng):
        x = jittered_nodes(rng, -0.5, 2.5, 12)
        assert np.max(np.abs(local_slopes(x, cubic(x)) - cubic_slope(x))) < 1e-12
        assert np.max(np.abs(local_slopes(x[:4], cubic(x[:4])) - cubic_slope(x[:4]))) < 1e-12
        with pytest.raises(ValueError, match="at least 4"):
            local_slopes(x[:3], cubic(x[:3]))

    def test_sampled_field_reproduces_a_cubic(self):
        grid = np.linspace(-0.5, 2.5, 31)
        f = SampledField(grid, cubic(grid))
        assert np.max(np.abs(f(QUERIES) - cubic(QUERIES))) < 1e-12

    def test_resample_of_nonuniform_nodes_reproduces_a_cubic(self, rng):
        x = jittered_nodes(rng, -0.5, 2.5, 20)
        f = SampledField.resample(x, cubic(x))  # onto max(20, 64) = 64 nodes
        assert np.max(np.abs(f.values - cubic(f.grid))) < 1e-12
        assert np.max(np.abs(f(QUERIES) - cubic(QUERIES))) < 1e-12

    def test_local_slopes_reproduce_a_cubic_on_jittered_nodes(self, rng):
        x = jittered_nodes(rng, -0.5, 2.5, 15)
        f = hermite_with_local_slopes(x, cubic(x))
        assert np.max(np.abs(f(QUERIES) - cubic(QUERIES))) < 1e-12

    @pytest.mark.parametrize("field", [SampledField, hermite_with_local_slopes])
    def test_error_falls_by_h4_on_a_smooth_function(self, rng, field):
        s = np.linspace(0.0, 3.0, 2001)
        if field is SampledField:
            x = np.linspace(0.0, 3.0, 17)
        else:
            x = jittered_nodes(rng, 0.0, 3.0, 17)
        errors = []
        for _ in range(4):
            f = field(x, np.sin(2.0 * x))
            errors.append(np.max(np.abs(f(s) - np.sin(2.0 * s))))
            x = np.sort(np.concatenate([x, 0.5 * (x[:-1] + x[1:])]))  # halve h
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all(ratios >= 12.0), ratios


class TestAntiderivative:
    def test_constant_integrand_is_exactly_affine(self):
        f = antiderivative(as_field(2.0), np.linspace(0.5, 3.0, 5), const=0.25)
        assert isinstance(f, ScalarFn)
        s = np.linspace(0.5, 3.0, 7)
        assert np.array_equal(f(s), 0.25 + 2.0 * (s - 0.5))
        assert f.derivative()(1.7) == 2.0

    def test_integrand_values_are_the_hermite_slopes(self):
        integrand = 1.0 - 0.6 * S
        f = antiderivative(integrand, np.linspace(-1.0, 2.0, 9))
        assert isinstance(f.ast, Leaf) and isinstance(f.ast.field, CubicHermite)
        # a quadratic antiderivative, exact at the Simpson nodes of the 8
        # panels and with exact slopes, is reproduced between them too
        s = np.linspace(-1.0, 2.0, 97)
        exact = (s + 1.0) - 0.3 * (s * s - 1.0)
        assert np.max(np.abs(f(s) - exact)) < 1e-14

    def test_integrates_on_the_callers_grid_of_odd_panel_count(self):
        # 7 panels: the values at the 8 nodes are composite Simpson's over
        # those nodes and their midpoints, 15 points, plus the constant
        grid = np.linspace(0.3, 2.0, 8)
        integrand = as_field("(1 + s)*cos(s)")
        f = antiderivative(integrand, grid, const=0.4)
        fine = np.linspace(0.3, 2.0, 15)
        nodes = 0.4 + cumulative_simpson(integrand(fine), (2.0 - 0.3) / 14)[::2]
        assert np.max(np.abs(f(grid) - nodes)) <= 1e-15
        assert np.array_equal(f(grid[:-1]), nodes[:-1])


class TestFieldTrees:
    """Arithmetic over numbers, S and numeric leaves builds ScalarFn trees."""

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_is_no_field(self, value):
        with pytest.raises(TypeError, match="cannot interpret"):
            as_field(value)

    def test_sampled_leaf_values_and_derivative(self):
        grid = np.linspace(0.0, 3.0, 301)
        leaf = SampledField(grid, np.sin(grid))
        f = 2.5 * as_field(leaf) - 0.75
        assert isinstance(f, ScalarFn)
        s = np.linspace(0.1, 2.9, 57)
        assert np.array_equal(f(s), 2.5 * leaf(s) - 0.75)
        assert f(1.3) == 2.5 * leaf(1.3) - 0.75
        assert np.array_equal(f.derivative()(s), 2.5 * leaf.derivative()(s))
        # each derivative is the tree the leaf's own derivative gives
        assert np.array_equal(f.derivative(2)(s), 2.5 * leaf.derivative().derivative()(s))
        # refused while the tree is built, before anything is evaluated
        with pytest.raises(NotImplementedError, match="two derivative orders"):
            f.derivative(3)

    def test_leaf_on_either_side_of_an_operator(self):
        grid = np.linspace(0.0, 3.0, 301)
        leaf = SampledField(grid, np.cos(grid))
        s = np.linspace(0.1, 2.9, 57)
        assert np.array_equal((S * leaf)(s), s * leaf(s))
        assert np.array_equal((leaf - S)(s), leaf(s) - s)

    def test_a_shared_leaf_is_evaluated_once_per_call(self):
        leaf = RecordingField()
        f = as_field(leaf)
        g = (f * f + f.apply("sin")) / (2.0 + f)
        g(np.linspace(0.0, 1.0, 5))
        assert leaf.calls == 1
        g(0.5)
        assert leaf.calls == 2

    def test_derivative_of_an_antiderivative_is_its_integrand_tree(self):
        integrand = as_field("1 + s^2") * S.apply("cos")
        f = antiderivative(integrand, np.linspace(0.0, 2.0, 101))
        assert isinstance(f.ast, Leaf)
        assert f.derivative().ast is integrand.ast
        s = np.linspace(0.0, 2.0, 41)
        assert np.array_equal(f.derivative()(s), integrand(s))

    def test_antiderivative_of_a_constant_has_no_leaf(self):
        f = antiderivative(3.0 - 1.0, np.linspace(-1.0, 2.0, 3), const=0.5)
        # a tree with a leaf has no text form that parses back
        assert ScalarFn.parse(to_text(f.ast)).ast == f.ast
        s = np.linspace(-1.0, 2.0, 13)
        assert np.array_equal(f(s), (0.5 - 2.0 * -1.0) + 2.0 * s)

    @pytest.mark.parametrize("scalar", [np.float64(2.0), np.int64(2), np.float32(2.0)])
    def test_numpy_scalars_build_trees(self, scalar):
        s = np.linspace(0.0, 1.0, 5)
        for f in (scalar * S, S * scalar, scalar + S, scalar - S, scalar / (S + 1.0),
                  S ** scalar):
            assert isinstance(f, ScalarFn)
        assert np.array_equal((scalar * S)(s), 2.0 * s)
        assert np.array_equal((scalar - S)(s), 2.0 - s)
