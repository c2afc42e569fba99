import math

import numpy as np
import pytest

from h1curves import HorizontalCurve, ParamCurve, reparam_horizontal
from h1curves.bertrand import BertrandSpec, bertrand_mate
from h1curves.numerics import (MAX_PANELS, cumulative_simpson, golden_section, panel_count,
                               step_grid)

LINE = ParamCurve.from_fields("s", "0", "0", (0.0, 1.0))


class TestGoldenSection:
    def test_random_brackets_find_closed_form_minimizer(self, rng):
        a = rng.uniform(-5.0, 5.0, size=(50, 4))
        b = a + rng.uniform(1e-3, 2.0, size=a.shape)
        c = rng.uniform(a, b)
        tol = 1e-10
        x, fx = golden_section(lambda t: np.abs(t - c), a, b, tol=tol)
        assert x.shape == a.shape
        assert np.max(np.abs(x - c)) < tol
        assert np.array_equal(fx, np.abs(x - c))

    def test_repeated_calls_are_bit_identical(self, rng):
        a = rng.uniform(-1.0, 1.0, size=(20, 3))
        b = a + rng.uniform(0.1, 1.0, size=a.shape)

        def f(t):
            return np.cos(3.0 * t) + 0.1 * t * t

        first = golden_section(f, a, b, tol=1e-9)
        second = golden_section(f, a, b, tol=1e-9)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_fixed_call_count_from_widest_bracket(self):
        calls = []

        def f(t):
            calls.append(t.shape)
            return t * t

        a = np.array([-1.0, -0.5, 0.0])
        b = np.array([1.0, 0.5, 1e-3])
        golden_section(f, a, b, tol=1e-8)
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        n_iter = math.ceil(math.log(1e-8 / 2.0) / math.log(inv_phi))
        # two interior points, one call per iteration, one at the midpoint
        assert len(calls) == n_iter + 3
        assert all(shape == (3,) for shape in calls)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError, match="tol"):
            golden_section(np.abs, np.zeros(2), np.ones(2), tol=0.0)


class TestPanelCount:
    def test_ceil_with_minimum(self):
        assert panel_count(1.0, 0.3) == 4
        assert panel_count(1e-9, 1.0) == 2
        assert panel_count(1.0, 0.5, minimum=64) == 64

    @pytest.mark.parametrize("step,nodes", [(1e-3, 1001), (0.3, 5), (0.5, 5), (10.0, 5)])
    def test_step_grid_has_at_least_four_panels(self, step, nodes):
        grid = step_grid(-0.25, 0.75, step)
        assert grid.size == nodes
        assert (grid[0], grid[-1]) == (-0.25, 0.75)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan])
    @pytest.mark.parametrize("build", [
        lambda step: step_grid(0.0, 1.0, step),
        lambda step: reparam_horizontal(LINE, step=step),
        lambda step: bertrand_mate(HorizontalCurve.arc_length(LINE), BertrandSpec(0.0, 0.0, g="0"),
                                   step=step),
    ], ids=["step_grid", "reparam_horizontal", "bertrand_mate"])
    def test_step_that_is_not_positive_and_finite_is_refused(self, build, step):
        # not a ZeroDivisionError, nor the fewest panels for a negative step
        with pytest.raises(ValueError, match=f"^step must be positive and finite, got {step}$"):
            build(step)

    def test_exact_budget_is_allowed(self):
        assert panel_count(float(MAX_PANELS), 1.0) == MAX_PANELS

    @pytest.mark.parametrize("span,step", [
        (1e9, 1e-3), (MAX_PANELS + 1.0, 1.0), (1.0, 1e-300), (math.inf, 1.0),
    ])
    def test_over_budget_names_the_request(self, span, step):
        with pytest.raises(ValueError, match="panels requested") as err:
            panel_count(span, step)
        assert str(MAX_PANELS) in str(err.value)


class TestCumulativeSimpson:
    @pytest.mark.parametrize("panels", [2, 3, 4, 7, 10, 31])
    def test_exact_on_quadratics_at_every_node(self, rng, panels):
        a, b, c = rng.uniform(-2.0, 2.0, 3)
        x = np.linspace(-0.4, 1.3, panels + 1)
        out = cumulative_simpson(a + b * x + c * x * x, dx=1.7 / panels)
        exact = a * (x + 0.4) + b / 2 * (x * x - 0.16) + c / 3 * (x**3 + 0.064)
        assert out[0] == 0.0
        assert np.max(np.abs(out - exact)) < 1e-14

    @pytest.mark.parametrize("panels", [2, 3, 4, 7, 10, 31])
    def test_cubics_exact_at_even_nodes_one_interval_error_at_odd(self, panels):
        # an even/odd interval pair is composite Simpson; an odd node adds
        # the error of one three-point interval, dx^4 y'''/24, with the sign
        # of the interval's side (the last interval is taken from the right)
        dx = 0.3
        x = dx * np.arange(panels + 1)
        out = cumulative_simpson(x**3, dx=dx)
        one_interval = 6.0 * dx**4 / 24.0
        expected = np.zeros_like(x)
        expected[1::2] = -one_interval
        if panels % 2:
            expected[-1] = one_interval
        assert np.max(np.abs(out - x**4 / 4 - expected)) < 1e-14 * (1.0 + x[-1] ** 4)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            cumulative_simpson(np.ones(2), dx=0.1)
