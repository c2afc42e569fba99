import math

import numpy as np
import pytest

from h1curves import HorizontalCurve, ParamCurve, reparam_horizontal
from h1curves.bertrand import BertrandSpec, bertrand_mate
from h1curves import numerics
from h1curves.numerics import (MAX_PANELS, cumulative_simpson, golden_section, minimize_brackets,
                               panel_count, step_grid)

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

    def test_returns_the_lowest_value_it_evaluated(self, rng):
        # a kink: the final midpoint often lies above an earlier evaluation
        a = rng.uniform(-1.0, 1.0, size=1000)
        b = a + rng.uniform(1e-3, 1.0, size=a.shape)
        c = rng.uniform(a, b)
        seen = []
        x, fx = golden_section(lambda t: seen.append(np.abs(t - c)) or seen[-1], a, b, tol=1e-6)
        assert np.all(fx <= np.min(seen, axis=0))
        assert np.array_equal(fx, np.abs(x - c))

    def test_nan_value_is_returned_only_where_every_one_is_nan(self, rng):
        a = rng.uniform(-1.0, 1.0, size=200)
        b = a + rng.uniform(1e-3, 1.0, size=a.shape)
        c = rng.uniform(a, b)
        seen = []
        nan_right = lambda t: seen.append(np.where(t > c, np.nan, c - t)) or seen[-1]
        _, fx = golden_section(nan_right, a, b, tol=1e-6)
        # np.sort puts NaN last
        assert np.array_equal(fx, np.sort(seen, axis=0)[0], equal_nan=True)
        assert np.isnan(fx).any() and not np.isnan(fx).all()

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


class TestMinimizeBrackets:
    @staticmethod
    def minimize(f, a, b, monkeypatch, steps=8):
        """minimize_brackets of f(t, i) (t in brackets i) on [a, b], the ends
        known; returns (x, f(x), golden_section calls, f's calls)."""
        golden, calls = [], []
        original = numerics.golden_section
        monkeypatch.setattr(numerics, "golden_section",
                            lambda *args, **kw: golden.append(args) or original(*args, **kw))

        def objective(t, i):
            calls.append(np.size(t))
            return f(t, i)

        ends = np.stack([a, b])
        x, fx = minimize_brackets(objective, a, b, (ends, f(ends, np.arange(a.size))),
                                  tol=1e-12, steps=steps, roundoff=lambda v: 1e-15 * np.abs(v))
        return x, fx, golden, calls

    def test_minimum_at_a_bracket_end_is_found_exactly(self, rng, monkeypatch):
        # exp is increasing and -exp decreasing: each parabola's vertex is
        # clipped onto the known end, which no call evaluates again
        a = rng.uniform(-2.0, 2.0, size=30)
        b = a + rng.uniform(1e-3, 1.0, size=a.shape)
        for sign, end in ((1.0, a), (-1.0, b)):
            x, fx, golden, _ = self.minimize(lambda t, i: sign * np.exp(t), a, b, monkeypatch)
            assert np.array_equal(x, end)
            assert np.array_equal(fx, sign * np.exp(end))
            assert golden == []

    def test_smooth_bracket_settles_without_golden_section(self, rng, monkeypatch):
        c = rng.uniform(-1.0, 1.0, size=40)
        a, b = c - rng.uniform(0.01, 0.3, size=c.shape), c + rng.uniform(0.01, 0.3, size=c.shape)
        x, fx, golden, calls = self.minimize(lambda t, i: (t - c[i]) ** 2 * (1.0 + t - c[i]),
                                             a, b, monkeypatch)
        assert golden == []
        assert np.max(np.abs(x - c)) < 1e-12
        # the golden-section points, at most 8 steps, the certificate
        assert len(calls) <= 1 + 8 + 1 and calls[0] == calls[-1] == 2 * c.size

    def test_kink_falls_back_to_golden_section(self, rng, monkeypatch):
        c = rng.uniform(-1.0, 1.0, size=10)
        a, b = c - rng.uniform(0.1, 0.3, size=c.shape), c + rng.uniform(0.1, 0.3, size=c.shape)
        x, fx, golden, _ = self.minimize(lambda t, i: np.abs(t - c[i]), a, b, monkeypatch,
                                         steps=2)
        assert len(golden) == 1
        assert np.max(np.abs(x - c)) < 1e-12


class TestPanelCount:
    def test_ceil_with_minimum(self):
        assert panel_count(1.0, 0.3) == 4
        assert panel_count(1e-9, 1.0) == 2
        assert panel_count(1.0, 0.5, minimum=64) == 64

    @pytest.mark.parametrize("span,step,panels", [
        (4.4 - 0.1, 0.1, 43),  # 43.00000000000001
        (6.000000000000338, 1e-3, 6000),
        (5.999999999999394, 1e-3, 6000),
        (1.0 + 2e-8, 0.1, 11),  # past a whole number by more than RELATIVE_ZERO
    ])
    def test_rounding_sliver_is_no_panel(self, span, step, panels):
        assert panel_count(span, step) == panels

    def test_step_grid_ignores_a_rounding_sliver(self):
        grid = step_grid(0.1, 4.4, 0.1)
        assert grid.size == 44
        assert (grid[0], grid[-1]) == (0.1, 4.4)

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
        (1e9, 1e-3), (MAX_PANELS + 1.0, 1.0), (1.0, 1e-300),
    ])
    def test_over_budget_names_the_request(self, span, step):
        with pytest.raises(ValueError, match="panels requested") as err:
            panel_count(span, step)
        assert str(MAX_PANELS) in str(err.value)

    @pytest.mark.parametrize("span", [math.nan, math.inf, -math.inf])
    def test_span_that_is_not_finite_is_named(self, span):
        # not blamed on the panel budget, which a NaN span exceeds nothing of
        with pytest.raises(ValueError, match=f"^grid span must be finite, got {span}$"):
            panel_count(span, 1.0)


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

    @pytest.mark.parametrize("value,panels", [(2.0, 10_000), (-0.7, 7), (1e-300, 31)])
    def test_constant_samples_give_whole_multiples_of_one_piece(self, value, panels):
        # a running sum of the equal pieces drifts: 2 on 10 000 panels of
        # [0, 3] ends 9.6e-13 off 6
        dx = 3.0 / panels
        out = cumulative_simpson(np.full(panels + 1, value), dx=dx)
        piece = dx / 3.0 * (1.25 * value + 2.0 * value - 0.25 * value)
        assert out[0] == 0.0
        assert np.array_equal(out, np.arange(panels + 1) * piece)

    @pytest.mark.parametrize("samples", [
        [1.0, np.nan, 1.0, 1.0, 1.0], [np.nan] * 5, [2.0, 2.0, np.inf, 2.0, 2.0], [np.inf] * 5,
        [-np.inf] * 5,
    ], ids=["nan", "all-nan", "inf", "all-inf", "all-minus-inf"])
    def test_samples_that_are_not_finite_give_values_that_are_not(self, samples):
        # under the errstate its callers hold (frenet._cascade,
        # fields.antiderivative), which then refuse the values at their s
        with np.errstate(over="ignore", invalid="ignore"):
            out = cumulative_simpson(np.array(samples), dx=0.1)
        assert out[0] == 0.0
        assert not np.any(np.isfinite(out[1:]))

    def test_needs_three_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            cumulative_simpson(np.ones(2), dx=0.1)
