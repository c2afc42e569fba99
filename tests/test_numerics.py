import math

import numpy as np
import pytest

from h1curves.numerics import MAX_PANELS, golden_section, panel_count


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

    def test_exact_budget_is_allowed(self):
        assert panel_count(float(MAX_PANELS), 1.0) == MAX_PANELS

    @pytest.mark.parametrize("span,step", [
        (1e9, 1e-3), (MAX_PANELS + 1.0, 1.0), (1.0, 1e-300), (math.inf, 1.0),
    ])
    def test_over_budget_names_the_request(self, span, step):
        with pytest.raises(ValueError, match="panels requested") as err:
            panel_count(span, step)
        assert str(MAX_PANELS) in str(err.value)
