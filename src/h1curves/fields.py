"""Scalar fields over one parameter s: one composite type, numeric leaves.

A "field" is anything callable on floats/arrays that also offers
``derivative() -> field``.  ``expressions.ScalarFn`` is the only composite
field: parsed text, or arithmetic over numbers, ``expressions.S`` and
numeric fields, with exact symbolic derivatives wherever the tree has them.
This module holds the numeric fields that enter such trees as leaves:
``SampledField`` (values on a uniform grid), ``InterpolatedField`` (values
on arbitrary nodes) and ``AntiderivativeField`` (a cumulative integral
whose derivative is its exact integrand).  Between their nodes they are
piecewise cubic Hermite interpolants (``CubicHermite``), with the node
slopes each kind knows best.  ``as_field`` turns a number, expression text
or numeric field into a ScalarFn.
"""

from __future__ import annotations

import numpy as np

from .expressions import Leaf, Num, S, ScalarFn, _node
from .numerics import cumulative_simpson, fd4_first, fd4_second, uniform_grid

__all__ = [
    "as_field",
    "CubicHermite",
    "local_slopes",
    "SampledField",
    "InterpolatedField",
    "antiderivative",
    "AntiderivativeField",
]

# target spacing for second-derivative stencils: balances the h^4 truncation
# against eps/h^2 roundoff amplification for samples good to ~1e-13
_SECOND_DERIV_STEP = 8e-3


def as_field(value) -> ScalarFn:
    """A number, expression text or field as a ScalarFn; a numeric field
    becomes a leaf of it."""
    if isinstance(value, ScalarFn):
        return value
    if isinstance(value, str):
        return ScalarFn.parse(value)
    node = _node(value)
    if node is None:
        raise TypeError(f"cannot interpret {value!r} as a scalar field")
    return ScalarFn(node)


class CubicHermite:
    """The piecewise cubic through (nodes[i], values[i]) with derivative
    slopes[i] at each node; outside the nodes the end cubics continue.

    Exact on cubics whenever the slopes are; with slopes accurate to
    O(h^4) the interpolation error is O(h^4).  Nodes (at least 2) must be
    strictly increasing."""

    def __init__(self, nodes, values, slopes):
        x = np.asarray(nodes, dtype=float)
        y = np.asarray(values, dtype=float)
        m = np.asarray(slopes, dtype=float)
        h = np.diff(x)
        delta = np.diff(y) / h
        m0, m1 = m[:-1], m[1:]
        # power form in the offset from each interval's left node
        self.nodes = x
        self._coef = (y[:-1], m0, (3.0 * delta - 2.0 * m0 - m1) / h,
                      (m0 + m1 - 2.0 * delta) / (h * h))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(self.nodes, s, side="right") - 1, 0, self.nodes.size - 2)
        t = s - self.nodes[i]
        c0, c1, c2, c3 = (c[i] for c in self._coef)
        return c0 + t * (c1 + t * (c2 + t * c3))


def local_slopes(nodes, values) -> np.ndarray:
    """Slope at every node of the quartic through it and two neighbours on
    each side (the stencil shifted inward at the ends; the cubic through all
    nodes when there are only four): exact on cubics and O(h^4) on smooth
    data, like the centred differences of ``fd4_first``, for any strictly
    increasing nodes (at least 4)."""
    x = np.asarray(nodes, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.size < 4:
        raise ValueError("need at least 4 samples for cubic interpolation")
    width = min(5, x.size)
    start = np.clip(np.arange(x.size) - width // 2, 0, x.size - width)
    idx = start[:, None] + np.arange(width)
    xs = x[idx]
    d = x[:, None] - xs  # the node's offset from each stencil node
    slopes = np.zeros(x.size)
    # derivative at the node of the Lagrange basis polynomial of stencil
    # node k: sum over j != k of prod over m != k, j of d[m], divided by
    # prod over m != k of (xs[k] - xs[m])
    for k in range(width):
        others = [m for m in range(width) if m != k]
        denom = np.prod([xs[:, k] - xs[:, m] for m in others], axis=0)
        numer = sum(np.prod([d[:, m] for m in others if m != j], axis=0) for j in others)
        slopes += y[idx[:, k]] * numer / denom
    return slopes


class SampledField:
    """Values on a uniform grid, evaluated through the cubic Hermite
    interpolant whose node slopes are 4th-order finite differences.

    Derivative values are 4th-order finite differences; the second
    derivative widens the stencil (subsampling the grid) so roundoff in the
    stored samples is not amplified past the truncation error.
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray, _order: int = 0, _source=None):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.grid.ndim != 1 or self.grid.size != self.values.size:
            raise ValueError("grid/values shape mismatch")
        if self.grid.size < 7:
            raise ValueError("need at least 7 samples")
        steps = np.diff(self.grid)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("grid must be uniform")
        self.h = float(steps[0])
        self._order = _order
        self._source = _source
        self._hermite = None

    @classmethod
    def resample(cls, u: np.ndarray, values: np.ndarray, n: int | None = None):
        """Build from possibly non-uniform samples (at least 4) by cubic
        Hermite resampling, with node slopes from ``local_slopes``."""
        u = np.asarray(u, dtype=float)
        values = np.asarray(values, dtype=float)
        n = n or max(u.size, 64)
        grid = np.linspace(u[0], u[-1], n)
        steps = np.diff(u)
        if u.size == n and np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            return cls(u, values)
        return cls(grid, CubicHermite(u, values, local_slopes(u, values))(grid))

    def _interp(self):
        if self._hermite is None:
            self._hermite = CubicHermite(self.grid, self.values, fd4_first(self.values, self.h))
        return self._hermite

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = self._interp()(s)
        return out if s.ndim else float(out)

    def derivative(self):
        if self._order == 0:
            return SampledField(
                self.grid, fd4_first(self.values, self.h), _order=1, _source=self
            )
        if self._order == 1:
            src = self._source
            stride = int(round(_SECOND_DERIV_STEP / src.h))
            stride = max(1, min(stride, (src.grid.size - 1) // 8))
            if stride == 1:
                return SampledField(
                    src.grid, fd4_second(src.values, src.h), _order=2, _source=src
                )
            # two strided passes, anchored at either endpoint, so neither
            # end of the interval relies on extrapolation
            n = src.grid.size
            left = np.arange(0, n, stride)
            right = np.arange(n - 1, -1, -stride)[::-1]
            d_left = fd4_second(src.values[left], src.h * stride)
            d_right = fd4_second(src.values[right], src.h * stride)
            cut = n // 2
            keep_l = left <= cut
            keep_r = right > cut
            nodes = np.concatenate([left[keep_l], right[keep_r]])
            vals = np.concatenate([d_left[keep_l], d_right[keep_r]])
            return InterpolatedField(src.grid[nodes], vals)
        raise NotImplementedError("sampled fields support two derivative orders")


class InterpolatedField:
    """Values on arbitrary strictly increasing nodes (cubic Hermite with
    ``local_slopes``); terminal in the derivative chain."""

    def __init__(self, nodes: np.ndarray, values: np.ndarray):
        self.nodes = np.asarray(nodes, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self._hermite = CubicHermite(
            self.nodes, self.values, local_slopes(self.nodes, self.values)
        )

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = self._hermite(s)
        return out if s.ndim else float(out)

    def derivative(self):
        raise NotImplementedError("interpolated fields are not differentiable")


def antiderivative(integrand, lo: float, hi: float, n_panels: int = 10_000, const: float = 0.0):
    """const + the integral of ``integrand`` from lo, as a ScalarFn: exactly
    (const - c lo) + c s for a constant integrand c, else a leaf around an
    AntiderivativeField."""
    integrand = as_field(integrand)
    if isinstance(integrand.ast, Num):
        c = integrand.ast.value
        return (float(const) - c * float(lo)) + c * S
    # a non-finite integrand is left to the callers' finiteness checks
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return ScalarFn(Leaf(AntiderivativeField(integrand, lo, hi, n_panels, const)))


class AntiderivativeField:
    """Cumulative integral of a field from the interval's left endpoint,
    by cumulative Simpson on a uniform grid, interpolated by cubic Hermite
    with the integrand values as slopes.  The exact integrand is kept, so
    ``derivative()`` has no quadrature error."""

    def __init__(self, integrand, lo: float, hi: float, n_panels: int = 10_000, const: float = 0.0):
        # plain callables are fine as integrands; they only lack further
        # derivative orders
        self.integrand = integrand if callable(integrand) else as_field(integrand)
        self.lo, self.hi = float(lo), float(hi)
        self.const = float(const)
        grid = uniform_grid(lo, hi, n_panels)
        f = np.asarray(self.integrand(grid), dtype=float)
        values = cumulative_simpson(f, dx=(self.hi - self.lo) / (grid.size - 1))
        self._hermite = CubicHermite(grid, values, f)
        self.grid = grid

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = self._hermite(s) + self.const
        return out if s.ndim else float(out)

    def derivative(self):
        return self.integrand
