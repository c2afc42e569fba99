"""Scalar fields over one parameter s: one composite type, one numeric leaf.

``expressions.ScalarFn`` is the only composite field: parsed text, or
arithmetic over numbers, ``expressions.S`` and numeric fields, which enter
the tree as leaves.  Every numeric field is a ``CubicHermite``, the
piecewise cubic Hermite interpolant over its nodes (a ``SampledField``
wraps one), called as ``field(s)``, whose ``derivative()`` is the ScalarFn
its producer gives, so differentiating a tree splices that tree in and
builds no new field.  The producers: ``antiderivative``, a cumulative
integral over its caller's nodes whose derivative is its exact integrand;
the integrals of a reconstruction (``frenet``), whose derivatives are the
Frenet-Serret trees, both composite Simpson over the nodes and their
midpoints; and ``SampledField`` (values on a uniform grid), for
sampled data only, whose first and second derivatives are interpolants of
its 4th-order finite differences.  ``as_field`` turns a number, expression
text or numeric field into a ScalarFn.
"""

from __future__ import annotations

import numpy as np

from .expressions import Num, S, ScalarFn, _node
from .numerics import cumulative_simpson, fd4_first, fd4_second

__all__ = [
    "as_field",
    "CubicHermite",
    "local_slopes",
    "SampledField",
    "antiderivative",
]

# target spacing for second-derivative stencils, as a fraction of the length
# over which the slope varies, ptp(f')/max|f''| with f'' from the densest
# stencil (2 for a whole turn of a unit circle's coordinates, the wavelength
# over pi for an oscillation, whatever its drift; less on an arc shorter
# than a turn): balances the h^4 truncation against eps/h^2 roundoff
# amplification for samples good to ~1e-13, and dilates with the field, so a
# dilated curve gets the same stencil
_SECOND_DERIV_SPACING = 4e-3


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
    ``derivative()`` is the ScalarFn ``derivative`` its producer gives;
    without one it is refused.

    Exact on cubics whenever the slopes are; with slopes accurate to
    O(h^4) the interpolation error is O(h^4).  Nodes (at least 2) must be
    strictly increasing.  Finite values whose coefficients overflow, as on
    a spacing whose square underflows, are refused."""

    def __init__(self, nodes, values, slopes, derivative=None):
        x = np.asarray(nodes, dtype=float)
        y = np.asarray(values, dtype=float)
        m = np.asarray(slopes, dtype=float)
        h = np.diff(x)
        m0, m1 = m[:-1], m[1:]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            delta = np.diff(y) / h
            c2 = (3.0 * delta - 2.0 * m0 - m1) / h
            c3 = (m0 + m1 - 2.0 * delta) / (h * h)
        if not (np.isfinite(c2).all() and np.isfinite(c3).all()) and np.isfinite(y).all():
            raise ValueError(f"cubic interpolation overflows (node spacing down to {np.min(h):g})")
        # power form in the offset from each interval's left node
        self.nodes = x
        self._coef = (y[:-1], m0, c2, c3)
        self._derivative = derivative

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(self.nodes, s, side="right") - 1, 0, self.nodes.size - 2)
        t = s - self.nodes[i]
        c0, c1, c2, c3 = (c[i] for c in self._coef)
        out = c0 + t * (c1 + t * (c2 + t * c3))
        return out if s.ndim else float(out)

    def derivative(self) -> ScalarFn:
        if self._derivative is None:
            raise NotImplementedError(
                "no derivative of this interpolant is known; sampled fields support two "
                "derivative orders")
        return self._derivative


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
    # prod over m != k of (xs[k] - xs[m]); slopes that overflow are left to
    # CubicHermite to refuse
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in range(width):
            others = [m for m in range(width) if m != k]
            denom = np.prod([xs[:, k] - xs[:, m] for m in others], axis=0)
            numer = sum(np.prod([d[:, m] for m in others if m != j], axis=0) for j in others)
            slopes += y[idx[:, k]] * numer / denom
    return slopes


class _NonUniformGrid(ValueError):
    """The grid of a SampledField is not uniform."""


class SampledField:
    """Values on a uniform grid, evaluated through the cubic Hermite
    interpolant whose node slopes are 4th-order finite differences.

    ``derivative()`` is the interpolant of the first derivative's 4th-order
    finite differences on the grid, whose own derivative interpolates the
    second derivative's the same way; the second derivative widens the
    stencil (subsampling the grid) so roundoff in the stored samples is not
    amplified past the truncation error.  A third derivative is refused.
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.grid.ndim != 1 or self.grid.size != self.values.size:
            raise ValueError("grid/values shape mismatch")
        if self.grid.size < 7:
            raise ValueError("need at least 7 samples")
        steps = np.diff(self.grid)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise _NonUniformGrid("grid must be uniform")
        self.h = float(steps[0])
        self._hermite = self._derivative = None  # built on first use

    @classmethod
    def resample(cls, u: np.ndarray, values: np.ndarray):
        """Build from possibly non-uniform samples (at least 4) by cubic
        Hermite resampling onto max(size, 64) uniform nodes, with node slopes
        from ``local_slopes``; samples already that many and uniform are
        kept, by the one uniformity test of the constructor."""
        u = np.asarray(u, dtype=float)
        values = np.asarray(values, dtype=float)
        n = max(u.size, 64)
        if u.size == n:
            try:
                return cls(u, values)
            except _NonUniformGrid:
                pass
        grid = np.linspace(u[0], u[-1], n)
        return cls(grid, CubicHermite(u, values, local_slopes(u, values))(grid))

    def _second(self, first):
        """Nodes, values and slopes of the second derivative's interpolant,
        from the first derivative ``first`` on the grid."""
        dense = fd4_second(self.values, self.h)
        bend = np.max(np.abs(dense))
        length = np.ptp(first) / bend if bend > 0.0 else 0.0
        stride = int(round(_SECOND_DERIV_SPACING * length / self.h))
        stride = max(1, min(stride, (self.grid.size - 1) // 8))
        if stride == 1:
            return self.grid, dense, fd4_first(dense, self.h)
        # two strided passes, anchored at either endpoint, so neither end of
        # the interval relies on extrapolation
        n = self.grid.size
        left = np.arange(0, n, stride)
        right = np.arange(n - 1, -1, -stride)[::-1]
        d_left = fd4_second(self.values[left], self.h * stride)
        d_right = fd4_second(self.values[right], self.h * stride)
        cut = n // 2
        keep_l = left <= cut
        keep_r = right > cut
        nodes = self.grid[np.concatenate([left[keep_l], right[keep_r]])]
        vals = np.concatenate([d_left[keep_l], d_right[keep_r]])
        return nodes, vals, local_slopes(nodes, vals)

    def __call__(self, s):
        if self._hermite is None:
            self._hermite = CubicHermite(self.grid, self.values, fd4_first(self.values, self.h))
        return self._hermite(s)

    def derivative(self) -> ScalarFn:
        if self._derivative is None:
            first = fd4_first(self.values, self.h)
            second = CubicHermite(*self._second(first))
            self._derivative = as_field(
                CubicHermite(self.grid, first, fd4_first(first, self.h), as_field(second)))
        return self._derivative


def antiderivative(integrand, grid, const: float = 0.0):
    """const + the integral of ``integrand`` from grid[0], as a ScalarFn:
    exactly (const - c grid[0]) + c s for a constant integrand c, else
    const plus a ``CubicHermite`` leaf over ``grid``, the caller's uniform
    nodes (at least 2), through composite Simpson over those nodes and
    their midpoints, with the integrand's samples for slopes and the
    integrand for derivative."""
    integrand = as_field(integrand)
    lo, hi = float(grid[0]), float(grid[-1])
    if isinstance(integrand.ast, Num):
        c = integrand.ast.value
        return (float(const) - c * lo) + c * S
    # a non-finite integrand is left to the callers' finiteness checks
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = np.asarray(integrand(np.linspace(lo, hi, 2 * len(grid) - 1)), dtype=float)
        values = cumulative_simpson(f, dx=(hi - lo) / (f.size - 1))
        return as_field(CubicHermite(grid, values[::2], f[::2], integrand)) + float(const)
