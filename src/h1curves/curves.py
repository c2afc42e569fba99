"""Invariants and frames of horizontally regular curves.

A curve r(u) = (x(u), y(u), z(u)) is horizontally regular when the contact
part of its velocity never vanishes, i.e. sqrt(x'^2 + y'^2) > 0.  Such a
curve carries two pseudo-hermitian invariants,

    kappa = (x' y'' - x'' y') / (x'^2 + y'^2)^(3/2)    (p-curvature)
    tau   = (x y' - x' y + z') / (x'^2 + y'^2)^(1/2)   (contact normality)

both unchanged under z-axis rotations and left translations.  kappa is the
Euclidean curvature of the xy-projection; tau vanishes exactly on
horizontal curves.  After reparametrizing by horizontal arc-length s the
moving frame is, in Euclidean coordinates,

    t = (x', y', x'y - xy'),   n = (-y', x', -yy' - xx'),   b = (0, 0, 1),

with n = J t.  Analytic components differentiate symbolically; sampled
components use 4th-order finite differences on a uniform resample.

The arc length sigma(u) is composite Simpson over the nodes and midpoints
of a uniform u-grid, as every integral in a tree is, and s -> u inverts
sigma's cubic Hermite through those nodes (slopes the contact speed), so
the contact speed is evaluated only where sigma is built.  A
``HorizontalCurve`` answers two pointwise questions: ``sample(s)``
inverts s -> u once and returns a ``CurveSample`` (u, points, unit
velocity, kappa and tau), from which the position coefficients are read
and the frame above follows from the points and the velocity; ``point(s)``
gives positions only.  A caller that needs two quantities at the same s
samples once.

The dilation (x, y, z) -> (l x, l y, l^2 z), s -> l s sends kappa to
kappa/l and tau to l tau (Capogna, Danielli, Pauls & Tyson, An Introduction
to the Heisenberg Group..., Birkhauser 2007, ch. 2), so every threshold
compares a dimensionless ratio, formed with the horizontal length (S, or
hi - lo for invariants on [lo, hi]), with ``RELATIVE_ZERO``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import CubicHermite, SampledField, as_field
from .heisenberg import PshTransform
from .numerics import (FD4_CENTRED, RELATIVE_ZERO, cumulative_simpson, fd4_first, panel_count,
                       require_finite)

__all__ = [
    "RELATIVE_ZERO",
    "RegularityError",
    "ParamCurve",
    "HorizontalCurve",
    "CurveSample",
    "InvariantPair",
    "kappa_branch",
    "kappa_tau_arbitrary",
    "reparam_horizontal",
    "immobility_residuals",
    "verify_cesaro",
    "psh_transform_curve",
]


# The s -> u Newton stops for a query once its residual sigma(u) - s is
# below _NEWTON_TOL * S, or after _NEWTON_MAX_ITER steps.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 8


class RegularityError(ValueError):
    """The contact part of the velocity is (numerically) degenerate."""


def kappa_branch(kappa, length: float) -> str:
    """The branch of the kappa samples: "zero-kappa" when |kappa| * length
    <= RELATIVE_ZERO at every sample, "general" at none, "mixed" otherwise."""
    scaled = np.abs(np.asarray(kappa, dtype=float)) * length
    if np.max(scaled) <= RELATIVE_ZERO:
        return "zero-kappa"
    return "general" if np.min(scaled) > RELATIVE_ZERO else "mixed"


@dataclass
class ParamCurve:
    """A curve over an arbitrary parameter u.  Each component becomes a
    ScalarFn (``fields.as_field``: a number, expression text or numeric
    field), which caches its own derivatives."""

    x: object
    y: object
    z: object
    u_min: float
    u_max: float

    def __post_init__(self):
        if not self.u_max > self.u_min:
            raise ValueError(f"degenerate interval [{self.u_min}, {self.u_max}]")
        self.x, self.y, self.z = (as_field(f) for f in (self.x, self.y, self.z))

    @classmethod
    def from_fields(cls, x, y, z, u_range) -> "ParamCurve":
        lo, hi = (float(v) for v in u_range)
        return cls(x, y, z, lo, hi)

    @classmethod
    def from_samples(cls, u, x, y, z) -> "ParamCurve":
        u = np.asarray(u, dtype=float)
        if u.ndim != 1 or u.size < 4:
            raise ValueError("need at least 4 samples")
        for name, column in zip("uxyz", (u, x, y, z)):
            bad = np.flatnonzero(~np.isfinite(np.asarray(column, dtype=float)))
            if bad.size:
                raise ValueError(f"sample column {name} is not finite at row {bad[0]}")
        if np.any(np.diff(u) <= 0):
            raise ValueError("sample parameters must be strictly increasing")
        return cls(
            SampledField.resample(u, x),
            SampledField.resample(u, y),
            SampledField.resample(u, z),
            float(u[0]),
            float(u[-1]),
        )

    # -- evaluation ---------------------------------------------------------

    def point(self, u):
        u = np.asarray(u, dtype=float)
        return np.stack([np.asarray(f(u)) for f in (self.x, self.y, self.z)], axis=-1)

    def contact_speed(self, u):
        return np.hypot(np.asarray(self.x.derivative()(u)), np.asarray(self.y.derivative()(u)))


def _jet(c: ParamCurve, u: np.ndarray):
    """(x, y, z, x', y', z', x'', y'') of ``c`` at the 1-d array u; a point
    that is not finite is refused."""
    x, y, z = c.x, c.y, c.z
    jet = tuple(np.asarray(f(u)) for f in (x, y, z, x.derivative(), y.derivative(),
                                           z.derivative(), x.derivative(2), y.derivative(2)))
    require_finite(u, "u", curve=jet[:3])
    return jet


def kappa_tau_arbitrary(c: ParamCurve, u, jet=None):
    """Invariants at parameter u (scalar or array), arbitrary parametrization.
    A contact speed at or below RELATIVE_ZERO times the largest among the
    samples (a zero one always) raises RegularityError.

    ``jet``, when given, is ``_jet(c, u)`` already evaluated at the 1-d u."""
    scalar = np.ndim(u) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x, y, _, xp, yp, zp, xpp, ypp = _jet(c, u) if jet is None else jet
    speed = np.hypot(xp, yp)
    if np.any(speed <= RELATIVE_ZERO * np.max(speed)):
        bad = u[np.argmin(speed)]
        raise RegularityError(f"degenerate contact speed near u = {bad}")
    # from the unit velocity (tx, ty), so no product squares a fast speed
    with np.errstate(over="ignore", invalid="ignore"):
        tx, ty = xp / speed, yp / speed
        kappa = (tx * ypp - ty * xpp) / speed / speed
        tau = x * ty - tx * y + zp / speed
    if scalar:
        return float(kappa[0]), float(tau[0])
    return kappa, tau


# ---------------------------------------------------------------------------
# Horizontal arc-length


class CurveSample(NamedTuple):
    """A curve evaluated at horizontal arc lengths s: the parameter u, the
    points and unit velocity d/ds (Euclidean components, shape (m, 3)),
    kappa and tau.  For a scalar s: a float, two 3-vectors, two floats.
    The position coefficients are read off it."""

    u: np.ndarray
    points: np.ndarray
    velocity: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray

    def coefficients(self):
        """Coefficients (u1~, u2~, u3~) of the position vector in the curve's
        own frame: r = u1~ t + u2~ n + u3~ b with

            u1~ = x x' + y y',   u2~ = y x' - x y',   u3~ = z.

        sqrt(u1~^2 + u2~^2) is the distance to the z-axis and u3~ the
        height."""
        x, y, z = self.points[..., 0], self.points[..., 1], self.points[..., 2]
        xp, yp = self.velocity[..., 0], self.velocity[..., 1]
        return x * xp + y * yp, y * xp - x * yp, z


class HorizontalCurve:
    """A curve reparametrized by horizontal arc-length s in [0, S].

    Holds the monotone map s -> u, so the contact speed in s is exactly one
    by construction: from the arc length sigma(u_grid) of
    ``reparam_horizontal`` and the contact speed at the same nodes, a
    Hermite seed (the cubic Hermite inverse, slopes du/dsigma = 1/speed),
    then Newton on sigma's own cubic Hermite (node values sigma, slopes
    the speeds) within the grid interval whose sigma brackets s, with no
    further contact-speed evaluation, or, built by ``arc_length``,
    u = u_min + s.  ``sample`` inverts once and returns
    every pointwise quantity; ``point`` evaluates positions only.
    """

    def __init__(self, param: ParamCurve, u_grid=None, sigma=None, speed=None):
        self.param = param
        self._u_grid, self._sigma = u_grid, sigma
        arc = sigma is None
        self.s_max = param.u_max - param.u_min if arc else float(sigma[-1])
        self._inverse = None if arc else CubicHermite(sigma, u_grid, 1.0 / speed)
        if not arc:  # sigma's cubic per interval in t = (u - u_i)/h_i, in sigma's units
            width, rise = np.diff(u_grid), np.diff(sigma)
            m0, m1 = width * speed[:-1], width * speed[1:]
            self._cubic = (sigma[:-1], m0, 3.0 * rise - 2.0 * m0 - m1, m0 + m1 - 2.0 * rise)

    @classmethod
    def arc_length(cls, param: ParamCurve) -> "HorizontalCurve":
        """``param`` as already parametrized by horizontal arc length."""
        return cls(param)

    # -- parameter map ------------------------------------------------------

    def u_of_s(self, s):
        """u at the arc lengths s; Newton stops for a query once its residual
        sigma(u) - s is below 1e-12 S."""
        scalar = np.ndim(s) == 0
        s = np.clip(np.atleast_1d(np.asarray(s, dtype=float)), 0.0, self.s_max)
        if self._inverse is None:
            u = self.param.u_min + s
            return float(u[0]) if scalar else u
        # Newton from the seed, kept in the interval whose sigma brackets s; its
        # stop is relative to S, as the residual's rounding floor grows with S
        i = np.clip(np.searchsorted(self._sigma, s, side="right") - 1, 0, self._sigma.size - 2)
        left, right = self._u_grid[i], self._u_grid[i + 1]
        u = np.clip(self._inverse(s), left, right)
        active = np.arange(s.size)
        for _ in range(_NEWTON_MAX_ITER):
            a, b, ua = left[active], right[active], u[active]
            t = (ua - a) / (b - a)
            c0, c1, c2, c3 = (c[i[active]] for c in self._cubic)
            residual = c0 + t * (c1 + t * (c2 + t * c3)) - s[active]
            slope = c1 + t * (2.0 * c2 + 3.0 * t * c3)
            u[active] = np.clip(ua - (b - a) * (residual / np.maximum(slope, 1e-300)), a, b)
            active = active[np.abs(residual) >= _NEWTON_TOL * self.s_max]
            if not active.size:
                break
        return float(u[0]) if scalar else u

    # -- geometry -----------------------------------------------------------

    def sample(self, s) -> CurveSample:
        """Points, unit velocity, kappa and tau at s from one inversion."""
        scalar = np.ndim(s) == 0
        u = np.atleast_1d(self.u_of_s(s))
        jet = _jet(self.param, u)
        kappa, tau = kappa_tau_arbitrary(self.param, u, jet=jet)
        x, y, z, xp, yp, zp = jet[:6]
        speed = np.hypot(xp, yp)
        points = np.stack([x, y, z], axis=-1)
        velocity = np.stack([xp / speed, yp / speed, zp / speed], axis=-1)
        if scalar:
            return CurveSample(float(u[0]), points[0], velocity[0],
                               float(kappa[0]), float(tau[0]))
        return CurveSample(u, points, velocity, kappa, tau)

    def point(self, s):
        """Positions at s; a point that is not finite is refused."""
        u = self.u_of_s(s)
        points = self.param.point(u)
        require_finite(np.atleast_1d(u), "u", curve=np.atleast_2d(points).T)
        return points


def reparam_horizontal(c: ParamCurve, step: float = 1e-3) -> HorizontalCurve:
    """Reparametrize by horizontal arc-length.

    ``step`` controls the u-grid spacing: ``numerics.panel_count`` panels of
    (u_max - u_min)/step, at least 64 (a request above
    ``numerics.MAX_PANELS`` raises ValueError).  sigma(u), the integral of
    the contact speed, is composite Simpson over the panels' nodes and
    midpoints, so every node is exact on cubics; a contact speed at any of
    them at or below RELATIVE_ZERO times its mean raises RegularityError.
    Inversion is a Hermite seed (the cubic Hermite inverse, slopes
    1/speed), then Newton on sigma's cubic Hermite through the nodes to
    ~1e-12 S per query.  Use ``HorizontalCurve.sample`` to get points,
    velocity and invariants from one inversion.
    """
    span = c.u_max - c.u_min
    u = np.linspace(c.u_min, c.u_max, 2 * panel_count(span, step, minimum=64) + 1)
    speed = c.contact_speed(u)
    require_finite(u, "u", curve=speed)
    with np.errstate(over="ignore"):  # an arc length past the float range is refused below
        sigma = cumulative_simpson(speed, dx=span / (u.size - 1))
    require_finite(u, "u", **{"arc length": sigma})
    floor = RELATIVE_ZERO * sigma[-1] / span  # of the mean speed
    if np.min(speed) <= floor:
        raise RegularityError(
            f"curve is not horizontally regular: contact speed {np.min(speed):.3e} "
            f"<= {floor:.3e} ({RELATIVE_ZERO:g} of its mean) near u = {u[np.argmin(speed)]}"
        )
    return HorizontalCurve(c, u[::2], sigma[::2], speed[::2])


# ---------------------------------------------------------------------------
# The immobility identity


def immobility_residuals(u, du, kappa, tau) -> tuple[float, float, float]:
    """Max |residual| of each equation of the first-order immobility system

        u1' = kappa u2 - 1,   u2' = -kappa u1,   u3' = u2 - tau

    for coefficients u = (u1, u2, ...) and derivatives du by
    ``numerics.fd4_first`` at common samples of a uniform grid, read at
    ``numerics.FD4_CENTRED``, the nodes where its stencil is centred."""
    return tuple(float(np.max(np.abs(r[FD4_CENTRED]))) for r in (
        du[0] - (kappa * u[1] - 1.0), du[1] + kappa * u[0], du[2] - (u[1] - tau)))


def verify_cesaro(grid, smp: CurveSample) -> float:
    """The largest ``immobility_residuals`` for u_i = -(position
    coefficients) of ``smp``, a sample on the uniform ``grid`` (the table
    ``analyze`` prints), derivatives by ``numerics.fd4_first`` on that grid
    (error O(step^4) where its stencil is centred, the nodes read; fewer
    than 6 nodes raise its ValueError).  The system holds identically for
    every horizontally regular curve, so the residual measures only
    numerical error.
    """
    grid = np.asarray(grid, dtype=float)
    step = np.ptp(grid) / max(grid.size - 1, 1)  # a lone node reaches fd4_first's refusal
    u = -np.stack(smp.coefficients())
    du = [fd4_first(column, step) for column in u]
    return max(immobility_residuals(u, du, smp.kappa, smp.tau))


# ---------------------------------------------------------------------------
# Invariant pairs and curve transforms


@dataclass
class InvariantPair:
    """kappa(s) and tau(s) as fields (expression-backed or sampled)."""

    kappa: object
    tau: object

    def __post_init__(self):
        self.kappa = as_field(self.kappa)
        self.tau = as_field(self.tau)


def psh_transform_curve(g: PshTransform, c: ParamCurve) -> ParamCurve:
    """The induced curve map of a pseudo-hermitian transformation.

    ``g.apply`` acts on the component trees, so the components stay exact
    linear combinations of the originals and analytic derivative
    information survives; kappa and tau are invariant under the result.
    """
    return ParamCurve(*g.apply(c.x, c.y, c.z), c.u_min, c.u_max)
