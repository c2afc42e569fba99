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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import CubicHermite, SampledField, as_field
from .heisenberg import H1Point, PshTransform
from .numerics import cumulative_simpson, panel_count, uniform_grid

__all__ = [
    "RegularityError",
    "ParamCurve",
    "HorizontalCurve",
    "CurveSample",
    "Frame",
    "InvariantPair",
    "is_horizontally_regular",
    "kappa_tau_arbitrary",
    "reparam_horizontal",
    "frame_at",
    "frame_coefficients",
    "verify_cesaro",
    "psh_transform_curve",
]


class RegularityError(ValueError):
    """The contact part of the velocity is (numerically) degenerate."""


@dataclass
class ParamCurve:
    """A curve over an arbitrary parameter u, with field components."""

    x: object
    y: object
    z: object
    u_min: float
    u_max: float

    def __post_init__(self):
        if not self.u_max > self.u_min:
            raise ValueError(f"degenerate interval [{self.u_min}, {self.u_max}]")
        self._d1 = None
        self._d2 = None

    @classmethod
    def from_expressions(cls, x: str, y: str, z: str, u_range) -> "ParamCurve":
        return cls.from_fields(x, y, z, u_range)

    @classmethod
    def from_fields(cls, x, y, z, u_range) -> "ParamCurve":
        lo, hi = (float(v) for v in u_range)
        return cls(as_field(x), as_field(y), as_field(z), lo, hi)

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
        n = max(u.size, 64)
        return cls(
            SampledField.resample(u, x, n),
            SampledField.resample(u, y, n),
            SampledField.resample(u, z, n),
            float(u[0]),
            float(u[-1]),
        )

    # -- evaluation ---------------------------------------------------------

    def point(self, u):
        u = np.asarray(u, dtype=float)
        out = np.stack(
            [np.asarray(self.x(u)), np.asarray(self.y(u)), np.asarray(self.z(u))],
            axis=-1,
        )
        return out

    def _first(self):
        if self._d1 is None:
            self._d1 = (
                self.x.derivative(),
                self.y.derivative(),
                self.z.derivative(),
            )
        return self._d1

    def _second(self):
        if self._d2 is None:
            dx, dy, _ = self._first()
            self._d2 = (dx.derivative(), dy.derivative())
        return self._d2

    def contact_speed(self, u):
        dx, dy, _ = self._first()
        return np.hypot(np.asarray(dx(u)), np.asarray(dy(u)))

    def diameter(self, n: int = 256) -> float:
        pts = self.point(np.linspace(self.u_min, self.u_max, n))
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def is_horizontally_regular(c: ParamCurve, tol: float | None = None, n: int = 1024) -> bool:
    """True when the contact speed stays above tol on a dense grid.

    tol defaults to 1e-8 times the curve diameter.
    """
    if tol is None:
        tol = 1e-8 * c.diameter()
    elif tol <= 0:
        raise ValueError("tol must be positive")
    u = np.linspace(c.u_min, c.u_max, n)
    return bool(np.min(c.contact_speed(u)) > tol)


def _jet(c: ParamCurve, u: np.ndarray):
    """(x, y, z, x', y', z', x'', y'') of ``c`` at the 1-d array u."""
    dx, dy, dz = c._first()
    ddx, ddy = c._second()
    return tuple(np.asarray(f(u)) for f in (c.x, c.y, c.z, dx, dy, dz, ddx, ddy))


def kappa_tau_arbitrary(c: ParamCurve, u, tol: float = 1e-12, jet=None):
    """Invariants at parameter u (scalar or array), arbitrary parametrization.

    ``jet``, when given, is ``_jet(c, u)`` already evaluated at the 1-d u."""
    scalar = np.ndim(u) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x, y, _, xp, yp, zp, xpp, ypp = _jet(c, u) if jet is None else jet
    speed2 = xp * xp + yp * yp
    if np.any(speed2 < tol * tol):
        bad = u[np.argmin(speed2)]
        raise RegularityError(f"degenerate contact speed near u = {bad}")
    speed = np.sqrt(speed2)
    kappa = (xp * ypp - xpp * yp) / speed2**1.5
    tau = (x * yp - xp * y + zp) / speed
    if scalar:
        return float(kappa[0]), float(tau[0])
    return kappa, tau


# ---------------------------------------------------------------------------
# Horizontal arc-length


# 4-node Gauss-Legendre rule on [0, 1], exact on polynomials of degree 7:
# nodes (1 -+ x)/2 for x = sqrt(3/7 +- (2/7) sqrt(6/5)), weights (18 -+ sqrt(30))/72
_X_OUT, _X_IN = (0.5 * math.sqrt(3.0 / 7.0 + k * 2.0 / 7.0 * math.sqrt(1.2)) for k in (1, -1))
_W_OUT, _W_IN = ((18.0 - k * math.sqrt(30.0)) / 72.0 for k in (1, -1))
_GL4_T = (0.5 - _X_OUT, 0.5 - _X_IN, 0.5 + _X_IN, 0.5 + _X_OUT)
_GL4_W = (_W_OUT, _W_IN, _W_IN, _W_OUT)


class CurveSample(NamedTuple):
    """A curve evaluated at horizontal arc lengths s: the parameter u, the
    points and unit velocity d/ds (Euclidean components, shape (m, 3)),
    kappa and tau.  For a scalar s: a float, two 3-vectors, two floats."""

    u: np.ndarray
    points: np.ndarray
    velocity: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray

    def coefficients(self):
        """(u1~, u2~, u3~) = (x x' + y y', y x' - x y', z); see
        ``frame_coefficients``."""
        x, y, z = self.points[..., 0], self.points[..., 1], self.points[..., 2]
        xp, yp = self.velocity[..., 0], self.velocity[..., 1]
        return x * xp + y * yp, y * xp - x * yp, z


class HorizontalCurve:
    """A curve reparametrized by horizontal arc-length s in [0, S].

    Holds the monotone map s -> u, so the contact speed in s is exactly one
    by construction: from the arc length sigma(u_grid) of
    ``reparam_horizontal`` and the contact speed at the same nodes, a
    Hermite seed (the cubic Hermite inverse, slopes du/dsigma = 1/speed),
    then Newton with a 4-node Gauss-Legendre local integral per query, or,
    built by ``arc_length``, u = u_min + s.  ``sample`` inverts once and
    returns every pointwise quantity; ``point`` evaluates positions only.
    """

    def __init__(self, param: ParamCurve, u_grid=None, sigma=None, speed=None):
        self.param = param
        self._u_grid, self._sigma = u_grid, sigma
        arc = sigma is None
        self.s_max = param.u_max - param.u_min if arc else float(sigma[-1])
        self._inverse = None if arc else CubicHermite(sigma, u_grid, 1.0 / speed)

    @classmethod
    def arc_length(cls, param: ParamCurve) -> "HorizontalCurve":
        """``param`` as already parametrized by horizontal arc length."""
        return cls(param)

    # -- parameter map ------------------------------------------------------

    def u_of_s(self, s, refine_tol: float = 1e-12, max_iter: int = 8):
        scalar = np.ndim(s) == 0
        s = np.clip(np.atleast_1d(np.asarray(s, dtype=float)), 0.0, self.s_max)
        if self._inverse is None:
            u = self.param.u_min + s
            return float(u[0]) if scalar else u
        lo, hi = self.param.u_min, self.param.u_max
        u = np.clip(self._inverse(s), lo, hi)
        # anchor each query at the nearest grid node below and Newton-refine
        # sigma(u) - s; a query stops once its own step is below refine_tol
        idx = np.clip(np.searchsorted(self._sigma, s, side="right") - 1, 0,
                      len(self._sigma) - 2)
        active = np.arange(s.size)
        for _ in range(max_iter):
            i, ua = idx[active], u[active]
            local, speed = self._local_integral(self._u_grid[i], ua)
            step = (self._sigma[i] + local - s[active]) / np.maximum(speed, 1e-300)
            u[active] = np.clip(ua - step, lo, hi)
            active = active[np.abs(step) >= refine_tol]
            if not active.size:
                break
        return float(u[0]) if scalar else u

    def _local_integral(self, a: np.ndarray, b: np.ndarray):
        """The integral of the contact speed over [a_i, b_i] by 4-node
        Gauss-Legendre, and the speed at b_i, from one contact_speed call."""
        m = b.size
        nodes = np.concatenate([a + (b - a) * t for t in _GL4_T] + [b])
        vals = self.param.contact_speed(nodes)
        rule = sum(w * vals[k * m:(k + 1) * m] for k, w in enumerate(_GL4_W))
        return (b - a) * rule, vals[4 * m:]

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
        return self.param.point(self.u_of_s(s))

    def velocity(self, s):
        """d/ds of the Euclidean coordinates (unit contact speed)."""
        return self.sample(s).velocity

    def kappa(self, s):
        return self.sample(s).kappa

    def tau(self, s):
        return self.sample(s).tau

    def invariants(self, s):
        smp = self.sample(s)
        return smp.kappa, smp.tau

    def heading(self, s):
        v = self.velocity(s)
        angle = np.arctan2(v[..., 1], v[..., 0])
        return float(angle) if v.ndim == 1 else angle

    def diameter(self, n: int = 256) -> float:
        return self.param.diameter(n)

    def frame_arrays(self, s):
        """Vectorized frame: returns (points, t, n, b) with shape (m, 3)."""
        smp = self.sample(np.atleast_1d(np.asarray(s, dtype=float)))
        pts, v = smp.points, smp.velocity
        x, y = pts[..., 0], pts[..., 1]
        xp, yp = v[..., 0], v[..., 1]
        t = np.stack([xp, yp, xp * y - x * yp], axis=-1)
        n = np.stack([-yp, xp, -y * yp - x * xp], axis=-1)
        b = np.broadcast_to(np.array([0.0, 0.0, 1.0]), t.shape)
        return pts, t, n, b

    def contact_speed_check(self, n: int = 257) -> float:
        """Max deviation of |r'_xi(s)| from 1 on a grid (should be ~eps)."""
        s = np.linspace(0.0, self.s_max, n)
        v = self.velocity(s)
        return float(np.max(np.abs(np.hypot(v[:, 0], v[:, 1]) - 1.0)))


def reparam_horizontal(
    c: ParamCurve, step: float | None = None, tol: float | None = None
) -> HorizontalCurve:
    """Reparametrize by horizontal arc-length.

    ``step`` controls the u-grid spacing of the Simpson accumulation of
    sigma(u) = integral of the contact speed (4096 panels when omitted; a
    request above ``numerics.MAX_PANELS`` raises ValueError); inversion is
    a Hermite seed (the cubic Hermite inverse, slopes 1/speed), then Newton
    with a 4-node Gauss-Legendre local integral to ~1e-12 per query.  Use
    ``HorizontalCurve.sample`` to get points, velocity and invariants from
    one inversion.
    """
    n_panels = panel_count(c.u_max - c.u_min, step, minimum=64) if step else 4096
    if tol is None:
        tol = 1e-8 * c.diameter()
    u = uniform_grid(c.u_min, c.u_max, n_panels)
    speed = c.contact_speed(u)
    if not np.all(np.isfinite(speed)):
        raise ValueError(f"curve is not finite near u = {u[np.argmin(np.isfinite(speed))]}")
    if np.min(speed) <= tol:
        bad = u[np.argmin(speed)]
        raise RegularityError(
            f"curve is not horizontally regular: contact speed "
            f"{np.min(speed):.3e} <= tol {tol:.3e} near u = {bad}"
        )
    sigma = cumulative_simpson(speed, dx=(c.u_max - c.u_min) / (u.size - 1))
    return HorizontalCurve(c, u, sigma, speed)


# ---------------------------------------------------------------------------
# Frames and position coefficients


@dataclass
class Frame:
    """Orthonormal frame (t, n, b) at a curve point, Euclidean components.

    b is always (0, 0, 1); t and n lie in the contact plane at the base
    point and n = J t.  ``contact`` holds the basis components (x', y') of
    t; the basis components of n are (-y', x')."""

    base: H1Point
    t: np.ndarray
    n: np.ndarray
    b: np.ndarray
    contact: tuple[float, float]

    def t_basis(self) -> np.ndarray:
        return np.array([self.contact[0], self.contact[1], 0.0])

    def n_basis(self) -> np.ndarray:
        return np.array([-self.contact[1], self.contact[0], 0.0])


def frame_at(h: HorizontalCurve, s: float) -> Frame:
    pts, t, n, b = h.frame_arrays(float(s))
    return Frame(
        base=H1Point.from_array(pts[0]),
        t=t[0],
        n=n[0],
        b=np.array([0.0, 0.0, 1.0]),
        contact=(float(t[0][0]), float(t[0][1])),
    )


def frame_coefficients(h: HorizontalCurve, s):
    """Coefficients (u1~, u2~, u3~) of the position vector in the curve's own
    frame: r = u1~ t + u2~ n + u3~ b with

        u1~ = x x' + y y',   u2~ = y x' - x y',   u3~ = z.

    sqrt(u1~^2 + u2~^2) is the distance to the z-axis and u3~ the height.
    """
    scalar = np.ndim(s) == 0
    u1, u2, u3 = h.sample(np.atleast_1d(np.asarray(s, dtype=float))).coefficients()
    if scalar:
        return float(u1[0]), float(u2[0]), float(u3[0])
    return u1, u2, u3


def verify_cesaro(h: HorizontalCurve, grid, h_fd: float = 1e-5) -> float:
    """Max residual of the first-order immobility system

        u1' = kappa u2 - 1,   u2' = -kappa u1,   u3' = u2 - tau

    for u_i = -(position coefficients), derivatives by central differences
    with step h_fd.  Holds identically for every horizontally regular
    curve, so the residual measures only numerical error.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if np.any(grid - h_fd < 0.0) or np.any(grid + h_fd > h.s_max):
        raise ValueError("grid must lie at least h_fd inside [0, S]")
    m = grid.size
    smp = h.sample(np.concatenate([grid - h_fd, grid, grid + h_fd]))
    # (u1, u2, u3) at s - h_fd, s and s + h_fd
    um, u0, up = (-np.stack(smp.coefficients())).reshape(3, 3, m).swapaxes(0, 1)
    du = (up - um) / (2.0 * h_fd)
    kappa, tau = smp.kappa[m:2 * m], smp.tau[m:2 * m]
    r1 = du[0] - (kappa * u0[1] - 1.0)
    r2 = du[1] + kappa * u0[0]
    r3 = du[2] - (u0[1] - tau)
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2)), np.max(np.abs(r3))))


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

    @classmethod
    def from_expressions(cls, kappa: str, tau: str) -> "InvariantPair":
        return cls(kappa, tau)

    @classmethod
    def from_constants(cls, kappa: float, tau: float) -> "InvariantPair":
        return cls(float(kappa), float(tau))

    @classmethod
    def from_samples(cls, s, kappa, tau) -> "InvariantPair":
        s = np.asarray(s, dtype=float)
        return cls(SampledField.resample(s, kappa), SampledField.resample(s, tau))


def psh_transform_curve(g: PshTransform, c: ParamCurve) -> ParamCurve:
    """The induced curve map of a pseudo-hermitian transformation.

    Components stay exact linear combinations of the originals, so analytic
    derivative information survives; kappa and tau are invariant under the
    result.
    """
    ca, sa = np.cos(g.angle), np.sin(g.angle)
    p = g.shift
    cx, cy, cz = (as_field(f) for f in (c.x, c.y, c.z))
    x = p.x + ca * cx - sa * cy
    y = p.y + sa * cx + ca * cy
    z = p.z + cz + (p.y * ca - p.x * sa) * cx + (-p.y * sa - p.x * ca) * cy
    return ParamCurve(x, y, z, c.u_min, c.u_max)
