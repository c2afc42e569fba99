"""Cesàro immobility solutions and rotationally symmetric surfaces.

A point rigidly attached to the moving frame of a horizontally regular
curve is immobile exactly when its frame coefficients solve

    u1' = kappa u2 - 1,   u2' = -kappa u1,   u3' = u2 - tau.

Minus the position coefficients of any horizontally regular curve
(x, y, z), parametrized by horizontal arc length s, solve it
(``curves.verify_cesaro`` checks exactly this):

    u1 = -(x x' + y y'),   u2 = -(y x' - x y'),   u3 = -z.

The system is linear, so a solution is fixed by its values at the
interval's left endpoint lo: it is minus the coefficients of the curve
with invariants (kappa, tau) (``frenet``, the fundamental theorem of
curves) that starts at (-u1(lo), -u2(lo), -u3(lo)) with heading 0, since
at a heading of 0 the coefficients there are minus that point.  A rotation
about the z-axis leaves the coefficients unchanged, so any other heading
gives the same solution.  The paper's closed forms, with theta the
antiderivative of kappa, Delta = C2 C3 - C1 C4 != 0 and two integrals
I1, I2 of terms in kappa'/(kappa^2 Delta), integrate by parts to these
coefficients; their constants fix the start through

    (u1(lo), u2(lo)) = Q = (C2 C5 + C4 C6, C1 C5 + C3 C6 + 1/kappa(lo)),

so the solution is read off the cascade's curve whose pose (``frenet``)
is the left translation by (-Qx, -Qy, -u3_const), for every kappa, of
either sign and through its zeros.  Only 1/kappa(lo) needs a nonzero
kappa, so a kappa that is not identically zero is refused when
|kappa(lo)| (hi - lo) <= ``curves.RELATIVE_ZERO``, and not for a zero
inside the interval.  For kappa == 0 (|kappa| (hi - lo) <= RELATIVE_ZERO
everywhere) the system degenerates to u1 = c1 - s, u2 = c2, u3 =
integral(c2 - tau) + c3: the same curve, a line, with Q = (C5 - lo, C6).

These solutions characterize membership of curves in surfaces of
revolution about the z-axis: r lies on the surface swept by (g, f) iff
u1^2 + u2^2 = g^2 and u3 = -f, which in terms of the invariants becomes

    f' - tau = ((g^2)''/2 - 1)/kappa,    f'' - tau' = -kappa (g^2)'/2.

u1^2 + u2^2 is x^2 + y^2, the squared distance of the curve to the z-axis,
so the constant-tau surface is the one swept by rotating the curve about
the z-axis, its squared radius shifted by a constant.

The curve is ``frenet._cascade_curve`` on one uniform grid of
``numerics.ANTIDERIVATIVE_PANELS`` panels over the interval, its integrals
pinned at lo; the closed forms are ``ScalarFn`` trees over its leaves, and
this module integrates nothing itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import (RELATIVE_ZERO, HorizontalCurve, InvariantPair, ParamCurve,
                     immobility_residuals, kappa_branch)
from .expressions import EvalDomainError, Num, S
from .fields import as_field
from .frenet import _cascade_curve
from .heisenberg import H1Point, PshTransform
from .numerics import (ANTIDERIVATIVE_PANELS, fd4_first, lowest_local_minima, minimize_brackets,
                       require_finite, step_grid)

__all__ = [
    "CesaroConstants",
    "CesaroSolution",
    "SurfaceOfRevolution",
    "MembershipReport",
    "PansuSphere",
    "cesaro_closed_form",
    "cesaro_system_residual",
    "surface_membership",
    "check_necessary_conditions",
    "generate_surface_constant_kappa",
    "generate_surface_constant_tau",
    "sphere_horizontal_gap",
    "pansu_sphere",
]

@dataclass(frozen=True)
class CesaroConstants:
    """Constants of the two independent homogeneous solutions (c1..c4) and
    of the particular combination (c5, c6); requires c2 c3 != c1 c4."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float = 0.0
    c6: float = 0.0

    def __post_init__(self):
        if self.delta == 0.0:
            raise ValueError("degenerate constants: c2*c3 - c1*c4 must be nonzero")

    @property
    def delta(self) -> float:
        return self.c2 * self.c3 - self.c1 * self.c4


@dataclass
class CesaroSolution:
    """A solution (u1, u2, u3) of the immobility system for given
    invariants: minus the position coefficients of ``curve``, the curve
    with these invariants that starts at (-Qx, -Qy, -u3(lo)) with heading
    0, parametrized by arc length on ``interval``; ``grid`` is the grid
    of its integrals."""

    inv: InvariantPair
    constants: Optional[CesaroConstants]
    interval: tuple[float, float]
    branch: str  # "general" | "zero-kappa"
    u1: object
    u2: object
    u3: object
    curve: ParamCurve
    grid: np.ndarray


def cesaro_closed_form(
    inv: InvariantPair,
    constants: CesaroConstants,
    interval: tuple[float, float] = (0.0, 1.0),
    u3_const: float = 0.0,
) -> CesaroSolution:
    """Closed-form immobility solution on the interval: the coefficients of
    the curve of the module docstring, whose start the fixed point Q
    fixes.  kappa is identically zero (the degenerate branch, c1 = C5,
    c2 = C6) or nonzero at the left endpoint, where the constants read
    1/kappa; it may cross zero inside."""
    lo, hi = (float(v) for v in interval)
    if not hi > lo:
        raise ValueError(f"degenerate interval [{lo}, {hi}]")
    grid = np.linspace(lo, hi, ANTIDERIVATIVE_PANELS + 1)
    kappa_vals = np.asarray(inv.kappa(grid), dtype=float)
    require_finite(grid, kappa=kappa_vals)

    c = constants
    if kappa_branch(kappa_vals, hi - lo) == "zero-kappa":
        branch, qx, qy = "zero-kappa", c.c5 - lo, c.c6
    else:
        if abs(kappa_vals[0]) * (hi - lo) <= RELATIVE_ZERO:
            raise ValueError(f"kappa vanishes at s = {lo} but is not identically zero; "
                             "the closed forms' constants need 1/kappa there")
        branch = "general"
        qx = c.c2 * c.c5 + c.c4 * c.c6
        qy = c.c1 * c.c5 + c.c3 * c.c6 + 1.0 / float(kappa_vals[0])
    curve = _cascade_curve(inv, PshTransform(0.0, H1Point(-qx, -qy, -u3_const)), grid)
    x, y, xp, yp = curve.x, curve.y, curve.x.derivative(), curve.y.derivative()
    u1, u2 = -(x * xp + y * yp), -(y * xp - x * yp)
    return CesaroSolution(inv, constants, (lo, hi), branch, u1, u2, -curve.z, curve, grid)


def cesaro_system_residual(sol: CesaroSolution) -> tuple[float, float, float]:
    """``curves.immobility_residuals`` of the solution on ``sol.grid``, the
    grid of its curve's integrals, derivatives by ``numerics.fd4_first`` there
    (independent of the closed forms; error O(step^4) where the stencil is
    centred)."""
    grid = sol.grid
    step = grid[1] - grid[0]
    u = [np.broadcast_to(f(grid), grid.shape) for f in (sol.u1, sol.u2, sol.u3)]
    du = [fd4_first(values, step) for values in u]
    return immobility_residuals(u, du, sol.inv.kappa(grid), sol.inv.tau(grid))


# ---------------------------------------------------------------------------
# Surfaces of revolution


def _profile_range(interval) -> tuple[float, float]:
    lo, hi = (float(v) for v in interval)
    if not (hi > lo and np.isfinite(hi - lo)):
        raise ValueError(f"profile range [{lo}, {hi}] must be finite and increasing")
    return lo, hi


@dataclass
class SurfaceOfRevolution:
    """Surface (g(s) cos t, g(s) sin t, f(s)) about the z-axis.

    The squared radius profile g2 is stored as the primary field because
    the membership conditions involve (g^2)' and (g^2)''; g itself is its
    nonnegative square root.  g_text/f_text hold expression forms when the
    profiles are analytic."""

    g2: object
    f: object
    s_lo: float
    s_hi: float
    g_text: str | None = None
    f_text: str | None = None

    def __post_init__(self):
        _profile_range((self.s_lo, self.s_hi))

    @classmethod
    def from_profiles(cls, g, f, interval, g_text=None, f_text=None):
        g = as_field(g)
        lo, hi = (float(v) for v in interval)
        sigma = cls(g ** 2, as_field(f), lo, hi, g_text, f_text)
        grid = np.linspace(lo, hi, 512)
        values = np.asarray(g(grid), dtype=float)
        require_finite(grid, g=values, f=sigma.f(grid))
        # a profile that touches the axis at an end of the range can come out
        # a few ulps below zero there (cos just past pi/2); only values below
        # roundoff relative to the profile's own size are negative
        if np.any(values < -64.0 * np.finfo(float).eps * np.max(np.abs(values))):
            raise ValueError("radius profile g must be nonnegative")
        return sigma

    def profile(self, s):
        """(radius, height) samples along the generator."""
        try:
            g2 = np.asarray(self.g2(s), dtype=float)
            if np.any(g2 < -1e-12):
                raise ValueError("negative squared radius on the profile")
            # + 0.0 makes a zero height +0: a tree drops additive zeros, so a
            # height that sums to zero can otherwise come out as -0
            height = np.asarray(self.f(s), dtype=float) + 0.0
        except EvalDomainError as exc:
            raise ValueError(f"bad surface spec: {exc}") from exc
        return np.sqrt(np.where(g2 < 0.0, 0.0, g2)), height

    def to_json(self) -> dict:
        if self.g_text is None or self.f_text is None:
            raise ValueError("surface has no closed-form profile expressions")
        return {"g": self.g_text, "f": self.f_text, "range": [self.s_lo, self.s_hi]}


# The membership search (see surface_membership): curve samples, generator
# grid panels, basins kept per sample, most parabolic steps per basin, and the
# scale of d^2's rounding error within which a certificate probe is level.
_MEMBERSHIP_SAMPLES = 200
_MEMBERSHIP_PANELS = 1024
_MEMBERSHIP_BASINS = 4
_MEMBERSHIP_PARABOLIC_STEPS = 8
_MEMBERSHIP_ROUNDOFF = 8.0


@dataclass
class MembershipReport:
    member: bool
    max_defect: float
    worst_s: float

    def __bool__(self) -> bool:
        return self.member

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "max_defect": self.max_defect,
            "worst_s": self.worst_s,
        }


def surface_membership(
    h: HorizontalCurve,
    sigma: SurfaceOfRevolution,
    tol: float = 1e-6,
) -> MembershipReport:
    """Geometric membership test: every sampled curve point must lie within
    tol of the surface, measured as the distance from (distance-to-z-axis,
    height) to the nearest generator point.

    A grid scan over the generator picks, for each sample, the closest few
    basins of d^2 (its interior local minima and the two ends): a folded
    generator can pass near a point more than once, so the grid argmin alone is
    not enough.  The scan is one matrix product, d^2 less each sample's own
    term, which writes the grid once where d^2 itself takes five passes; a
    sample whose lowest node that product's rounding cannot tell from a
    neighbour is scanned by d^2 itself.  ``numerics.minimize_brackets`` then
    refines all (sample, basin) brackets together, one vectorized
    ``sigma.profile`` call per step: parabolic steps from each bracket's grid
    nodes (d^2 recomputed there) and a certificate that f(x +- 1e-12 span) is
    not lower than f(x) beyond rounding; a bracket without one (a kinked
    generator, say) is searched again by golden section to 1e-12 of the span.
    A sample's defect is the lowest d^2 actually evaluated, so it is the
    distance to a real generator point, never an interpolated one."""
    s_curve = np.linspace(0.0, h.s_max, _MEMBERSHIP_SAMPLES)
    pts = h.point(s_curve)
    rho, height = np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2]
    sp = np.linspace(sigma.s_lo, sigma.s_hi, _MEMBERSHIP_PANELS + 1)
    gp, fp = sigma.profile(sp)
    finite = np.isfinite(gp) & np.isfinite(fp)

    # each difference in d^2 = (rho - g)^2 + (z - f)^2 carries about eps
    # times the problem's size, so d^2 = v carries about 2 sqrt(v) eps size;
    # _MEMBERSHIP_ROUNDOFF = 8 allows four times that, for the few ulps by
    # which g and f themselves are off
    size = sum(float(np.max(np.abs(v), where=np.isfinite(v), initial=0.0))
               for v in (np.concatenate([rho, height]), np.concatenate([gp, fp])))
    # shrunk by a power of two past size, so that no term overflows, and
    # centred on the generator's finite box c, d^2 - |p - c|^2 is
    # |q - c|^2 - 2 (p - c).(q - c) for a sample p and a node q; rounding
    # puts at most about 4 eps (max |q - c| + |p - c|)^2 into it
    scale = math.ldexp(1.0, -max(math.frexp(size)[1], 0))
    p, q = np.stack([rho, height]) * scale, np.stack([gp, fp]) * scale
    box = q[:, finite]
    centre = 0.5 * (box.min(axis=1) + box.max(axis=1)) if box.size else np.zeros(2)
    p, q = p - centre[:, None], np.where(finite, q - centre[:, None], 0.0)
    scan = np.column_stack([-2.0 * p.T, np.ones(p.shape[1])]) @ np.vstack([q, np.sum(q * q, 0)])

    def d2(rho, height, g, f):
        with np.errstate(over="ignore"):  # a d^2 past the float range is inf
            return (rho - g) ** 2 + (height - f) ** 2

    # a row whose lowest node is not below both neighbours by twice that bound
    # (a generator reaching far past the curve, say) reads d^2 itself
    scan[:, ~finite] = np.inf
    every, low = np.arange(_MEMBERSHIP_SAMPLES), np.argmin(scan, axis=1)
    side = np.clip(low + [[-1], [1]], 0, sp.size - 1)
    gap = np.min(np.where(side == low, np.inf, scan[every, side]), axis=0) - scan[every, low]
    exact = ~(gap > 8.0 * np.finfo(float).eps * (np.max(np.hypot(*q)) + np.hypot(*p)) ** 2)
    scan[exact] = d2(rho[exact, None], height[exact, None], gp, fp)
    # a node whose profile is not finite reads d^2 itself there: inf or NaN
    scan[:, ~finite] = d2(rho[:, None], height[:, None], gp[~finite], fp[~finite])
    rows, k = lowest_local_minima(scan, _MEMBERSHIP_BASINS)
    nodes = np.clip(k + [[-1], [0], [1]], 0, sp.size - 1)
    grid_d2 = d2(rho[rows], height[rows], gp[nodes], fp[nodes])
    # a node where d^2 itself is past the float range gives no candidate
    keep = np.isfinite(grid_d2[1])
    rows, nodes, grid_d2 = rows[keep], nodes[:, keep], grid_d2[:, keep]
    # an end basin has two distinct nodes: its repeated one must not count as
    # a third point of the first parabola
    grid_d2[(nodes == nodes[1]) & (np.arange(3) != 1)[:, None]] = np.inf
    _, refined = minimize_brackets(
        lambda t, i: d2(rho[rows[i]], height[rows[i]], *sigma.profile(t)),
        sp[nodes[0]], sp[nodes[2]], (sp[nodes], grid_d2),
        tol=1e-12 * (sigma.s_hi - sigma.s_lo), steps=_MEMBERSHIP_PARABOLIC_STEPS,
        roundoff=lambda v: _MEMBERSHIP_ROUNDOFF * np.finfo(float).eps * size * np.sqrt(v),
    )
    best = np.full(_MEMBERSHIP_SAMPLES, np.inf)
    np.minimum.at(best, rows, refined)
    i = int(np.argmax(best))
    max_defect = float(np.sqrt(max(best[i], 0.0)))
    return MembershipReport(max_defect < tol, max_defect, float(s_curve[i]))


def check_necessary_conditions(
    sigma: SurfaceOfRevolution, inv: InvariantPair, grid
) -> tuple[float, float]:
    """Max residuals of the two membership conditions

        f' - tau = ((g^2)''/2 - 1)/kappa,
        f'' - tau' = -kappa (g^2)'/2,

    for the surface's profiles and the curve invariants.  The first divides
    by kappa, so kappa must not vanish at any node of the grid: |kappa|
    (s_hi - s_lo) <= ``curves.RELATIVE_ZERO``, against the surface's range."""
    grid = np.asarray(grid, dtype=float)
    kappa = np.asarray(inv.kappa(grid))
    if kappa_branch(kappa, sigma.s_hi - sigma.s_lo) != "general":
        raise ValueError("kappa vanishes on the grid; conditions are singular")
    g2p = sigma.g2.derivative()
    g2pp = g2p.derivative()
    fp = sigma.f.derivative()
    fpp = fp.derivative()
    tau = np.asarray(inv.tau(grid))
    taup = np.asarray(inv.tau.derivative()(grid))
    res1 = np.asarray(fp(grid)) - tau - (0.5 * np.asarray(g2pp(grid)) - 1.0) / kappa
    res2 = np.asarray(fpp(grid)) - taup + kappa * np.asarray(g2p(grid)) / 2.0
    return float(np.max(np.abs(res1))), float(np.max(np.abs(res2)))


def _radicand_critical(kappa, c1, c2, c3g, lo, hi) -> list:
    """(value, s) of g^2 = (-c1 cos(kappa s) + c2 sin(kappa s) + c3g)/kappa
    at its interior extrema in [lo, hi]: where kappa s = t0 + m pi,
    t0 = atan2(-c2, c1), the trigonometric part is -H for even m and +H for
    odd m, H = hypot(c1, c2).  Over a whole period the least g^2 is thus
    (c3g - sign(kappa) H)/kappa."""
    H, t0, period = math.hypot(c1, c2), math.atan2(-c2, c1), 2.0 * math.pi / abs(kappa)
    found = []
    for trig, t in ((-H, t0), (H, t0 + math.pi)):
        periods = (lo - t / kappa) / period  # from one s of the family to lo
        s = t / kappa + math.ceil(periods) * period if math.isfinite(periods) else math.inf
        if s <= hi:
            found.append(((c3g + trig) / kappa, s))
    return found


def generate_surface_constant_kappa(
    kappa: float,
    tau: float,
    c1: float,
    c2: float,
    c3g: float,
    c3f: float,
    interval: tuple[float, float],
) -> SurfaceOfRevolution:
    """Surface admitting a curve of nonzero constant p-curvature:

        g = [(-C1 cos(kappa s) + C2 sin(kappa s) + C3g)/kappa]^(1/2),
        f = tau (s - lo) + (C1 sin(kappa s) + C2 cos(kappa s))/(2 kappa)
            - s/kappa + C3f,

    for a constant tau, whose integral from the range's start lo is the
    first term of f.

    The two integration constants are deliberately independent (c3g, c3f).
    Only the nonnegative branch of g is produced; a radicand that is
    negative anywhere on the range (its least value is found exactly, at the
    ends and at the extrema of the trigonometric part), a
    profile that is not finite on the range and a parameter that is not
    finite are errors naming the offending s or parameter.  g^2 and f are
    parsed from the text ``to_json`` prints."""
    require_finite(kappa=kappa, tau=tau, c1=c1, c2=c2, c3g=c3g, c3f=c3f)
    if kappa == 0.0:
        raise ValueError("kappa must be a nonzero constant")
    lo, hi = _profile_range(interval)
    k = repr(float(kappa))
    g2_text = (
        f"(-({repr(float(c1))})*cos(({k})*s) + ({repr(float(c2))})*sin(({k})*s)"
        f" + ({repr(float(c3g))}))/({k})"
    )
    f_text = (
        f"({repr(float(tau))})*(s - ({repr(lo)})) + "
        f"(({repr(float(c1))})*sin(({k})*s) + ({repr(float(c2))})*cos(({k})*s))"
        f"/(2*({k})) - s/({k}) + ({repr(float(c3f))})"
    )
    g2, f = as_field(g2_text), as_field(f_text)
    grid = np.linspace(lo, hi, 4097)  # the sign scan's; the exact extrema join it below
    radicand = np.asarray(g2(grid))
    require_finite(grid, g=radicand, f=f(grid))
    least, bad = min([(float(np.min(radicand)), float(grid[np.argmin(radicand)]))]
                     + _radicand_critical(kappa, c1, c2, c3g, lo, hi))
    if least < 0.0:
        raise ValueError(
            f"negative radicand for g at s = {bad}: the profile is not real there"
        )
    return SurfaceOfRevolution(
        g2, f, lo, hi, g_text=f"sqrt({g2_text})", f_text=f_text
    )


def generate_surface_constant_tau(
    inv: InvariantPair,
    constants: CesaroConstants,
    interval: tuple[float, float] = (0.0, 1.0),
    g2_const: float = 0.0,
    f_const: float = 0.0,
) -> SurfaceOfRevolution:
    """Surface admitting a curve of constant tau and a kappa that is not
    identically zero (not necessarily constant, and nonzero at the left
    endpoint as ``cesaro_closed_form`` requires):

        g^2 = -2 integral(u1) + g2_const,
        f   = integral((-u1' - 1)/kappa + tau) + f_const,

    with u1 the closed-form coefficient and both integrals from the
    interval's left endpoint.  Both are read off the solution's curve
    (x, y, z), which starts at (-Qx, -Qy, f_const): -2 u1 = (x^2 + y^2)',
    so g^2 = (g2_const - |Q|^2) + x^2 + y^2, the surface swept by the
    curve with its squared radius shifted by a constant; by the first
    system equation the f-integrand equals tau - u2 = z', so f = z.  g^2
    is summed as g2_const + (x^2 - Qx^2) + (y^2 - Qy^2), whose brackets
    vanish exactly at lo, where the curve is -Q bit for bit, so g^2(lo) is
    g2_const.
    tau is constant exactly when its derivative
    folds to the number 0, with no tolerance and no unit (``s - s`` is,
    ``1e-9*sin(s)`` is not).  A non-finite parameter, tau or profile is an
    error naming it."""
    require_finite(c1=constants.c1, c2=constants.c2, c3=constants.c3, c4=constants.c4,
                   c5=constants.c5, c6=constants.c6, g2_const=g2_const, f_const=f_const)
    lo, hi = _profile_range(interval)
    if inv.tau.derivative().ast != Num(0.0):
        raise ValueError("tau must be constant for this construction")
    require_finite(tau=inv.tau(lo))
    sol = cesaro_closed_form(inv, constants, (lo, hi), u3_const=-f_const)
    if sol.branch != "general":
        raise ValueError("kappa must not be identically zero for this construction")
    x, y, f = sol.curve.x, sol.curve.y, sol.curve.z
    x0, y0 = float(x(lo)), float(y(lo))  # -Q, exactly
    g2 = g2_const + (x * x - x0 * x0) + (y * y - y0 * y0)
    grid = sol.grid
    g2_vals = np.asarray(g2(grid))
    require_finite(grid, g=g2_vals, f=f(grid))
    if np.min(g2_vals) < 0.0:
        bad = grid[np.argmin(g2_vals)]
        raise ValueError(
            f"squared radius -2*integral(u1) + {g2_const} turns negative "
            f"near s = {bad}"
        )
    return SurfaceOfRevolution(g2, f, lo, hi)


def sphere_horizontal_gap(radius: float, grid) -> np.ndarray:
    """For the round sphere of the given radius and horizontal curves
    (tau = 0): the two membership conditions force two different values of
    kappa,

        kappa1 = (2 R^2 sin^2 s - R^2 + 1)/(R sin s),
        kappa2 = 1/(R sin s),

    whose gap vanishes only where sin^2 s = 1/2.  Returns rows (s, gap)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    s = np.asarray(grid, dtype=float)
    if np.any(s <= 0.0) or np.any(s >= np.pi):
        raise ValueError("grid must lie inside (0, pi)")
    R = float(radius)
    sin = np.sin(s)
    kappa1 = (2 * R * R * sin * sin - R * R + 1.0) / (R * sin)
    kappa2 = 1.0 / (R * sin)
    return np.stack([s, np.abs(kappa1 - kappa2)], axis=1)


# ---------------------------------------------------------------------------
# The Pansu sphere


@dataclass
class PansuCertificate:
    graph_defect: float
    membership: MembershipReport
    kappa_error: float
    tau_error: float
    north_pole: np.ndarray
    south_pole: np.ndarray

    def to_json(self) -> dict:
        return {
            "graph_defect": self.graph_defect,
            "membership": self.membership.to_json(),
            "kappa_error": self.kappa_error,
            "tau_error": self.tau_error,
            "north_pole": list(self.north_pole),
            "south_pole": list(self.south_pole),
        }


@dataclass
class PansuSphere:
    surface: SurfaceOfRevolution
    geodesic: HorizontalCurve
    certificate: PansuCertificate


def pansu_graph_height(lam: float, rho):
    """Height of the upper graph of the Pansu sphere at plane radius rho."""
    rho = np.asarray(rho, dtype=float)
    lr = np.clip(lam * rho, 0.0, 1.0)
    return (lr * np.sqrt(1.0 - lr * lr) + np.arccos(lr)) / (2.0 * lam * lam)


def pansu_sphere(lam: float, step: float = 1e-3, tol: float = 1e-6) -> PansuSphere:
    """The Pansu sphere: the surface swept by rotating the constant
    p-curvature geodesic (kappa = 2 lam, tau = 0) about the z-axis, equal to
    the union of the graphs of +/- the closed-form height function.

    Returns the generator profile, the pole-to-pole geodesic (x' = cos 2 lam
    s and y' = sin 2 lam s, so s is already its horizontal arc length), and
    a certificate from one sample of it on ``numerics.step_grid(0, pi/lam,
    step)``: (i) its distance to the graphs z = +/-height(rho) within
    1e-8/lam^2, as heights scale by 1/lam^2, to first order
    |dz|/sqrt(1 + height'^2), or rho - 1/lam past the equator, where
    height' is unbounded; (ii) its invariants within 1e-9 of
    2 lam and 0; (iii) its membership in the surface within ``tol``.
    Failing (i) or (ii) raises ValueError; (iii) is a verdict, read from
    ``certificate.membership``."""
    # constants are folded before they enter the trees, as parsing the text
    # sin(2*lam*s)/(4*lam^2) folds them, so the trees and their derivatives
    # evaluate bit for bit like the parsed text
    try:
        four_lam2 = 4 * lam ** 2
    except OverflowError:  # lam ** 2 past the float range
        four_lam2 = math.inf
    if not (lam > 0.0 and 0.0 < four_lam2 < math.inf and math.pi / lam < math.inf):
        raise ValueError("lam must be positive and finite, with 4 lam^2 and pi/lam finite "
                         f"and nonzero, got {lam}")
    two_lam = 2 * lam
    sin = (two_lam * S).apply("sin")
    geo = HorizontalCurve.arc_length(ParamCurve.from_fields(
        sin / two_lam,
        (1 - (two_lam * S).apply("cos")) / two_lam,
        sin / four_lam2 - S / two_lam + math.pi / four_lam2,
        (0.0, np.pi / lam),
    ))
    l = repr(float(lam))
    g_text = f"cos(({l})*s)/({l})"
    f_text = f"(sin(-2*({l})*s) - 2*({l})*s)/(4*({l})^2)"
    surface = SurfaceOfRevolution.from_profiles(
        as_field(g_text),
        as_field(f_text),
        (-np.pi / (2 * lam), np.pi / (2 * lam)),
        g_text=g_text,
        f_text=f_text,
    )

    smp = geo.sample(step_grid(0.0, geo.s_max, step))
    pts = smp.points
    rho = np.hypot(pts[:, 0], pts[:, 1])
    # |height'(rho)| = x^2/(lam w) with x = lam rho and w = sqrt(1 - x^2),
    # so 1/sqrt(1 + height'^2) = lam w/hypot(lam w, x^2)
    x = np.minimum(lam * rho, 1.0)
    lam_w = lam * np.sqrt(1.0 - x * x)
    dz = np.abs(np.abs(pts[:, 2]) - pansu_graph_height(lam, rho))
    graph_defect = float(np.max(np.maximum(dz * lam_w / np.hypot(lam_w, x * x),
                                           rho - 1.0 / lam)))
    kappa_error = float(np.max(np.abs(smp.kappa - 2.0 * lam)))
    tau_error = float(np.max(np.abs(smp.tau)))
    membership = surface_membership(geo, surface, tol=tol)
    cert = PansuCertificate(graph_defect, membership, kappa_error, tau_error, pts[0], pts[-1])
    if graph_defect > 1e-8 / (lam * lam):
        raise ValueError(f"geodesic leaves the graph: defect {graph_defect:.3e}")
    if kappa_error > 1e-9 or tau_error > 1e-9:
        raise ValueError(
            f"geodesic invariants off: dkappa {kappa_error:.3e}, dtau {tau_error:.3e}"
        )
    return PansuSphere(surface, geo, cert)
