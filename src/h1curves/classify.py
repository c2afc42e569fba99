"""Classification of curves by which frame plane contains their position
vectors.

For a horizontally regular curve with frame coefficients
(u1~, u2~, u3~) = (xx' + yy', yx' - xy', z):

  * u3~ == 0 (position in span{t, n}): the curve lies on the xy-plane; it
    is a line when kappa == 0, otherwise a plane curve that is never a
    line.
  * u2~ == 0 (position in span{t, b}): the curve lies on a vertical plane
    c3 x = c2 y through the z-axis, x = c2(s + c1), y = c3(s + c1),
    z = integral(tau).
  * u1~ == 0 (position in span{n, b}): a circular helix about the z-axis,
    x = c3 sin(s/c1) + c4 cos(s/c1), y = c3 cos(s/c1) - c4 sin(s/c1),
    z = c1 s + c2 + integral(tau), with kappa = -1/c1 and radius
    sqrt(c3^2 + c4^2).

Coefficient vanishing alone is numerically fragile, so each candidate must
also pass the fit of its canonical form before the tag is returned.  Every
threshold is homogeneous in the curve's horizontal length l = S: kappa l
against ``RELATIVE_ZERO``, horizontal lengths (u1~, u2~, tau and the fit
residuals in the xy-plane) against tol l, heights (u3~, z) against tol l^2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .curves import HorizontalCurve, InvariantPair, ParamCurve, kappa_branch
from .expressions import S
from .fields import antiderivative
from .frenet import InitialPose, _cascade_curve
from .heisenberg import H1Point
from .numerics import ANTIDERIVATIVE_PANELS, cumulative_simpson

__all__ = [
    "ClassTag",
    "PositionClass",
    "AmbiguousClassificationError",
    "classify_position",
    "make_canonical",
]

_VERDICT_SAMPLES = 400


class ClassTag(enum.Enum):
    LINE_IN_XY_PLANE = "LineInXYPlane"
    PLANAR_CURVE_XY = "PlanarCurveXY"
    VERTICAL_PLANE_CURVE = "VerticalPlaneCurve"
    CIRCULAR_HELIX = "CircularHelix"
    GENERAL = "General"


@dataclass
class PositionClass:
    tag: ClassTag
    witness: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "tag": self.tag.value,
            "witness": self.witness,
            "residuals": self.residuals,
        }


class AmbiguousClassificationError(ValueError):
    def __init__(self, candidates):
        self.candidates = candidates
        names = ", ".join(t.value for t in candidates)
        super().__init__(
            f"coefficients vanish for [{names}] but no canonical fit passed"
        )


def classify_position(h: HorizontalCurve, tol: float = 1e-6) -> PositionClass:
    """Tag the curve by the vanishing frame coefficient, confirmed by the
    canonical fit, both read at 400 points.  Thresholds are relative to the
    horizontal length l = S: u1~ and u2~ count as zero below tol * l, u3~
    below tol * l^2, kappa at or below RELATIVE_ZERO / l."""
    grid = np.linspace(0.0, h.s_max, _VERDICT_SAMPLES)
    smp = h.sample(grid)
    u1, u2, u3 = smp.coefficients()
    kappa, tau, pts = smp.kappa, smp.tau, smp.points
    thresh = tol * h.s_max  # lengths; heights compare with thresh * S

    candidates = []
    if np.max(np.abs(u3)) < thresh * h.s_max:
        if kappa_branch(kappa, h.s_max) == "zero-kappa":
            candidates.append(ClassTag.LINE_IN_XY_PLANE)
        else:
            candidates.append(ClassTag.PLANAR_CURVE_XY)
    if np.max(np.abs(u2)) < thresh:
        candidates.append(ClassTag.VERTICAL_PLANE_CURVE)
    if np.max(np.abs(u1)) < thresh:
        candidates.append(ClassTag.CIRCULAR_HELIX)

    for tag in candidates:
        fit = _FITTERS[tag](grid, pts, u1, u2, u3, kappa, tau, thresh, h)
        if fit is not None:
            return fit
    if candidates:
        raise AmbiguousClassificationError(candidates)
    return PositionClass(ClassTag.GENERAL, witness={}, residuals={
        "min_u1": float(np.min(np.abs(u1))),
        "min_u2": float(np.min(np.abs(u2))),
        "min_u3": float(np.min(np.abs(u3))),
    })


def _fit_line(grid, pts, u1, u2, u3, kappa, tau, thresh, h):
    direction = pts[-1, :2] - pts[0, :2]
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        return None
    d = direction / norm
    across = pts[:, 0] * (-d[1]) + pts[:, 1] * d[0]
    offset = float(np.mean(across))
    line_residual = float(np.max(np.abs(across - offset)))
    tau_spread = float(np.max(tau) - np.min(tau))
    if line_residual > thresh or tau_spread > 100 * thresh:
        return None
    heading = float(np.arctan2(d[1], d[0]) % np.pi)
    closest = offset * np.array([-d[1], d[0]])
    return PositionClass(
        ClassTag.LINE_IN_XY_PLANE,
        witness={
            "heading": heading,
            "closest_point": [float(closest[0]), float(closest[1])],
            "tau": float(np.mean(tau)),
        },
        residuals={
            "line": line_residual,
            "max_z": float(np.max(np.abs(pts[:, 2]))),
            "tau_spread": tau_spread,
        },
    )


def _fit_planar(grid, pts, u1, u2, u3, kappa, tau, thresh, h):
    # the xy-plane case with kappa != 0: position = (tau'/kappa) t - tau n,
    # so u2~ = -tau holds pointwise and the curve is never a line
    tau_residual = float(np.max(np.abs(u2 + tau)))
    if tau_residual > 1e-4 * (h.s_max + float(np.max(np.abs(tau)))):
        return None
    eps = 1e-4 * h.s_max
    interior = (grid > grid[0] + eps) & (grid < grid[-1] - eps)
    taup = np.gradient(tau, grid)
    f_residual = float(np.max(np.abs((u1 * kappa - taup)[interior])))
    return PositionClass(
        ClassTag.PLANAR_CURVE_XY,
        witness={"max_kappa": float(np.max(np.abs(kappa)))},
        residuals={
            "max_z": float(np.max(np.abs(pts[:, 2]))),
            "normal_coefficient_plus_tau": tau_residual,
            "tangent_coefficient_fit": f_residual,
        },
    )


def _fit_vertical(grid, pts, u1, u2, u3, kappa, tau, thresh, h):
    # projections must sit on the line through the origin along the chord,
    # whose direction is the direction of motion, as in _fit_line
    xy = pts[:, :2]
    direction = xy[-1] - xy[0]
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        return None
    d = direction / norm
    plane_residual = float(np.max(np.abs(xy @ np.array([-d[1], d[0]]))))
    if plane_residual > thresh:
        return None
    along = xy @ d
    c1 = float(np.mean(along - grid))
    linear_residual = float(np.max(np.abs(along - grid - c1)))
    return PositionClass(
        ClassTag.VERTICAL_PLANE_CURVE,
        witness={
            "c1": c1,
            "c2": float(d[0]),
            "c3": float(d[1]),
            "plane_angle": float(np.arctan2(d[1], d[0]) % np.pi),
        },
        residuals={"plane": plane_residual, "linear": linear_residual},
    )


def _fit_helix(grid, pts, u1, u2, u3, kappa, tau, thresh, h):
    rho = np.hypot(pts[:, 0], pts[:, 1])
    radius = float(np.mean(rho))
    radius_residual = float(np.max(np.abs(rho - radius)))
    kappa_mean = float(np.mean(kappa))
    kappa_residual = float(np.max(np.abs(kappa - kappa_mean)))
    if radius_residual > thresh or kappa_residual > 1e-4 * (1.0 / h.s_max + abs(kappa_mean)):
        return None
    if kappa_mean == 0.0:
        return None
    c1 = -1.0 / kappa_mean
    tau_integral = cumulative_simpson(tau, dx=h.s_max / (grid.size - 1))
    drift = pts[:, 2] - tau_integral
    pitch = float(np.polyfit(grid, drift, 1)[0])
    c2 = float(np.mean(drift - pitch * grid))
    pitch_residual = float(np.max(np.abs(drift - pitch * grid - c2)))
    # z - integral(tau) of a helix is affine in s, so the residual is the
    # quadrature error of integral(tau) and the rounding of both terms, which
    # a height far above S^2 lifts far above thresh * S.  A height off the
    # affine fit by more than that rounding and thresh * S, the bound on
    # heights, is off the canonical form.
    rounding = grid.size * np.finfo(float).eps * (np.max(np.abs(tau_integral))
                                                  + np.max(np.abs(pts[:, 2])))
    if pitch_residual > thresh * h.s_max + rounding:
        return None
    return PositionClass(
        ClassTag.CIRCULAR_HELIX,
        witness={"radius": radius, "c1": c1, "pitch": pitch, "c2": c2},
        residuals={
            "radius": radius_residual,
            "kappa": kappa_residual,
            "pitch": pitch_residual,
        },
    )


_FITTERS = {
    ClassTag.LINE_IN_XY_PLANE: _fit_line,
    ClassTag.PLANAR_CURVE_XY: _fit_planar,
    ClassTag.VERTICAL_PLANE_CURVE: _fit_vertical,
    ClassTag.CIRCULAR_HELIX: _fit_helix,
}


# ---------------------------------------------------------------------------
# Canonical representatives


def make_canonical(tag: ClassTag, interval: tuple[float, float], **params) -> ParamCurve:
    """Closed-form representative for a tag, as displayed by the case
    analysis (arbitrary parametrization; reparametrize before
    classifying).

    Parameters by tag:
      LINE_IN_XY_PLANE: heading, offset=(bx, by)
      PLANAR_CURVE_XY: kappa (expression), x0, y0, heading
      VERTICAL_PLANE_CURVE: c1, c2, c3, tau
      CIRCULAR_HELIX: c1 != 0, c2, c3, c4, tau  (unit contact speed needs
        c3^2 + c4^2 = c1^2; the fitted c1 after reparametrization is
        -1/kappa regardless)
    """
    lo, hi = (float(v) for v in interval)
    if not hi > lo:
        raise ValueError(f"degenerate interval [{lo}, {hi}]")
    grid = np.linspace(lo, hi, ANTIDERIVATIVE_PANELS + 1)  # of the antiderivative of tau
    if tag is ClassTag.LINE_IN_XY_PLANE:
        heading = float(params.get("heading", 0.0))
        bx, by = params.get("offset", (0.0, 0.0))
        a, c = np.cos(heading), np.sin(heading)
        return ParamCurve.from_fields(bx + a * S, by + c * S, 0.0, (lo, hi))
    if tag is ClassTag.PLANAR_CURVE_XY:
        x0, y0 = (float(params.get(k, 0.0)) for k in ("x0", "y0"))
        pose = InitialPose(H1Point(x0, y0, 0.0), float(params.get("heading", 0.0)))
        c = _cascade_curve(InvariantPair(params["kappa"], 0.0), pose, lo, hi)
        return ParamCurve.from_fields(c.x, c.y, 0.0, (lo, hi))
    if tag is ClassTag.VERTICAL_PLANE_CURVE:
        c1, c2, c3 = (float(params[k]) for k in ("c1", "c2", "c3"))
        tau = antiderivative(params.get("tau", 0.0), grid)
        return ParamCurve.from_fields(c2 * c1 + c2 * S, c3 * c1 + c3 * S, tau, (lo, hi))
    if tag is ClassTag.CIRCULAR_HELIX:
        c1 = float(params["c1"])
        if c1 == 0.0:
            raise ValueError("helix needs c1 != 0")
        c2, c3, c4 = (float(params.get(k, 0.0)) for k in ("c2", "c3", "c4"))
        sin, cos = (S / c1).apply("sin"), (S / c1).apply("cos")
        z = c2 + c1 * S + antiderivative(params.get("tau", 0.0), grid)
        return ParamCurve.from_fields(c3 * sin + c4 * cos, c3 * cos - c4 * sin, z, (lo, hi))
    raise ValueError(f"no canonical form for {tag}")
