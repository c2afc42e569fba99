"""Curve reconstruction from prescribed invariants (the fundamental theorem
of curves) and alignment of equal-invariant curves by a pseudo-hermitian
transformation.

The 12-dimensional frame system collapses to four states: with phi the
heading of the unit contact velocity against e1,

    x' = cos(phi),  y' = sin(phi),  phi' = kappa(s),
    z' = tau(s) + y cos(phi) - x sin(phi),

where the z-equation is the T-component identity -x'y + xy' + z' = tau
solved for z'.  The contact constraint |r'_xi| = 1 then holds exactly and
frame orthonormality cannot drift.  The system is triangular (phi, then x
and y, then z), so it is solved by successive cumulative quadratures
rather than a stepping loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import HorizontalCurve, ParamCurve
from .heisenberg import H1Point, PshTransform, left_translate
from .numerics import cumulative_simpson, panel_count

__all__ = [
    "InitialPose",
    "AlignmentError",
    "planar_cascade",
    "reconstruct",
    "find_psh_alignment",
]


@dataclass(frozen=True)
class InitialPose:
    """Starting point and heading angle of the unit contact velocity."""

    point: H1Point
    heading: float

    def __post_init__(self):
        if not math.isfinite(self.heading):
            raise ValueError("non-finite heading")

    @classmethod
    def origin(cls, heading: float = 0.0) -> "InitialPose":
        return cls(H1Point.origin(), heading)


class AlignmentError(ValueError):
    """No pseudo-hermitian transformation maps one curve onto the other."""


def planar_cascade(kappa, dx: float, heading: float = 0.0, x0: float = 0.0, y0: float = 0.0):
    """The unit-speed plane curve of curvature ``kappa``, sampled on a
    uniform grid of spacing dx: phi = heading + int kappa, then
    x = x0 + int cos(phi) and y = y0 + int sin(phi), each a cumulative
    Simpson from the first node.  Returns (x, y, cos(phi), sin(phi))."""
    phi = heading + cumulative_simpson(kappa, dx=dx, initial=0.0)
    cos, sin = np.cos(phi), np.sin(phi)
    x = x0 + cumulative_simpson(cos, dx=dx, initial=0.0)
    y = y0 + cumulative_simpson(sin, dx=dx, initial=0.0)
    return x, y, cos, sin


def reconstruct(
    inv, pose: InitialPose, s_max: float, step: float = 1e-3
) -> HorizontalCurve:
    """The curve with invariants ``inv`` and initial pose ``pose`` on
    [0, s_max], by the planar cascade and z = z0 + int (tau + y cos(phi) -
    x sin(phi)) on n = ceil(s_max/step) panels (at least 4) and their
    midpoints.  The n+1 panel nodes, 4th-order accurate, are the samples of
    a curve already parametrized by arc length, with s_max exact."""
    if not (s_max > 0 and step > 0):
        raise ValueError(f"s_max and step must be positive, got {s_max} and {step}")
    n = panel_count(s_max, step, minimum=4)
    s_half = np.linspace(0.0, s_max, 2 * n + 1)  # nodes and midpoints
    kappa = np.asarray(inv.kappa(s_half), dtype=float)
    tau = np.asarray(inv.tau(s_half), dtype=float)
    if not (np.all(np.isfinite(kappa)) and np.all(np.isfinite(tau))):
        raise ValueError("invariants are not finite on [0, s_max]")
    dx = s_max / (2 * n)
    p = pose.point
    x, y, cos, sin = planar_cascade(kappa, dx, pose.heading, p.x, p.y)
    z = p.z + cumulative_simpson(tau + y * cos - x * sin, dx=dx, initial=0.0)
    curve = ParamCurve.from_samples(s_half[::2], x[::2], y[::2], z[::2])
    return HorizontalCurve.arc_length(curve)


def find_psh_alignment(
    a: HorizontalCurve,
    b: HorizontalCurve,
    tol: float = 1e-6,
    n: int = 200,
    invariant_tol: float = 1e-4,
) -> PshTransform:
    """The pseudo-hermitian transformation g with g(a) = b, when the curves
    share invariants; raises AlignmentError otherwise.

    The rotation angle is the heading difference at s = 0 and the shift is
    solved from the group law; the result is accepted only if the
    sup-distance of the transformed curve to b is below tol.
    """
    s_hi = min(a.s_max, b.s_max)
    grid = np.linspace(0.0, s_hi, n)
    ka, ta_ = a.invariants(grid)
    kb, tb_ = b.invariants(grid)
    dk = float(np.max(np.abs(ka - kb)))
    dt = float(np.max(np.abs(ta_ - tb_)))
    if dk > invariant_tol or dt > invariant_tol:
        raise AlignmentError(
            f"invariants differ (max |dkappa| = {dk:.3e}, max |dtau| = {dt:.3e}); "
            "the curves are not congruent"
        )
    angle = float(b.heading(0.0) - a.heading(0.0))
    rot = PshTransform(angle, H1Point.origin())
    a0 = H1Point.from_array(a.point(0.0))
    b0 = H1Point.from_array(b.point(0.0))
    shift = left_translate(b0, rot.apply(a0).inverse())
    g = PshTransform(angle, shift)
    moved = g.apply_array(a.point(grid))
    sup = float(np.max(np.linalg.norm(moved - b.point(grid), axis=1)))
    if sup > tol:
        raise AlignmentError(
            f"alignment failed: sup-distance {sup:.3e} exceeds tol {tol:.3e}"
        )
    return g
