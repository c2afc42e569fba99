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
from .numerics import cumulative_simpson, panel_count, require_finite

__all__ = [
    "InitialPose",
    "AlignmentError",
    "reconstruct",
    "reconstruct_curve",
    "find_psh_alignment",
]

_ALIGNMENT_SAMPLES = 200
_INVARIANT_TOL = 1e-4


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


def reconstruct(inv, pose: InitialPose, s_max: float, step: float) -> np.ndarray:
    """The samples (s, x, y, z), one row per node, of the curve with
    invariants ``inv`` and initial pose ``pose`` on [0, s_max], by the
    cascade above, each integral a cumulative Simpson from s = 0 on
    n = ceil(s_max/step) panels (at least 4) and their midpoints.  The n+1
    panel nodes, 4th-order accurate, are ``step_grid(0, s_max, step)`` bit
    for bit: samples of a curve already parametrized by arc length, with
    s_max exact.  phi integrates kappa: the input is invariants, and the
    curve is what this builds.  A coordinate past the float range is
    refused, naming its s."""
    if not (s_max > 0 and step > 0):
        raise ValueError(f"s_max and step must be positive, got {s_max} and {step}")
    n = panel_count(s_max, step, minimum=4)
    s_half = np.linspace(0.0, s_max, 2 * n + 1)  # nodes and midpoints
    kappa = np.asarray(inv.kappa(s_half), dtype=float)
    tau = np.asarray(inv.tau(s_half), dtype=float)
    require_finite(s_half, kappa=kappa, tau=tau)
    dx = s_max / (2 * n)
    p = pose.point
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, at its s
        phi = pose.heading + cumulative_simpson(kappa, dx=dx)
        cos, sin = np.cos(phi), np.sin(phi)
        x = p.x + cumulative_simpson(cos, dx=dx)
        y = p.y + cumulative_simpson(sin, dx=dx)
        z = p.z + cumulative_simpson(tau + y * cos - x * sin, dx=dx)
    require_finite(s_half, x=x, y=y, z=z)
    return np.column_stack([s_half[::2], x[::2], y[::2], z[::2]])


def reconstruct_curve(inv, pose: InitialPose, s_max: float, step: float = 1e-3) -> HorizontalCurve:
    """The curve through the samples of ``reconstruct``, parametrized by arc length."""
    samples = reconstruct(inv, pose, s_max, step)
    return HorizontalCurve.arc_length(ParamCurve.from_samples(*samples.T))


def find_psh_alignment(
    a: HorizontalCurve, b: HorizontalCurve, tol: float = 1e-6
) -> PshTransform:
    """The pseudo-hermitian transformation g with g(a) = b, when the curves
    share invariants (within 1e-4 at 200 points of their common interval);
    raises AlignmentError otherwise.

    The rotation angle is the heading difference at s = 0 and the shift is
    solved from the group law; the result is accepted only if the
    sup-distance of the transformed curve to b is below tol.
    """
    s_hi = min(a.s_max, b.s_max)
    grid = np.linspace(0.0, s_hi, _ALIGNMENT_SAMPLES)
    sa, sb = a.sample(grid), b.sample(grid)
    dk = float(np.max(np.abs(sa.kappa - sb.kappa)))
    dt = float(np.max(np.abs(sa.tau - sb.tau)))
    if dk > _INVARIANT_TOL or dt > _INVARIANT_TOL:
        raise AlignmentError(
            f"invariants differ (max |dkappa| = {dk:.3e}, max |dtau| = {dt:.3e}); "
            "the curves are not congruent"
        )
    # grid[0] = 0: the rotation is the heading difference at the start
    angle = float(sb.heading()[0] - sa.heading()[0])
    # the shift takes the rotated start of a onto the start of b
    a0 = H1Point.from_array(PshTransform(angle, H1Point.origin()).apply(*sa.points[0]))
    shift = left_translate(H1Point.from_array(sb.points[0]), a0.inverse())
    g = PshTransform(angle, shift)
    moved = np.stack(g.apply(*sa.points.T), axis=-1)
    sup = float(np.max(np.linalg.norm(moved - sb.points, axis=1)))
    if sup > tol:
        raise AlignmentError(
            f"alignment failed: sup-distance {sup:.3e} exceeds tol {tol:.3e}"
        )
    return g
