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
rather than a stepping loop.  This cascade is the one place where kappa is
integrated into a heading and the heading into a planar track.  It takes
its caller's uniform nodes and integrates on them and their midpoints, so
every value it returns is composite Simpson: ``reconstruct`` prints the
nodes of ``step_grid(0, s_max, step)``; ``_cascade_curve`` (behind
``reconstruct_curve``, the Cesàro closed forms and ``classify``'s planar
canonical form) keeps phi, x, y and z as ``fields.CubicHermite`` leaves
over those nodes, whose derivatives are the trees above, so every
derivative of the curve is an exact integrand: kappa is exact to
roundoff, and tau to the rounding of the coordinates (eps max|(x, y)|).
All refuse through ``_cascade``, which refuses what no leaf can represent.

The start is a pose, the ``PshTransform`` g with the start heading as
angle and the start point p as shift: g maps the curve from the origin
with heading 0 onto the posed one, as its rotation adds the angle to phi
and keeps tau, and the z-equation's p.y x' - p.x y' integrates to g's
p.y x - p.x y.  ``_cascade`` integrates from p and the angle directly.
"""

from __future__ import annotations

import numpy as np

from .curves import RELATIVE_ZERO, HorizontalCurve, ParamCurve
from .fields import CubicHermite, as_field
from .heisenberg import H1Point, PshTransform, left_translate
from .numerics import cumulative_simpson, require_finite, step_grid

__all__ = [
    "AlignmentError",
    "reconstruct",
    "reconstruct_curve",
    "find_psh_alignment",
]

_ALIGNMENT_SAMPLES = 200
_INVARIANT_TOL = 1e-4


class AlignmentError(ValueError):
    """No pseudo-hermitian transformation maps one curve onto the other."""


def _cascade(inv, pose: PshTransform, nodes: np.ndarray):
    """The cascade on the caller's uniform nodes (at least 2), each integral
    composite Simpson from nodes[0] over them and their midpoints: the
    (values, integrand) samples of phi, x, y and z at the nodes.  Refused:
    nodes that do not increase (naming their range), a midpoint spacing
    whose square underflows, kappa, tau or a coordinate not finite (at its
    s), and coordinates whose rounding exceeds RELATIVE_ZERO of the length."""
    lo, hi = float(nodes[0]), float(nodes[-1])
    if not hi > lo:
        raise ValueError(f"the range [{lo}, {hi}] does not increase")
    grid = np.linspace(lo, hi, 2 * len(nodes) - 1)
    dx = (hi - lo) / (grid.size - 1)
    if dx * dx < np.finfo(float).tiny:
        raise ValueError(f"a node spacing of {dx:.3e} is too fine to interpolate")
    kappa = np.asarray(inv.kappa(grid), dtype=float)
    tau = np.asarray(inv.tau(grid), dtype=float)
    require_finite(grid, kappa=kappa, tau=tau)
    p = pose.shift
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, at its s
        phi = pose.angle + cumulative_simpson(kappa, dx=dx)
        cos, sin = np.cos(phi), np.sin(phi)
        x = p.x + cumulative_simpson(cos, dx=dx)
        y = p.y + cumulative_simpson(sin, dx=dx)
        dz = tau + y * cos - x * sin
        z = p.z + cumulative_simpson(dz, dx=dx)
    require_finite(grid, x=x, y=y, z=z)
    size = max(np.max(np.abs(x)), np.max(np.abs(y)))
    if np.finfo(float).eps * size > RELATIVE_ZERO * (hi - lo):
        raise ValueError(f"coordinates up to {size:.3e} cannot resolve a length of {hi - lo:g}")
    return tuple((v[::2], f[::2]) for v, f in ((phi, kappa), (x, cos), (y, sin), (z, dz)))


def reconstruct(inv, pose: PshTransform, s_max: float, step: float) -> np.ndarray:
    """The samples (s, x, y, z) of the curve with invariants ``inv`` whose
    pose (see above) is ``pose``, at the nodes of ``step_grid(0, s_max,
    step)``, from the cascade on them, 4th-order accurate; s_max is exact,
    so the curve is already parametrized by arc length."""
    nodes = step_grid(0.0, s_max, step)
    _, (x, _), (y, _), (z, _) = _cascade(inv, pose, nodes)
    return np.column_stack([nodes, x, y, z])


def _cascade_curve(inv, pose: PshTransform, nodes: np.ndarray) -> ParamCurve:
    """The cascade's curve on the caller's nodes, a tree over its own
    integrals, with phi, x, y and z leaves over those nodes whose
    derivatives are their integrands' trees."""
    integrals = _cascade(inv, pose, nodes)
    phi = as_field(CubicHermite(nodes, *integrals[0], inv.kappa))
    cos, sin = phi.apply("cos"), phi.apply("sin")
    x, y = (as_field(CubicHermite(nodes, *v, f)) for v, f in zip(integrals[1:3], (cos, sin)))
    z = CubicHermite(nodes, *integrals[3], inv.tau + y * cos - x * sin)
    return ParamCurve(x, y, z, float(nodes[0]), float(nodes[-1]))


def reconstruct_curve(inv, pose: PshTransform, s_max: float, step: float = 1e-3) -> HorizontalCurve:
    """The curve of ``reconstruct`` as a tree, parametrized by arc length."""
    return HorizontalCurve.arc_length(_cascade_curve(inv, pose, step_grid(0.0, s_max, step)))


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
    (ax, ay, _), (bx, by, _) = sa.velocity[0], sb.velocity[0]
    angle = float(np.arctan2(by, bx) - np.arctan2(ay, ax))
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
