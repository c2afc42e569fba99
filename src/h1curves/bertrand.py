"""Bertrand mates: pairs of horizontally regular curves sharing the unit
normal field (equivalently the unit tangent field, since n = J t).

Every horizontally regular curve has mates.  The mate

    r_bar = r + u1 t + u2 n + u3 b

is assembled componentwise in coordinates with the frame entering through
its left-invariant components (x', y', 0), (-y', x', 0), (0, 0, 1); under
this reading, and only under it, the mate's measured contact normality
equals the one it was built to carry (adding the Euclidean frame vectors
instead shifts it by -u2).  The paper's offsets are, for kappa == 0,
constants u1 = c1, u2 = c2 and a free vertical offset u3 = g(s) (the mate
then has tau_bar = tau - c2 + g'); for kappa != 0, with theta the
antiderivative of kappa,

    u1 = c1 sin(theta) + c2 cos(theta),
    u2 = c1 cos(theta) - c2 sin(theta),
    u3 = integral(u2 - tau + tau_bar),

where the mate's contact normality tau_bar is a free choice (the family is
infinite dimensional; the default keeps tau).  In both branches (u1, u2)
are the frame components u1 = d.t, u2 = d.n of one fixed planar vector
d = u1(0) t(0) + u2(0) n(0): the unit contact velocity turns by theta, so
these are the forms above, and the mate's planar track is the base's
translated by d.  The constants map to d through (u1(0), u2(0)) = (c2, c1)
when kappa is not identically zero and (c1, c2) when it is.  So no heading
angle is needed and a kappa that crosses zero is no exception.  The mate
shares the parameter (ds_bar/ds = 1), keeps kappa, and sits at constant
contact-plane distance |d| = sqrt(c1^2 + c2^2) from the base curve; the
full Euclidean distance is sqrt(c1^2 + c2^2 + u3^2) pointwise.

``mate_residuals`` measures these facts on the arrays the mate was built
as, with derivatives by ``numerics.fd4_first`` on its grid: the unit
contact speed, the carried tau_bar, the shared tangent and the
contact-plane distance.  Tangents are compared in basis components (the
left-invariant frame), the identification under which the shared-normal
condition is stated; n = J t, so a shared tangent is a shared normal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import HorizontalCurve, kappa_branch
from .expressions import EvalDomainError
from .fields import as_field
from .numerics import FD4_CENTRED, cumulative_simpson, fd4_first, require_finite, step_grid

__all__ = [
    "BertrandSpec",
    "BertrandMate",
    "MateResiduals",
    "bertrand_mate",
    "mate_residuals",
]


@dataclass
class BertrandSpec:
    """Offsets of a mate: contact constants c1, c2 plus either the desired
    tau_bar (kappa != 0 branch) or the vertical offset g(s) (kappa == 0);
    an offset text that does not parse is a bad offset expression."""

    c1: float
    c2: float
    tau_bar: Optional[object] = None
    g: Optional[object] = None

    def __post_init__(self):
        for name in ("tau_bar", "g"):
            value = getattr(self, name)
            if value is not None:
                try:
                    setattr(self, name, as_field(value))
                except ValueError as exc:
                    raise ValueError(f"bad offset expression {name}: {exc}") from exc
        require_finite(c1=self.c1, c2=self.c2)


@dataclass
class BertrandMate:
    """A constructed mate with its build data: the grid it was built on, the
    base and mate points there, their distances and the frame offsets.
    ``mate_residuals`` measures it."""

    spec: BertrandSpec
    branch: str  # "zero-kappa" | "general"
    grid: np.ndarray
    base: np.ndarray  # base curve points on the grid, shape (m, 3)
    points: np.ndarray  # mate points on the grid, shape (m, 3)
    dist: np.ndarray  # |points - base| on the grid, shape (m,)
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    tau_bar: np.ndarray  # contact normality the mate was built to carry


def _offset(field, name: str, grid) -> np.ndarray:
    """An offset field on the grid; a failed evaluation is a bad offset."""
    try:
        values = np.asarray(field(grid), dtype=float)
    except EvalDomainError as exc:
        raise ValueError(f"bad offset expression {name}: {exc}") from exc
    require_finite(grid, **{f"bad offset expression {name}": values})
    return values


def bertrand_mate(h: HorizontalCurve, spec: BertrandSpec, step: float = 1e-3) -> BertrandMate:
    """Construct the mate of ``h`` for the given offsets.

    The mate is built on ``numerics.step_grid(0, S, step)`` from one
    ``h.sample`` there: the base and mate points on that grid are kept, the
    fixed vector d comes from the first sample's unit velocity, and u3 of
    the general branch is a cumulative Simpson integral on the grid (error
    O(step^4)).  The branch is "zero-kappa" when max |kappa| S <=
    RELATIVE_ZERO and "general" otherwise.  Refused: an offset of the other
    branch (g on "general", tau_bar on "zero-kappa"), and a mate point, or
    a distance |r_bar - r| of a pair, that is not finite.
    """
    grid = step_grid(0.0, h.s_max, step)
    smp = h.sample(grid)
    if kappa_branch(smp.kappa, h.s_max) == "zero-kappa":
        branch, a1, a2 = "zero-kappa", spec.c1, spec.c2
        if spec.g is None:
            raise ValueError("the kappa == 0 branch needs the vertical offset g")
        if spec.tau_bar is not None:
            raise ValueError("the kappa == 0 branch takes g, not the offset tau_bar")
        g, dg = _offset(spec.g, "g", grid), _offset(spec.g.derivative(), "g'", grid)
    else:
        branch, a1, a2 = "general", spec.c2, spec.c1
        if spec.g is not None:
            raise ValueError("the kappa != 0 branch takes tau_bar, not the vertical offset g")
        tau_bar = smp.tau if spec.tau_bar is None else _offset(spec.tau_bar, "tau_bar", grid)

    tx, ty = smp.velocity[:, 0], smp.velocity[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # offsets near the float range
        dx, dy = a1 * tx[0] - a2 * ty[0], a1 * ty[0] + a2 * tx[0]  # a1 t(0) + a2 n(0)
        u1, u2 = dx * tx + dy * ty, dy * tx - dx * ty
        if branch == "zero-kappa":
            u3, tau_bar = g, smp.tau - u2 + dg
        else:
            u3 = cumulative_simpson(u2 - smp.tau + tau_bar, dx=h.s_max / (grid.size - 1))
        mate_pts = smp.points + np.column_stack([np.full_like(grid, dx),
                                                 np.full_like(grid, dy), u3])
        dist = np.linalg.norm(mate_pts - smp.points, axis=1)  # past about 1e154: inf
    require_finite(grid, mate=mate_pts.T)
    if not np.all(np.isfinite(dist)):
        raise ValueError(f"mate distance overflows near s = {grid[np.argmin(np.isfinite(dist))]}")
    return BertrandMate(spec, branch, grid, smp.points, mate_pts, dist, u1, u2, u3, tau_bar)


@dataclass(frozen=True)
class MateResiduals:
    """The largest deviation of each fact a mate was built to carry, on its
    grid."""

    speed: float  # | |(x_bar', y_bar')| - 1 |: s is the mate's horizontal arc length
    tau_bar: float  # |x_bar y_bar' - x_bar' y_bar + z_bar' - tau_bar|
    align: float  # |t_bar - t| in basis components: the shared tangent and normal
    distance: float  # |planar |r_bar - r| - sqrt(c1^2 + c2^2)|


def mate_residuals(mate: BertrandMate) -> MateResiduals:
    """The ``MateResiduals`` of a mate, from its grid, base and mate points,
    tau_bar and spec alone; d/ds by ``numerics.fd4_first`` on the grid, error
    O(step^4).  Every derivative is read at ``numerics.FD4_CENTRED``, where
    the stencil is centred: the one-sided edge rows turn the alternating
    error of u3's cumulative Simpson nodes into O(step^3), and their weights
    (summing to 17.1 in magnitude, against 1.5) amplify rounding about 11
    times."""
    step = mate.grid[1] - mate.grid[0]
    xp, yp = (fd4_first(column, step)[FD4_CENTRED] for column in mate.base[:, :2].T)
    xbp, ybp, zbp = (fd4_first(column, step)[FD4_CENTRED] for column in mate.points.T)
    xb, yb = mate.points[FD4_CENTRED, 0], mate.points[FD4_CENTRED, 1]
    delta = mate.points - mate.base
    return MateResiduals(
        speed=float(np.max(np.abs(np.hypot(xbp, ybp) - 1.0))),
        tau_bar=float(np.max(np.abs(xb * ybp - xbp * yb + zbp - mate.tau_bar[FD4_CENTRED]))),
        align=float(np.max(np.hypot(xbp - xp, ybp - yp))),
        distance=float(np.max(np.abs(np.hypot(delta[:, 0], delta[:, 1])
                                     - np.hypot(mate.spec.c1, mate.spec.c2)))),
    )
