"""Bertrand mates: pairs of horizontally regular curves sharing the unit
normal field (equivalently the unit tangent field, since n = J t).

Every horizontally regular curve has mates.  The mate

    r_bar = r + u1 t + u2 n + u3 b

is assembled componentwise in coordinates with the frame entering through
its left-invariant components (x', y', 0), (-y', x', 0), (0, 0, 1); under
this reading, and only under it, the mate's measured contact normality
equals the one it was built to carry (adding the Euclidean frame vectors
instead shifts it by -u2).  The offsets are, for kappa == 0, constants
u1 = c1, u2 = c2 and a free vertical offset u3 = g(s) (the mate then has
tau_bar = tau - c2 + g'); for kappa != 0, with theta the antiderivative of
kappa,

    u1 = c1 sin(theta) + c2 cos(theta),
    u2 = c1 cos(theta) - c2 sin(theta),
    u3 = integral(u2 - tau + tau_bar),

where the mate's contact normality tau_bar is a free choice (the family is
infinite dimensional; the default keeps tau).  In both branches the mate
shares the parameter (ds_bar/ds = 1), keeps kappa, and sits at constant
contact-plane distance sqrt(c1^2 + c2^2) from the base curve; the full
Euclidean distance is sqrt(c1^2 + c2^2 + u3^2) pointwise.

Frame fields of two curves are compared through the left-invariant frame
(basis components), the identification under which the shared-normal
condition is stated.  The mixed pairings t_bar = g n and n_bar = g b are
impossible; ``tangent_normal_residual`` and ``binormal_normal_residual``
quantify how far any candidate pair stays from satisfying them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import HorizontalCurve, ParamCurve
from .fields import as_field
from .numerics import cumulative_simpson

__all__ = [
    "BertrandSpec",
    "BertrandMate",
    "BranchError",
    "FrameRelation",
    "MateDistance",
    "bertrand_mate",
    "mate_distance",
    "check_frame_relation",
    "tangent_normal_residual",
    "binormal_normal_residual",
]

_ZERO_KAPPA_TOL = 1e-8


class BranchError(ValueError):
    """kappa is neither identically zero nor bounded away from zero."""


@dataclass
class BertrandSpec:
    """Offsets of a mate: contact constants c1, c2 plus either the desired
    tau_bar (kappa != 0 branch) or the vertical offset g(s) (kappa == 0)."""

    c1: float
    c2: float
    tau_bar: Optional[object] = None
    g: Optional[object] = None

    def __post_init__(self):
        if self.tau_bar is not None:
            self.tau_bar = as_field(self.tau_bar)
        if self.g is not None:
            self.g = as_field(self.g)


@dataclass
class BertrandMate:
    """A constructed mate with its build data, for verification."""

    curve: HorizontalCurve
    base: HorizontalCurve
    spec: BertrandSpec
    branch: str  # "zero-kappa" | "general"
    grid: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    tau_bar: np.ndarray  # contact normality the mate was built to carry


def _mate_grid(h: HorizontalCurve, n: int | None) -> np.ndarray:
    if n is None:
        n = int(min(20_000, max(1000, np.ceil(h.s_max / 1e-3))))
    return np.linspace(0.0, h.s_max, n + 1)


def bertrand_mate(
    h: HorizontalCurve,
    spec: BertrandSpec,
    n: int | None = None,
    zero_tol: float = _ZERO_KAPPA_TOL,
) -> BertrandMate:
    """Construct the mate of ``h`` for the given offsets.

    The branch is selected by whether max|kappa| < zero_tol; a kappa that
    crosses between regimes on the interval is refused.
    """
    grid = _mate_grid(h, n)
    kappa, tau = h.invariants(grid)
    kmax, kmin = float(np.max(np.abs(kappa))), float(np.min(np.abs(kappa)))
    if kmax < zero_tol:
        branch = "zero-kappa"
        if spec.g is None:
            raise ValueError("the kappa == 0 branch needs the vertical offset g")
        u1 = np.full_like(grid, spec.c1)
        u2 = np.full_like(grid, spec.c2)
        u3 = np.asarray(spec.g(grid), dtype=float)
        gp = np.asarray(spec.g.derivative()(grid), dtype=float)
        tau_bar = tau - spec.c2 + gp
    elif kmin >= zero_tol:
        branch = "general"
        # theta = integral of kappa = unwrapped heading difference; the
        # heading needs only first derivatives and is accurate to roundoff
        heading = np.unwrap(np.asarray(h.heading(grid)))
        theta = heading - heading[0]
        u1 = spec.c1 * np.sin(theta) + spec.c2 * np.cos(theta)
        u2 = spec.c1 * np.cos(theta) - spec.c2 * np.sin(theta)
        tau_bar = np.asarray(
            (spec.tau_bar if spec.tau_bar is not None else h.tau)(grid), dtype=float
        )
        u3 = cumulative_simpson(u2 - tau + tau_bar, x=grid, initial=0.0)
    else:
        raise BranchError(
            f"kappa spans both regimes on [0, {h.s_max:.3g}] "
            f"(min |kappa| = {kmin:.3e}, max = {kmax:.3e}); "
            "split the interval at the sign change"
        )

    pts = h.point(grid)
    v = h.velocity(grid)
    xp, yp = v[:, 0], v[:, 1]
    mate_pts = pts + np.stack(
        [u1 * xp - u2 * yp, u1 * yp + u2 * xp, u3], axis=1
    )
    mate_curve = HorizontalCurve.arc_length(
        ParamCurve.from_samples(grid, mate_pts[:, 0], mate_pts[:, 1], mate_pts[:, 2])
    )
    return BertrandMate(mate_curve, h, spec, branch, grid, u1, u2, u3, tau_bar)


@dataclass
class MateDistance:
    """Separation of a mate from its base curve.

    The invariant constant is the contact-plane offset sqrt(c1^2 + c2^2),
    which equals the Euclidean distance of the xy-projections; the vertical
    frame offset u3 (flagged separately) makes the full R^3 distance
    non-constant in general."""

    contact_mean: float
    contact_deviation: float  # max |planar distance - sqrt(c1^2 + c2^2)|
    euclidean_mean: float
    euclidean_max: float
    b_offset_min: float
    b_offset_max: float


def mate_distance(
    h: HorizontalCurve, mate: BertrandMate, grid=None
) -> MateDistance:
    """Pointwise distances between base and mate on the grid, compared to
    the expected constant sqrt(c1^2 + c2^2)."""
    if grid is None:
        grid = np.linspace(0.0, min(h.s_max, mate.curve.s_max), 400)
    grid = np.asarray(grid, dtype=float)
    delta = mate.curve.point(grid) - h.point(grid)
    planar = np.hypot(delta[:, 0], delta[:, 1])
    euclid = np.linalg.norm(delta, axis=1)
    b_off = delta[:, 2]  # vertical component of the componentwise offset
    expected = float(np.hypot(mate.spec.c1, mate.spec.c2))
    return MateDistance(
        contact_mean=float(np.mean(planar)),
        contact_deviation=float(np.max(np.abs(planar - expected))),
        euclidean_mean=float(np.mean(euclid)),
        euclidean_max=float(np.max(euclid)),
        b_offset_min=float(np.min(b_off)),
        b_offset_max=float(np.max(b_off)),
    )


class FrameRelation(enum.Enum):
    NORMAL_ALIGNED = "NormalAligned"
    NONE = "None"


def _contact_headings(a: HorizontalCurve, b: HorizontalCurve, n: int):
    s_hi = min(a.s_max, b.s_max)
    grid = np.linspace(0.0, s_hi, n)
    va = a.velocity(grid)
    vb = b.velocity(grid)
    return va[:, :2], vb[:, :2]


def check_frame_relation(
    a: HorizontalCurve, b: HorizontalCurve, tol: float = 1e-6, n: int = 200
) -> FrameRelation:
    """NormalAligned iff the normal fields agree pointwise in basis
    components (equivalently the tangents agree, via n = J t)."""
    ta, tb = _contact_headings(a, b, n)
    if float(np.max(np.linalg.norm(tb - ta, axis=1))) < tol:
        return FrameRelation.NORMAL_ALIGNED
    return FrameRelation.NONE


def tangent_normal_residual(a: HorizontalCurve, b: HorizontalCurve, n: int = 100) -> float:
    """How badly the pairing t_b = g(s) n_a fails for the best pointwise g.

    Differentiating the pairing forces the vertical frame row g = 0 while
    unit tangents force |g| = 1, so the residual (the larger of the fit
    defect |t_b - g n_a| and the forced |g|) is bounded below by 1/sqrt(2)
    for every curve pair."""
    ta, tb = _contact_headings(a, b, n)
    na = np.stack([-ta[:, 1], ta[:, 0]], axis=1)
    g = np.sum(tb * na, axis=1)
    fit = np.linalg.norm(tb - g[:, None] * na, axis=1)
    return float(np.max(np.maximum(fit, np.abs(g))))


def binormal_normal_residual(a: HorizontalCurve, b: HorizontalCurve, n: int = 100) -> float:
    """How badly the pairing n_b = g(s) b_a fails: n_b is a unit contact
    vector while b_a is vertical, so the defect is identically 1."""
    ta, tb = _contact_headings(a, b, n)
    nb = np.stack([-tb[:, 1], tb[:, 0]], axis=1)
    # b has no contact part: the best contact-plane approximation of g*b is 0
    return float(np.max(np.linalg.norm(nb, axis=1)))
