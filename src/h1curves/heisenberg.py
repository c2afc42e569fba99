"""The first Heisenberg group: points, the group law, and the
pseudo-hermitian transformation group (z-axis rotations followed by left
translations), under which kappa and tau are invariant.

Coordinates are the Euclidean coordinates of H ~ R^3 with group law

    (x, y, z) . (a, b, c) = (a + x, b + y, c + z + y*a - x*b),

so left translation by p twists the height by the signed area term.  The
moving frame and J (n = J t) follow from a curve sample's points and unit
velocity, by the formulas of the ``curves`` docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "H1Point",
    "PshTransform",
    "left_translate",
]


@dataclass(frozen=True)
class H1Point:
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if isinstance(v, bool):
                raise TypeError(f"boolean coordinate {name}={v}")
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate {name}={v}")

    @classmethod
    def origin(cls) -> "H1Point":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, arr) -> "H1Point":
        x, y, z = (v if isinstance(v, bool) else float(v) for v in arr)  # a bool is refused
        return cls(x, y, z)

    def inverse(self) -> "H1Point":
        return H1Point(-self.x, -self.y, -self.z)


@dataclass(frozen=True)
class PshTransform:
    """Pseudo-hermitian transformation: rotate (x, y) about the z-axis by
    ``angle`` (z fixed), then left-translate by ``shift``.  Orientation-
    reversing maps are not represented.

    Read as a pose, it maps the origin with heading 0 to a curve's start:
    ``shift`` is the start point and ``angle`` the start heading of the
    unit contact velocity against e1 (``frenet.reconstruct``)."""

    angle: float
    shift: H1Point

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError("non-finite rotation angle")

    def apply(self, x, y, z):
        """The image (x, y, z) of a point.  Only ``+ - *`` touch the
        coordinates, so they may be floats, numpy arrays (the columns of an
        (m, 3) array: ``np.stack(g.apply(*points.T), axis=-1)``) or
        ``ScalarFn`` trees (the components of a curve)."""
        c, s = math.cos(self.angle), math.sin(self.angle)
        x, y = c * x - s * y, s * x + c * y
        p = self.shift
        return x + p.x, y + p.y, z + p.z + p.y * x - p.x * y


def left_translate(p: H1Point, q: H1Point) -> H1Point:
    """Group product p.q, i.e. the left translation of q by p: the angle-0
    ``PshTransform``, exact since cos 0 = 1 and sin 0 = 0."""
    return H1Point(*PshTransform(0.0, p).apply(q.x, q.y, q.z))
