"""Input families of the benchmark, each as expression text for the program
and as the benchmark's own numpy code for the checks.

Nothing here imports h1curves: the checks must not trust the code they
check.  Every number is written into expression text in parentheses with
``repr`` so the program parses exactly the double the benchmark evaluates.
"""

from __future__ import annotations

import numpy as np


def num(v: float) -> str:
    return f"({float(v)!r})"


class Scalar:
    """f(s) as expression text plus numpy value and first two derivatives."""

    def __init__(self, text, f, d1, d2):
        self.text = text
        self.f, self.d1, self.d2 = f, d1, d2

    def bounds(self, lo: float, hi: float, n: int = 4001):
        """max |f|, |f'|, |f''| on [lo, hi]."""
        s = np.linspace(lo, hi, n)
        return tuple(float(np.max(np.abs(g(s)))) for g in (self.f, self.d1, self.d2))


def const(c: float) -> Scalar:
    c = float(c)
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))  # noqa: E731
    return Scalar(num(c), lambda s: np.full_like(np.asarray(s, dtype=float), c), zero, zero)


def wave(a: float, b: float, w: float, p: float) -> Scalar:
    """a + b sin(w s + p)."""
    return Scalar(
        f"{num(a)} + {num(b)}*sin({num(w)}*s + {num(p)})",
        lambda s: a + b * np.sin(w * s + p),
        lambda s: b * w * np.cos(w * s + p),
        lambda s: -b * w * w * np.sin(w * s + p),
    )


def decay(a: float, b: float, c: float) -> Scalar:
    """a + b exp(-c s)."""
    return Scalar(
        f"{num(a)} + {num(b)}*exp(-{num(c)}*s)",
        lambda s: a + b * np.exp(-c * s),
        lambda s: -b * c * np.exp(-c * s),
        lambda s: b * c * c * np.exp(-c * s),
    )


def constant_curve(kappa: float, tau: float, pose, s):
    """Closed form of the curve with constant kappa != 0 and tau from the
    pose (x0, y0, z0, heading): the xy-track is a circle of radius 1/|kappa|
    and z follows from z' = tau + y x' - x y'."""
    x0, y0, z0, p0 = pose
    phi = p0 + kappa * s
    x = x0 + (np.sin(phi) - np.sin(p0)) / kappa
    y = y0 - (np.cos(phi) - np.cos(p0)) / kappa
    z = (z0 + tau * s
         + (y0 * (np.sin(phi) - np.sin(p0)) + x0 * (np.cos(phi) - np.cos(p0))) / kappa
         - s / kappa + np.sin(kappa * s) / kappa**2)
    return np.stack([x, y, z], axis=1)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


class Curve:
    """An analytic curve r(u) on [0, u_max] with hand-written derivatives.

    ``tag`` is the position-vector class it was built in.  ``unit_speed``
    curves have u equal to horizontal arc length; for the others ``u_at``
    inverts the arc length, so exact points and invariants at an emitted s
    are known for every family."""

    def __init__(self, texts, r, d1, d2, u_max, tag, unit_speed):
        self.texts = texts
        self.r, self.d1, self.d2 = r, d1, d2
        self.u_max = float(u_max)
        self.tag = tag
        self.unit_speed = unit_speed

    def spec(self) -> dict:
        x, y, z = self.texts
        return {"type": "analytic", "x": x, "y": y, "z": z, "range": [0.0, self.u_max]}

    def length_between(self, a, b):
        """Horizontal arc length from a to b (arrays), 8-point Gauss-Legendre."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        mid, half = (a + b) / 2, (b - a) / 2
        nodes = mid[..., None] + half[..., None] * _GL_X
        xp, yp, _ = self.d1(nodes)
        return half * (np.hypot(xp, yp) @ _GL_W)

    def u_at(self, s, panels: int = 2000):
        """Parameter u at horizontal arc length s: Newton on the arc length
        from the panel node below, started from linear interpolation."""
        s = np.asarray(s, dtype=float)
        if self.unit_speed:
            return s
        grid = np.linspace(0.0, self.u_max, panels + 1)
        sigma = np.concatenate([[0.0], np.cumsum(self.length_between(grid[:-1], grid[1:]))])
        k = np.clip(np.searchsorted(sigma, s, side="right") - 1, 0, panels - 1)
        u = np.interp(s, sigma, grid)
        for _ in range(8):
            xp, yp, _ = self.d1(u)
            u = u - (sigma[k] + self.length_between(grid[k], u) - s) / np.hypot(xp, yp)
        return u

    def invariants(self, u):
        """(kappa, tau) at parameter u by the arbitrary-parametrization formulas."""
        x, y, _ = self.r(u)
        xp, yp, zp = self.d1(u)
        xpp, ypp = self.d2(u)
        speed2 = xp * xp + yp * yp
        kappa = (xp * ypp - xpp * yp) / speed2**1.5
        tau = (x * yp - xp * y + zp) / np.sqrt(speed2)
        return kappa, tau

    def arc_bounds(self, n: int = 20001):  # n odd for Simpson
        """max |kappa|, |kappa_s|, |kappa_ss|, |tau|, |tau_ss|, the radius and
        the total length, derivatives taken in arc length on a fine grid."""
        u = np.linspace(0.0, self.u_max, n)
        xp, yp, _ = self.d1(u)
        speed = np.hypot(xp, yp)
        s = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(u))])
        kappa, tau = self.invariants(u)
        k_s = np.gradient(kappa, s)
        k_ss = np.gradient(k_s, s)
        t_ss = np.gradient(np.gradient(tau, s), s)
        x, y, _ = self.r(u)
        w = np.ones(n)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        return {
            "kappa": float(np.max(np.abs(kappa))),
            "kappa_s": float(np.max(np.abs(k_s))),
            "kappa_ss": float(np.max(np.abs(k_ss[2:-2]))),
            "tau": float(np.max(np.abs(tau))),
            "tau_ss": float(np.max(np.abs(t_ss[2:-2]))),
            "radius": float(np.max(np.hypot(x, y))),
            "length": float(np.dot(w, speed) * (u[1] - u[0]) / 3.0),  # Simpson
        }


def helix(r: float, p: float, c: float, d: float, w: float, u_max: float) -> Curve:
    """Unit-speed helix about the z-axis with a wavy pitch:
    (r cos(u/r + p), r sin(u/r + p), c u + d sin(w u)); kappa = 1/r."""
    def th(u):
        return u / r + p
    return Curve(
        (f"{num(r)}*cos(s/{num(r)} + {num(p)})",
         f"{num(r)}*sin(s/{num(r)} + {num(p)})",
         f"{num(c)}*s + {num(d)}*sin({num(w)}*s)"),
        lambda u: (r * np.cos(th(u)), r * np.sin(th(u)), c * u + d * np.sin(w * u)),
        lambda u: (-np.sin(th(u)), np.cos(th(u)), c + d * w * np.cos(w * u)),
        lambda u: (-np.cos(th(u)) / r, -np.sin(th(u)) / r),
        u_max, "CircularHelix", True,
    )


def circle(a: float, b: float, r: float, p: float, u_max: float) -> Curve:
    """Unit-speed circle of radius r about (a, b) in the xy-plane."""
    def th(u):
        return u / r + p
    zero = np.zeros_like
    return Curve(
        (f"{num(a)} + {num(r)}*cos(s/{num(r)} + {num(p)})",
         f"{num(b)} + {num(r)}*sin(s/{num(r)} + {num(p)})",
         "0"),
        lambda u: (a + r * np.cos(th(u)), b + r * np.sin(th(u)), zero(u)),
        lambda u: (-np.sin(th(u)), np.cos(th(u)), zero(u)),
        lambda u: (-np.cos(th(u)) / r, -np.sin(th(u)) / r),
        u_max, "PlanarCurveXY", True,
    )


def line(bx: float, by: float, h: float, u_max: float) -> Curve:
    """Unit-speed line in the xy-plane through (bx, by) with heading h."""
    ch, sh = np.cos(h), np.sin(h)
    zero = np.zeros_like
    return Curve(
        (f"{num(bx)} + {num(ch)}*s", f"{num(by)} + {num(sh)}*s", "0"),
        lambda u: (bx + ch * u, by + sh * u, zero(u)),
        lambda u: (np.full_like(u, ch), np.full_like(u, sh), zero(u)),
        lambda u: (zero(u), zero(u)),
        u_max, "LineInXYPlane", True,
    )


def vertical(c1: float, alpha: float, d: float, w: float, e: float, u_max: float) -> Curve:
    """Unit-speed curve in the vertical plane through the z-axis at angle
    alpha: (cos(alpha)(u + c1), sin(alpha)(u + c1), d sin(w u) + e u)."""
    c2, c3 = np.cos(alpha), np.sin(alpha)
    zero = np.zeros_like
    return Curve(
        (f"{num(c2)}*(s + {num(c1)})", f"{num(c3)}*(s + {num(c1)})",
         f"{num(d)}*sin({num(w)}*s) + {num(e)}*s"),
        lambda u: (c2 * (u + c1), c3 * (u + c1), d * np.sin(w * u) + e * u),
        lambda u: (np.full_like(u, c2), np.full_like(u, c3), d * w * np.cos(w * u) + e),
        lambda u: (zero(u), zero(u)),
        u_max, "VerticalPlaneCurve", True,
    )


def ellipse(a: float, b: float, c: float, d: float, w: float, u_max: float) -> Curve:
    """(a cos u, b sin u, c u + d sin(w u)); kappa > 0, speed varies."""
    return Curve(
        (f"{num(a)}*cos(s)", f"{num(b)}*sin(s)", f"{num(c)}*s + {num(d)}*sin({num(w)}*s)"),
        lambda u: (a * np.cos(u), b * np.sin(u), c * u + d * np.sin(w * u)),
        lambda u: (-a * np.sin(u), b * np.cos(u), c + d * w * np.cos(w * u)),
        lambda u: (-a * np.cos(u), -b * np.sin(u)),
        u_max, "General", False,
    )


def wobble(a: float, w: float, b: float, v: float, c: float, d: float, u_max: float) -> Curve:
    """(u + a sin(w u), b cos(v u) + c u, d u^2); regular for |a w| < 1."""
    return Curve(
        (f"s + {num(a)}*sin({num(w)}*s)", f"{num(b)}*cos({num(v)}*s) + {num(c)}*s",
         f"{num(d)}*s^2"),
        lambda u: (u + a * np.sin(w * u), b * np.cos(v * u) + c * u, d * u * u),
        lambda u: (1 + a * w * np.cos(w * u), -b * v * np.sin(v * u) + c, 2 * d * u),
        lambda u: (-a * w * w * np.sin(w * u), -b * v * v * np.cos(v * u)),
        u_max, "General", False,
    )


def make(record):
    """Build a Scalar or Curve from a [family, params] record."""
    family, params = record
    return _FAMILIES[family](*params)


_FAMILIES = {
    "const": const, "wave": wave, "decay": decay,
    "helix": helix, "circle": circle, "line": line, "vertical": vertical,
    "ellipse": ellipse, "wobble": wobble,
}


def pansu_height(lam: float, rho):
    """Height of the upper graph of the Pansu sphere of parameter lam at
    plane radius rho <= 1/lam."""
    lr = np.clip(lam * np.asarray(rho, dtype=float), 0.0, 1.0)
    return (lr * np.sqrt(1.0 - lr * lr) + np.arccos(lr)) / (2.0 * lam * lam)


def eval_text(text: str, s):
    """Evaluate expression text emitted by the program with numpy.

    The grammar (numbers, s, pi, + - * / ^, sin cos tan exp log sqrt abs)
    is a subset of Python's once ``^`` becomes ``**``; both make it right
    associative and bind it tighter than unary minus."""
    names = {
        "s": np.asarray(s, dtype=float), "pi": np.pi,
        "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
        "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    }
    allowed = set("0123456789.eE+-*/^() ,") | set("abcdefghijklmnopqrstuvwxyz")
    if not set(text) <= allowed:
        raise ValueError(f"unexpected characters in expression {text!r}")
    code = compile(text.replace("^", "**"), "<expr>", "eval")
    if not set(code.co_names) <= set(names):
        raise ValueError(f"unknown names in expression {text!r}")
    out = eval(code, {"__builtins__": {}}, names)  # noqa: S307 - names are checked above
    return np.broadcast_to(np.asarray(out, dtype=float), np.shape(s)).copy()
