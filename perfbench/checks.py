"""Independent checks of h1curves CLI outputs.

Every check recomputes what the output must satisfy with the benchmark's
own numpy code (``families``), never through h1curves.  Each comparison is
an error over a tolerance; the worst ratio of an output is what the run
reports as ``accuracy.worst_err_ratio``, and a ratio above 1 fails it.

Finite-difference tolerances follow the truncation terms of the stencils
(in arc length s, spacing h): a chord is shorter than its arc by
kappa^2 h^2/24, consecutive chord headings differ by kappa h up to
kappa'' h^2/12, and a central difference is off by h^2/6 times the third
derivative.  ``noise`` is the position error the program is allowed
(solver and resampling), which a difference quotient divides by h once
per order.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

import families as fam

MEMBERSHIP_TOL = 1e-6  # the CLI's default --tol, used by every check op


class Report:
    """Worst error-to-tolerance ratio of each named check on one output."""

    def __init__(self):
        self.ratios: dict[str, float] = {}

    def close(self, name: str, err, tol):
        """err and tol are numbers or arrays of one shape."""
        ratio = np.abs(np.asarray(err, dtype=float)) / tol
        worst = float(np.max(ratio)) if ratio.size else 0.0
        if not math.isfinite(worst):
            worst = math.inf
        self.ratios[name] = max(self.ratios.get(name, 0.0), worst)

    def require(self, name: str, ok: bool):
        self.ratios[name] = max(self.ratios.get(name, 0.0), 0.0 if ok else math.inf)

    def worst(self) -> tuple[float, str]:
        if not self.ratios:
            return 0.0, ""
        name = max(self.ratios, key=self.ratios.get)
        return self.ratios[name], name

    @property
    def ok(self) -> bool:
        return self.worst()[0] <= 1.0


def check(op: dict, text: str) -> Report:
    """Check one op's standard output against what its inputs imply."""
    rep = Report()
    kind = op["check"]["kind"]
    try:
        _CHECKS[kind](op["check"], text, rep)
    except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
        rep.require(f"parse: {type(exc).__name__}: {exc}", False)
    return rep


# ---------------------------------------------------------------------------
# tables


def _table(text: str, fmt: str, columns: list[str], rep: Report) -> np.ndarray:
    if fmt == "csv":
        if text.count("\n") < 4:
            raise ValueError("csv table has fewer than 3 rows")
        header = text.split("\n", 1)[0].split(",")
        rep.require("csv header", header == columns)
        rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    else:
        doc = json.loads(text)
        if "columns" in doc:
            rep.require("json columns", doc["columns"] == columns)
            rows = np.asarray(doc["rows"], dtype=float)
        else:
            rep.require("json samples", doc.get("type") == "samples")
            rows = np.asarray(doc["data"], dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(columns) or rows.shape[0] < 3:
        raise ValueError(f"table has shape {rows.shape}, want (n >= 3, {len(columns)})")
    return rows


def _grid(rep: Report, s: np.ndarray, length: float, step: float, len_tol: float) -> float:
    """The emitted s column is uniform on [0, length] with ceil(length/step)
    panels; returns its spacing."""
    n = len(s) - 1
    want = max(2, math.ceil(length / step))
    rep.require("row count", n in (want, want + 1))  # length may round past a multiple of step
    rep.close("s starts at 0", s[0], 1e-12)
    rep.close("s ends at the curve length", s[-1] - length, len_tol)
    h = s[-1] / n
    rep.close("s uniform", np.diff(s) - h, 1e-9 * h)
    return h


def _chord_checks(rep: Report, h: float, pts: np.ndarray, kappa_at, kmax: float,
                  kss: float, noise: float):
    """Unit contact speed and heading rate = kappa from the emitted xy-track;
    kappa_at holds the expected kappa at interior rows 1..n-1."""
    d = np.diff(pts[:, :2], axis=0)
    chord = np.hypot(d[:, 0], d[:, 1])
    rep.close("unit contact speed", chord / h - 1.0, kmax**2 * h**2 / 12 + 4 * noise / h)
    heading = np.unwrap(np.arctan2(d[:, 1], d[:, 0]))
    rate = np.diff(heading) / h
    rep.close("heading rate = kappa", rate - kappa_at, kss * h**2 / 4 + 8 * noise / h**2)


def _t_identity(rep: Report, h: float, pts: np.ndarray, tau_at, bound: float, noise: float):
    """z' = tau + y x' - x y' by central differences at interior rows."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    dx, dy, dz = ((v[2:] - v[:-2]) / (2 * h) for v in (x, y, z))
    res = dz - tau_at - y[1:-1] * dx + x[1:-1] * dy
    radius = float(np.max(np.hypot(x, y)))
    rep.close("T-identity", res, h**2 / 3 * bound + 4 * (1 + radius) * noise / h)


# ---------------------------------------------------------------------------
# reconstruct


def _reconstruct(c: dict, text: str, rep: Report):
    kappa, tau = fam.make(c["kappa"]), fam.make(c["tau"])
    S, step, pose = c["S"], c["step"], c["pose"]
    rows = _table(text, c["fmt"], ["s", "x", "y", "z"], rep)
    s, pts = rows[:, 0], rows[:, 1:4]
    k0, k1, k2 = kappa.bounds(0.0, S)
    _, _, t2 = tau.bounds(0.0, S)
    radius = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
    # RK4 and the spline resampling of its samples: fourth order in kappa h
    h_rk = S / max(4, math.ceil(S / step))
    noise = 0.2 * (max(k0, 1.0) * h_rk) ** 4 * S * (1 + radius) + 1e-11 * (1 + radius)
    h = _grid(rep, s, S, step, noise + 1e-12 * S)
    rep.close("initial point", pts[0] - np.asarray(pose[:3]), 1e-9 * (1 + radius))
    first = math.atan2(pts[1, 1] - pts[0, 1], pts[1, 0] - pts[0, 0])
    want = pose[3] + float(kappa.f(np.array([0.0]))[0]) * h / 2
    rep.close("initial heading", math.remainder(first - want, 2 * math.pi),
              k1 * h**2 / 3 + 4 * noise / h)
    if c["kappa"][0] == "const":
        exact = fam.constant_curve(c["kappa"][1][0], c["tau"][1][0], pose, s)
        rep.close("closed form", pts - exact, noise)
    _chord_checks(rep, h, pts, kappa.f(s[1:-1]), k0, k2, noise)
    bound = t2 + k0 + 3 * (1 + radius) * (k1 + k0**2)
    _t_identity(rep, h, pts, tau.f(s[1:-1]), bound, noise)


# ---------------------------------------------------------------------------
# analytic


def _exact_tolerances(b: dict, step: float):
    """Position and invariant tolerances of an analytic spec at --step: the
    program accumulates arc length by Simpson on a u-grid of that step, so
    its error is fourth order in the step."""
    h4 = step**4
    return ((1 + b["radius"]) * (1e-11 + 2 * h4),
            (1 + b["kappa"] + b["tau"]) * (1e-10 + 4 * h4))


def _analyze(c: dict, text: str, rep: Report):
    curve = fam.make(c["curve"])
    b = curve.arc_bounds()
    rows = _table(text, c["fmt"], ["s", "x", "y", "z", "kappa", "tau"], rep)
    s, pts, kappa, tau = rows[:, 0], rows[:, 1:4], rows[:, 4], rows[:, 5]
    pos_tol, inv_tol = _exact_tolerances(b, c["step"])
    h = _grid(rep, s, b["length"], c["step"], 1e-9 * b["length"])
    u = curve.u_at(s)
    k_exact, t_exact = curve.invariants(u)
    rep.close("exact points", pts - np.stack(curve.r(u), axis=1), pos_tol)
    rep.close("exact kappa", kappa - k_exact, inv_tol)
    rep.close("exact tau", tau - t_exact, inv_tol)
    _chord_checks(rep, h, pts, kappa[1:-1], b["kappa"], b["kappa_ss"], pos_tol)
    bound = b["tau_ss"] + b["kappa"] + 3 * (1 + b["radius"]) * (b["kappa_s"] + b["kappa"] ** 2)
    _t_identity(rep, h, pts, tau[1:-1], bound, pos_tol)


def _classify(c: dict, text: str, rep: Report):
    tag = json.loads(text)["tag"]
    want = fam.make(c["curve"]).tag
    rep.require(f"tag {tag} == {want}", tag == want)


def _bertrand(c: dict, text: str, rep: Report):
    curve = fam.make(c["curve"])
    b = curve.arc_bounds()
    cols = ["s", "x", "y", "z", "x_bar", "y_bar", "z_bar", "dist"]
    rows = _table(text, c["fmt"], cols, rep)
    s, base, mate, dist = rows[:, 0], rows[:, 1:4], rows[:, 4:7], rows[:, 7]
    pos_tol, _ = _exact_tolerances(b, c["step"])
    h = _grid(rep, s, b["length"], c["step"], 1e-9 * b["length"])
    rep.close("exact base points", base - np.stack(curve.r(curve.u_at(s)), axis=1), pos_tol)
    noise = 1e-9 * (1 + b["radius"])  # the mate is resampled on its own grid
    # the mate's xy-track is the base's translated by a vector of length
    # sqrt(c1^2 + c2^2), so the two share unit contact tangents
    offset = math.hypot(c["c1"], c["c2"])
    rep.close("planar distance", np.hypot(*(mate[:, :2] - base[:, :2]).T) - offset, noise)

    def tangent(p):
        d = (p[2:, :2] - p[:-2, :2]) / (2 * h)
        return d / np.hypot(d[:, 0], d[:, 1])[:, None]

    rep.close("equal unit tangents", tangent(mate) - tangent(base), 4 * noise / h)
    rep.close("dist column", dist - np.linalg.norm(mate - base, axis=1), 1e-12 * (1 + offset))


# ---------------------------------------------------------------------------
# membership


def _pansu(c: dict, text: str, rep: Report):
    lam = c["lam"]
    doc = json.loads(text)
    surface, cert = doc["surface"], doc["certificate"]
    lo, hi = surface["range"]
    rep.close("profile range", np.array([lo, hi]) - np.array([-1, 1]) * np.pi / (2 * lam), 1e-12 / lam)
    s = np.linspace(lo, hi, 2001)
    g, f = fam.eval_text(surface["g"], s), fam.eval_text(surface["f"], s)
    scale = 1.0 / lam**2
    # the profile sweeps the sphere from pole to pole over the equator
    rep.close("profile radius", [g[0], g[-1], np.max(g) - 1 / lam, np.min(g, initial=0.0)], 1e-9 / lam)
    # h(rho) has slope x^2/(lam sqrt(1 - x^2)) at x = lam rho, unbounded at the
    # equator, so the rounding of g (a few ulp) is allowed for through it
    x2 = np.minimum((lam * g) ** 2, 1.0)
    slope = x2 / (lam * np.sqrt(np.maximum(1.0 - x2, 1e-15)))
    rep.close("own height formula", np.abs(f) - fam.pansu_height(lam, g),
              1e-9 * scale + slope * 1e-15 * np.abs(g))
    pole = np.pi / (4 * lam**2)
    rep.close("north pole", np.asarray(cert["north_pole"]) - [0, 0, pole], 1e-9 * (1 + pole))
    rep.close("south pole", np.asarray(cert["south_pole"]) - [0, 0, -pole], 1e-9 * (1 + pole))
    rep.require("geodesic is a member", cert["membership"]["member"] is True)
    rep.close("geodesic defect", cert["membership"]["max_defect"], MEMBERSHIP_TOL)


def _gen_kappa(c: dict, text: str, rep: Report):
    doc = json.loads(text)
    lo, hi = c["lo"], c["hi"]
    rep.close("range", np.array(doc["range"]) - [lo, hi], 1e-12 * (1 + abs(lo) + abs(hi)))
    s = np.linspace(lo, hi, 2001)
    k, tau = c["kappa"], c["tau"]
    # the radius of the constant-(kappa, tau) curve the surface must carry
    phi = c["phi0"] + k * s
    a, b = c["center"]
    g = np.hypot(a + np.sin(phi) / k, b - np.cos(phi) / k)
    f = (tau * (s - lo) + (c["c1"] * np.sin(k * s) + c["c2"] * np.cos(k * s)) / (2 * k)
         - s / k + c["c3f"])
    rep.close("g profile", fam.eval_text(doc["g"], s) - g, 1e-9 * (1 + np.max(g)))
    rep.close("f profile", fam.eval_text(doc["f"], s) - f, 1e-9 * (1 + np.max(np.abs(f))))


def _check(c: dict, text: str, rep: Report):
    doc = json.loads(text)
    rep.require(f"verdict member={c['member']}", doc["member"] is c["member"])
    if c["member"]:
        rep.close("defect within tol", doc["max_defect"], MEMBERSHIP_TOL)
    else:
        rep.close("offset recovered", doc["max_defect"] - c["offset"], 1e-9)


_CHECKS = {
    "reconstruct": _reconstruct,
    "analyze": _analyze,
    "classify": _classify,
    "bertrand": _bertrand,
    "pansu": _pansu,
    "gen_kappa": _gen_kappa,
    "check": _check,
}
