"""Seeded workloads: each is one round of h1curves CLI commands.

A round is a fixed list of slots.  The seed draws every coefficient, pose,
offset and lambda; the slot list itself (command, family, range, step and
format) does not depend on the seed, so every seed asks for the same amount
of work and runs are comparable across seeds.  The program sees only the
JSON spec files written here; the checks receive the parameters through
each op's ``check`` record.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import families as fam

WORKLOADS = ("reconstruct", "membership", "analytic")


def _u(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _sign(rng) -> float:
    return -1.0 if rng.random() < 0.5 else 1.0


def _op(args, check, expect_exit=0):
    return {"args": [str(a) for a in args], "check": check, "expect_exit": expect_exit}


class _Specs:
    """Writes numbered JSON spec files into the work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, doc) -> str:
        name = f"spec{self.count:02d}.json"
        self.count += 1
        (self.workdir / name).write_text(json.dumps(doc), encoding="utf-8")
        return name


# ---------------------------------------------------------------------------
# reconstruct

# (family, S, step, format): RK4 step counts from 100 to 10 000.  Nine
# slots: the middle one (2 000 steps) costs about twice its cheaper
# neighbours and half its dearer ones, so op_p50_ms is the median of that
# one slot's samples.
_RECONSTRUCT_SLOTS = [
    ("const", 2.0, 0.02, "csv"),
    ("wave", 4.0, 0.01, "json"),
    ("decay", 3.0, 0.005, "csv"),
    ("const", 3.0, 0.005, "json"),
    ("wave", 4.0, 0.002, "csv"),
    ("const", 6.0, 0.001, "csv"),
    ("decay", 10.0, 0.002, "json"),
    ("decay", 10.0, 0.001, "json"),
    ("wave", 10.0, 0.001, "csv"),
]


def _intrinsic_pair(kind: str, rng):
    """(kappa, tau) as [family, params] records."""
    sign = _sign(rng)
    if kind == "const":
        return ["const", [sign * _u(rng, 0.5, 2.5)]], ["const", [_u(rng, -1.0, 1.0)]]
    if kind == "wave":
        return (["wave", [sign * _u(rng, 1.0, 2.0), _u(rng, -0.8, 0.8),
                          _u(rng, 0.3, 1.5), _u(rng, -np.pi, np.pi)]],
                ["wave", [_u(rng, -0.5, 0.5), _u(rng, -0.5, 0.5),
                          _u(rng, 0.3, 1.5), _u(rng, -np.pi, np.pi)]])
    return (["decay", [sign * _u(rng, 0.5, 1.5), _u(rng, -1.0, 1.0), _u(rng, 0.2, 1.0)]],
            ["decay", [_u(rng, -0.5, 0.5), _u(rng, -1.0, 1.0), _u(rng, 0.2, 1.0)]])


def _reconstruct_ops(rng, specs: _Specs, scale: float):
    ops = []
    for kind, S, step, fmt in _RECONSTRUCT_SLOTS:
        S = S * scale
        kappa_rec, tau_rec = _intrinsic_pair(kind, rng)
        kappa, tau = fam.make(kappa_rec), fam.make(tau_rec)
        pose = [float(v) for v in rng.uniform(-1.0, 1.0, 3)] + [_u(rng, -np.pi, np.pi)]
        spec = specs.write({
            "type": "intrinsic", "kappa": kappa.text, "tau": tau.text,
            "range": [0.0, S], "initial": {"point": pose[:3], "heading": pose[3]},
        })
        ops.append(_op(
            ["reconstruct", spec, "--step", repr(step), "--format", fmt],
            {"kind": "reconstruct", "fmt": fmt, "S": S, "step": step, "pose": pose,
             "kappa": kappa_rec, "tau": tau_rec},
        ))
    return ops


# ---------------------------------------------------------------------------
# membership


def _kappa_surface(rng, lo: float, hi: float):
    """A constant-(kappa, tau) curve and the gen-const-kappa constants of a
    surface that contains it.

    The curve's xy-track is a circle of radius 1/|kappa| about (a, b),
    x = a + sin(phi)/kappa, y = b - cos(phi)/kappa with phi = phi0 + kappa s.
    Matching x^2 + y^2 to g^2 = (-C1 cos(kappa s) + C2 sin(kappa s) + C3g)/kappa
    fixes C1, C2 and C3g; z is then the surface height f itself, whose
    derivative is tau + y x' - x y' by the same matching."""
    kappa = _sign(rng) * _u(rng, 0.8, 2.5)
    tau = _u(rng, -1.0, 1.0)
    phi0 = _u(rng, -np.pi, np.pi)
    # keep the circle's distance to the z-axis away from 0 so g stays smooth
    dist = abs(1.0 / kappa) * (_u(rng, 0.2, 0.7) if rng.random() < 0.5 else _u(rng, 1.3, 2.0))
    ang = _u(rng, -np.pi, np.pi)
    a, b = dist * math.cos(ang), dist * math.sin(ang)
    c1 = 2.0 * (b * math.cos(phi0) - a * math.sin(phi0))
    c2 = 2.0 * (a * math.cos(phi0) + b * math.sin(phi0))
    c3g = kappa * (a * a + b * b) + 1.0 / kappa
    c3f = _u(rng, -1.0, 1.0)
    k, n = fam.num(kappa), fam.num
    g2_text = f"(-{n(c1)}*cos({k}*s) + {n(c2)}*sin({k}*s) + {n(c3g)})/{k}"
    f_text = (f"{n(tau)}*(s - {n(lo)}) + ({n(c1)}*sin({k}*s) + {n(c2)}*cos({k}*s))/(2*{k})"
              f" - s/{k} + {n(c3f)}")
    curve = {
        "type": "analytic",
        "x": f"{n(a)} + sin({n(phi0)} + {k}*s)/{k}",
        "y": f"{n(b)} - cos({n(phi0)} + {k}*s)/{k}",
        "z": f_text,
        "range": [lo, hi],
    }
    consts = {"kappa": kappa, "tau": tau, "c1": c1, "c2": c2, "c3g": c3g, "c3f": c3f,
              "lo": lo, "hi": hi, "center": [a, b], "phi0": phi0}
    return consts, {"g": f"sqrt({g2_text})", "f": f_text, "range": [lo, hi]}, curve


def _pansu_lam(rng, lo: float, hi: float) -> float:
    """A lambda in [lo, hi] that `surface pansu` accepts.

    pansu_sphere refuses its own profile cos(lam s)/lam when lam * (pi/(2 lam))
    rounds past pi/2 and the cosine at an end of the range comes out about
    -1e-17 (exit 2 for about 3% of lambdas; see the FOUND line in CHANGES.md).
    That fault is seed-dependent, so such lambdas are redrawn here by the same
    float arithmetic rather than counted as failures."""
    while True:
        lam = _u(rng, lo, hi)
        edge = np.pi / (2 * lam)
        if np.all(np.cos(lam * np.array([-edge, edge])) >= 0.0):
            return lam


def _membership_ops(rng, specs: _Specs, scale: float):
    """Two Pansu spheres, three generated surfaces, a helix checked against
    five cylinders (the one it lies on, and four radially off by
    +-delta >> tol, expected verdict exit 1), and the curve of a generated
    surface checked against that surface.  The five cylinder checks cost the
    same and sit in the middle of the round's eleven costs, so op_p50_ms is
    the median of their samples."""
    ops = []
    for lam in (_pansu_lam(rng, 0.5, 1.0), _pansu_lam(rng, 1.0, 2.0)):
        ops.append(_op(["surface", "pansu", "--lam", repr(lam)],
                       {"kind": "pansu", "lam": lam}))
    on_surface = []
    for lo, hi in ((-3.0 * scale, 0.5 * scale), (0.0, 4.0 * scale), (-1.0 * scale, 2.0 * scale)):
        consts, surface, curve = _kappa_surface(rng, lo, hi)
        on_surface = on_surface or [specs.write(surface), specs.write(curve)]
        ops.append(_op(
            ["surface", "gen-const-kappa", "--kappa", repr(consts["kappa"]),
             "--tau", repr(consts["tau"]), "--c1", repr(consts["c1"]),
             "--c2", repr(consts["c2"]), "--c3g", repr(consts["c3g"]),
             "--c3f", repr(consts["c3f"]), "--range", repr(lo), repr(hi), "--format", "json"],
            {"kind": "gen_kappa", **consts},
        ))
    radius = _u(rng, 0.5, 2.0)
    pitch = _u(rng, 0.2, 1.0)
    u_max = _u(rng, 4.0, 8.0) * scale
    z0 = _u(rng, -1.0, 1.0)
    p = _u(rng, -np.pi, np.pi)
    n = fam.num
    helix = specs.write({"type": "analytic",
                         "x": f"{n(radius)}*cos(s/{n(radius)} + {n(p)})",
                         "y": f"{n(radius)}*sin(s/{n(radius)} + {n(p)})",
                         "z": f"{n(pitch)}*s + {n(z0)}", "range": [0.0, u_max]})
    z_range = [z0 - 1.0, z0 + pitch * u_max + 1.0]
    near, far = _u(rng, 1e-3, 1e-2), _u(rng, 1e-2, 5e-2)
    for delta in (0.0, near, -near, far, -far):
        cylinder = specs.write({"g": n(radius + delta), "f": "s", "range": z_range})
        member = delta == 0.0
        ops.append(_op(["surface", "check", cylinder, helix],
                       {"kind": "check", "member": member, "offset": abs(delta)},
                       expect_exit=0 if member else 1))
    ops.append(_op(["surface", "check", *on_surface],
                   {"kind": "check", "member": True, "offset": 0.0}))
    return ops


# ---------------------------------------------------------------------------
# analytic


def _curves(rng, scale: float):
    """The analytic workload's curves as [family, params] records."""
    def phase():
        return _u(rng, -np.pi, np.pi)

    def helix(u_max):
        return ["helix", [_u(rng, 0.6, 1.6), phase(), _sign(rng) * _u(rng, 0.2, 1.0),
                          _u(rng, -0.3, 0.3), _u(rng, 0.5, 2.0), u_max * scale]]

    def ellipse(u_max):
        return ["ellipse", [_u(rng, 1.2, 1.8), _u(rng, 0.6, 1.0), _u(rng, -0.5, 0.5),
                            _u(rng, -0.3, 0.3), _u(rng, 0.5, 2.0), u_max * scale]]

    return {
        "helix": helix(6.0),
        "circle": ["circle", [_u(rng, -1.0, 1.0), _sign(rng) * _u(rng, 0.3, 1.0),
                              _u(rng, 0.5, 1.5), phase(), 8.0 * scale]],
        "line": ["line", [_u(rng, -1.0, 1.0), _u(rng, -1.0, 1.0), phase(), 3.0 * scale]],
        "vertical": ["vertical", [_u(rng, 0.2, 1.0), phase(), _u(rng, 0.2, 0.8),
                                  _u(rng, 0.5, 2.0), _u(rng, -0.5, 0.5), 5.0 * scale]],
        "ellipse": ellipse(6.0),
        "wobble": ["wobble", [_u(rng, -0.3, 0.3), _u(rng, 0.5, 2.0), _u(rng, 0.3, 1.0),
                              _u(rng, 0.5, 1.5), _u(rng, -0.5, 0.5), _sign(rng) * _u(rng, 0.1, 0.3),
                              6.0 * scale]],
        "helix2": helix(5.0),
        "ellipse2": ellipse(4.0),
    }


# (command, curve, step, format): analyze grids from 2 500 to 8 000 rows.
# Thirteen slots in three cost tiers: six classify calls, the vertical-plane
# analyze in the middle, and six larger analyze and bertrand calls, so
# op_p50_ms is the median of the middle slot's samples.
_ANALYTIC_SLOTS = [
    ("analyze", "helix", 0.001, "csv"),
    ("analyze", "circle", 0.001, "json"),
    ("analyze", "ellipse", 0.001, "csv"),
    ("analyze", "wobble", 0.001, "json"),
    ("analyze", "vertical", 0.002, "csv"),
    ("classify", "line", None, None),
    ("classify", "circle", None, None),
    ("classify", "vertical", None, None),
    ("classify", "helix", None, None),
    ("classify", "wobble", None, None),
    ("classify", "ellipse", None, None),
    ("bertrand", "helix2", 0.002, "csv"),
    ("bertrand", "ellipse2", 0.005, "json"),
]


def _analytic_ops(rng, specs: _Specs, scale: float):
    records = _curves(rng, scale)
    files = {name: specs.write(fam.make(rec).spec()) for name, rec in records.items()}
    ops = []
    for cmd, name, step, fmt in _ANALYTIC_SLOTS:
        check = {"kind": cmd, "curve": records[name], "fmt": fmt, "step": step}
        args = [cmd, files[name]]
        if step is not None:
            args += ["--step", repr(step), "--format", fmt]
        if cmd == "bertrand":
            c1, c2 = _u(rng, -1.0, 1.0), _u(rng, -1.0, 1.0)
            args += ["--c1", repr(c1), "--c2", repr(c2)]
            check.update(c1=c1, c2=c2)
        ops.append(_op(args, check))
    return ops


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, workdir: Path, scale: float = 1.0) -> list[dict]:
    """Write the workload's spec files into ``workdir`` and return its round
    of ops; ``scale`` < 1 shrinks ranges for the smoke tests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    specs = _Specs(workdir)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make_ops = {"reconstruct": _reconstruct_ops, "membership": _membership_ops,
                "analytic": _analytic_ops}[workload]
    return make_ops(rng, specs, scale)
