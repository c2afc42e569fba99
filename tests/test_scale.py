"""Verdicts do not depend on units.

The dilation (x, y, z) -> (lam x, lam y, lam^2 z) with s -> lam s maps
horizontal curves to horizontal curves, sending kappa to kappa/lam and tau
to lam tau (Capogna, Danielli, Pauls & Tyson, An Introduction to the
Heisenberg Group and the Sub-Riemannian Isoperimetric Problem, Birkhauser
2007, ch. 2); a rotation about the z-axis changes neither invariant.  So a
command run on a dilated and rotated curve, with its step and offsets
scaled alike, must give the same exit code and tag, and kappa and tau
columns scaled by 1/lam and lam.
"""

import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from h1curves.cesaro import generate_surface_constant_kappa
from h1curves.cli import main
from h1curves.expressions import ScalarFn
from h1curves.heisenberg import H1Point, PshTransform
from h1curves.numerics import step_grid

from conftest import random_invariant_exprs


def dilate(text: str, lam: float, power: int) -> str:
    """lam^power * text(s/lam)."""
    return f"({lam!r})^({power})*(" + re.sub(r"\bs\b", f"(s/({lam!r}))", text) + ")"


def run(tmp_path, args, spec):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spec))
    return CliRunner().invoke(main, [args[0], str(path), *args[1:]])


def outcome(result):
    """The exit code, with the tag of a classification or the stderr of a failure."""
    if result.exit_code == 0 and result.output.startswith("{"):
        return 0, json.loads(result.output)["tag"]
    return result.exit_code, result.stderr.split(":")[0]


# x, y, z over [0, hi] and the tag `classify` gives them at lam = 1
CURVES = {
    "helix": (("cos(s)", "sin(s)", "0.5*s", 3.0), "CircularHelix"),
    "circle": (("cos(s)", "sin(s)", "0", 3.0), "PlanarCurveXY"),
    # kappa = 3 (s + 2e-5) / (1 + ...)^(3/2): small at s = 0, never zero
    "planar": (("s", "0.5*(s+2e-5)^3", "0", 1.5), "PlanarCurveXY"),
    "vertical-plane": (("s", "2*s", "s", 3.0), "VerticalPlaneCurve"),
    "tall-helix": (("cos(s)", "sin(s)", "100*s", 3.0), "CircularHelix"),
    "general": (("s + 0.1*sin(s)", "0.5*(s+1e-5)^3", "0.1*s + 0.2*s^2", 1.5), "General"),
}
LAMBDAS = [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4]


class TestDilationProbe:
    """Six curves, each dilated by seven lam at step 1e-3 lam, through
    `classify`, `analyze` and `bertrand --c1 0.3 lam --c2 0.2 lam`.  With
    absolute or diameter-relative thresholds the helices and the
    vertical-plane curve were irregular at lam = 1e4 and the mates of the
    planar and the general curve mixed the kappa branches there; with a
    shortest length for `classify` every curve was refused from lam = 1e-6
    down."""

    @staticmethod
    def outcomes(tmp_path, name, lam):
        (x, y, z, hi), _ = CURVES[name]
        spec = {"type": "analytic", "x": dilate(x, lam, 1), "y": dilate(y, lam, 1),
                "z": dilate(z, lam, 2), "range": [0.0, hi * lam]}
        step = ["--step", repr(1e-3 * lam)]
        return [
            outcome(run(tmp_path, ["classify", *step], spec)),
            outcome(run(tmp_path, ["analyze", *step], spec)),
            outcome(run(tmp_path, ["bertrand", *step, "--c1", repr(0.3 * lam),
                                   "--c2", repr(0.2 * lam)], spec)),
        ]

    @pytest.mark.parametrize("name", list(CURVES))
    def test_every_lambda_answers_as_lambda_one(self, tmp_path, name):
        base = self.outcomes(tmp_path, name, 1.0)
        # the vertical-plane curve has kappa == 0, whose mate needs --g
        assert base == [(0, CURVES[name][1]), (0, ""),
                        (2, "error") if name == "vertical-plane" else (0, "")]
        for lam in LAMBDAS:
            if lam != 1.0:
                assert self.outcomes(tmp_path, name, lam) == base, lam


class TestMixedUnits:
    """z carries length^2: a steep height neither hides the helix from
    `classify` nor makes the curve irregular for `analyze`."""

    def test_steep_helix_is_a_helix(self, tmp_path):
        spec = {"type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "-1e6*s", "range": [0, 3]}
        assert outcome(run(tmp_path, ["classify"], spec)) == (0, "CircularHelix")

    def test_steepest_helix_is_a_helix(self, tmp_path):
        # tau is about -1e9: the rounding of its integral, not a bad height,
        # leaves the pitch residual of 5e-5 above tol * S^2 = 9e-6
        spec = {"type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "-1e9*s", "range": [0, 3]}
        assert outcome(run(tmp_path, ["classify"], spec)) == (0, "CircularHelix")

    def test_steeper_helix_is_regular(self, tmp_path):
        spec = {"type": "analytic", "x": "cos(s)", "y": "sin(s)", "z": "-1e9*s", "range": [0, 3]}
        result = run(tmp_path, ["analyze"], spec)
        assert result.exit_code == 0, result.stderr


# ---------------------------------------------------------------------------
# Property: any spec kind, lam = 10^k, a rotation about z


INTRINSIC = [("1 + 0.5*sin(s)", "0.2*s"), ("2", "0"), ("0.8 + 0.3*cos(2*s)", "1 - 0.5*s"),
             ("0", "0.3")]
SAMPLED = [lambda u: (np.cos(u), np.sin(u), 0.2 * u), lambda u: (u, 0.3 * u**2, 0.0 * u),
           lambda u: (1.5 * np.cos(u), 0.8 * np.sin(u), u)]


def rotated(x: str, y: str, angle: float):
    c, s = math.cos(angle), math.sin(angle)
    return f"({c!r})*({x}) - ({s!r})*({y})", f"({s!r})*({x}) + ({c!r})*({y})"


def analytic_spec(index, hi, lam, angle):
    (x, y, z, _), _ = list(CURVES.values())[index]
    x, y = rotated(dilate(x, lam, 1), dilate(y, lam, 1), angle)
    return {"type": "analytic", "x": x, "y": y, "z": dilate(z, lam, 2), "range": [0.0, lam * hi]}


def sampled_spec(index, hi, lam, angle):
    u = np.linspace(0.0, hi, 241)
    x, y, z = SAMPLED[index](u)
    c, s = math.cos(angle), math.sin(angle)
    rows = np.column_stack([lam * u, lam * (c * x - s * y), lam * (s * x + c * y), lam**2 * z])
    return {"type": "samples", "data": rows.tolist()}


def intrinsic_spec(index, hi, lam, angle):
    kappa, tau = INTRINSIC[index]
    c, s = math.cos(angle), math.sin(angle)
    x0, y0, z0 = 0.4, -0.7, 0.25
    return {"type": "intrinsic", "kappa": dilate(kappa, lam, -1), "tau": dilate(tau, lam, 1),
            "range": [0.0, lam * hi],
            "initial": {"point": [lam * (c * x0 - s * y0), lam * (s * x0 + c * y0), lam**2 * z0],
                        "heading": 0.3 + angle}}


KINDS = {"analytic": (analytic_spec, len(CURVES)), "samples": (sampled_spec, len(SAMPLED)),
         "intrinsic": (intrinsic_spec, len(INTRINSIC))}


@st.composite
def cases(draw, kind):
    return (draw(st.integers(0, KINDS[kind][1] - 1)), draw(st.floats(1.2, 3.0)),
            10.0 ** draw(st.integers(-4, 4)), draw(st.floats(-math.pi, math.pi)),
            draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))


def columns(result):
    lines = result.output.strip().split("\n")[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_dilated_and_rotated_curve_answers_alike(tmp_path_factory, kind, data):
    """Exit codes and tags agree; lam kappa and tau/lam agree with kappa and
    tau to 1e-6 of their largest size (kappa's at least 1/l, tau's at least
    l, l the curve's horizontal length)."""
    index, hi, lam, angle, c1, c2 = data.draw(cases(kind))
    event(f"lam={lam:g}")
    make = KINDS[kind][0]
    workdir = tmp_path_factory.mktemp("scale")
    answers = []
    for scale, spec in ((1.0, make(index, hi, 1.0, 0.0)), (lam, make(index, hi, lam, angle))):
        step = ["--step", repr(0.01 * scale)]
        analyzed = run(workdir, ["analyze", *step], spec)
        table = columns(analyzed) if analyzed.exit_code == 0 else None
        if not answers and table is not None:
            # the output grid has ceil(S/step) panels: keep S/step clear of
            # an integer, where rounding could pick either count
            panels = table[-1, 0] / 0.01
            assume(abs(panels - round(panels)) > 1e-6)
        answers.append((
            outcome(analyzed), table,
            outcome(run(workdir, ["classify", *step], spec)),
            outcome(run(workdir, ["bertrand", *step, "--c1", repr(c1 * scale),
                                  "--c2", repr(c2 * scale)], spec)),
        ))
    (base_exit, base, *base_rest), (exit_, dilated, *rest) = answers
    assert exit_ == base_exit and rest == base_rest
    if base is None:
        return
    assert dilated.shape == base.shape
    length = base[-1, 0]
    kappa, tau = base[:, 4], base[:, 5]
    kappa_size = max(np.max(np.abs(kappa)), 1.0 / length)
    tau_size = max(np.max(np.abs(tau)), length)
    assert np.max(np.abs(lam * dilated[:, 4] - kappa)) <= 1e-6 * kappa_size
    assert np.max(np.abs(dilated[:, 5] / lam - tau)) <= 1e-6 * tau_size


class TestLongWavySamples:
    """A sampled curve that drifts far while it oscillates: the stencil of
    its second derivatives follows the oscillation, not the sampled range,
    so kappa is the analytic one in every frame and unit.  A spacing that
    grew with the range would span several wavelengths here, except in the
    frame where a rotation cancels the drift."""

    @staticmethod
    def kappa_columns(tmp_path, angle, lam):
        u = np.linspace(0.0, 100.0, 10001)
        x, y, z = u + 0.1 * np.sin(5 * u), u - 0.1 * np.sin(5 * u), 0.3 * u
        c, s = math.cos(angle), math.sin(angle)
        rows = np.column_stack([lam * u, lam * (c * x - s * y), lam * (s * x + c * y),
                                lam**2 * z])
        result = run(tmp_path, ["analyze", "--step", repr(0.5 * lam)],
                     {"type": "samples", "data": rows.tolist()})
        assert result.exit_code == 0, result.stderr
        return columns(result)

    def test_kappa_is_analytic_in_every_frame_and_unit(self, tmp_path):
        base = self.kappa_columns(tmp_path, 0.0, 1.0)
        u = (base[:, 1] + base[:, 2]) / 2.0  # x + y = 2u on this curve
        xp, yp = 1 + 0.5 * np.cos(5 * u), 1 - 0.5 * np.cos(5 * u)
        xpp, ypp = -2.5 * np.sin(5 * u), 2.5 * np.sin(5 * u)
        exact = (xp * ypp - yp * xpp) / (xp**2 + yp**2) ** 1.5
        size = np.max(np.abs(exact))
        assert np.max(np.abs(base[:, 4] - exact)) <= 1e-5 * size
        for angle, lam in ((math.pi / 4, 1.0), (1.0, 1.0), (0.3, 1e-3), (math.pi / 4, 1e3)):
            table = self.kappa_columns(tmp_path, angle, lam)
            assert table.shape == base.shape
            assert np.max(np.abs(lam * table[:, 4] - base[:, 4])) <= 1e-6 * size, (angle, lam)


# ---------------------------------------------------------------------------
# Left translation: a reconstruction far from the origin keeps its invariants

EPS = np.finfo(float).eps


def intrinsic_columns(tmp_path, kappa, tau, s_max, point, heading):
    result = run(tmp_path, ["analyze", "--step", "1e-3"], {
        "type": "intrinsic", "kappa": kappa, "tau": tau, "range": [0.0, s_max],
        "initial": {"point": list(point), "heading": heading}})
    assert result.exit_code == 0, result.stderr
    return columns(result)


class TestLeftTranslation:
    """kappa = 1, tau = 0.2 on [0, 4] from (p, 0, 0): the reconstruction is
    a tree over its own integrals, so kappa is exact to roundoff at every p
    and tau to the rounding of the coordinates."""

    @pytest.mark.parametrize("p", [0.0, 1e3, 1e5, 1e7])
    def test_invariants_to_roundoff(self, tmp_path, p):
        table = intrinsic_columns(tmp_path, "1", "0.2", 4.0, (p, 0.0, 0.0), 0.0)
        assert np.max(np.abs(table[:, 4] - 1.0)) <= 16 * EPS
        assert np.max(np.abs(table[:, 5] - 0.2)) <= 8 * EPS * (1.0 + p)

    def test_unresolved_curve_is_refused(self, tmp_path):
        # the rounding of x, about 1e184, dwarfs a curve of length 4
        result = run(tmp_path, ["analyze", "--step", "1e-3"], {
            "type": "intrinsic", "kappa": "1", "tau": "0.2", "range": [0.0, 4.0],
            "initial": {"point": [1e200, 0.0, 0.0], "heading": 0.0}})
        assert result.exit_code == 2
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("error: bad curve spec: coordinates up to 1.000e+200 "
                                        "cannot resolve a length of 4")


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), s_max=st.floats(1.0, 4.0),
       angle=st.floats(-math.pi, math.pi), shift=st.tuples(*[st.floats(-1e7, 1e7)] * 3))
def test_moved_reconstruction_keeps_its_invariants(tmp_path_factory, seed, s_max, angle, shift):
    """A pseudo-hermitian transformation of the initial pose moves the
    curve, not its invariants: the analyze columns match kappa(s) and tau(s)
    to a few roundings of kappa and of the coordinates."""
    rng = np.random.default_rng(seed)
    kappa, tau = random_invariant_exprs(rng)
    g = PshTransform(angle, H1Point(*shift))
    point = g.apply(*rng.uniform(-1.0, 1.0, 3))
    table = intrinsic_columns(tmp_path_factory.mktemp("moved"), kappa, tau, s_max,
                              [float(v) for v in point], rng.uniform(-math.pi, math.pi) + angle)
    s = table[:, 0]
    exact_kappa, exact_tau = ScalarFn.parse(kappa)(s), ScalarFn.parse(tau)(s)
    assert np.all(np.abs(table[:, 4] - exact_kappa) <= 8 * EPS * (1.0 + np.abs(exact_kappa)))
    size = np.max(np.hypot(table[:, 1], table[:, 2]))
    assert np.max(np.abs(table[:, 5] - exact_tau)) <= 8 * EPS * (1.0 + size)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(exponent=st.floats(0.0, 8.0), phase=st.floats(0.0, 6.3))
def test_radicand_touching_the_axis_is_accepted_at_every_scale(exponent, phase):
    """g^2 = H (1 - cos(s - phase)) touches zero at s = phase, and its
    rounding there grows with H: the profile's bound is relative to its own
    size, so no scale H from 1 to 1e8 turns that rounding into a refusal."""
    scale = 10.0 ** exponent
    c1, c2 = scale * math.cos(phase), -scale * math.sin(phase)
    sigma = generate_surface_constant_kappa(1.0, 0.0, c1, c2, math.hypot(c1, c2), 0.0,
                                            (0.0, 6.3))
    for s in (np.array([phase]), step_grid(0.0, 6.3, 1e-3)):
        radius, _ = sigma.profile(s)
        assert np.all(np.isfinite(radius))
