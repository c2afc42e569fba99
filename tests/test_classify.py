import numpy as np
import pytest

from h1curves import (
    InitialPose,
    InvariantPair,
    ParamCurve,
    reconstruct_curve,
    reparam_horizontal,
)
from h1curves.classify import (
    ClassTag,
    classify_position,
    make_canonical,
)
from h1curves.curves import kappa_tau_arbitrary

from conftest import random_invariant_exprs


def classify_param(curve, tol=1e-6):
    return classify_position(reparam_horizontal(curve), tol=tol)


class TestClassifyExamples:
    def test_line_through_scaled_origin_direction(self):
        c = ParamCurve.from_fields("s + 1", "2*s + 2", "0", (0, 3))
        out = classify_param(c)
        assert out.tag is ClassTag.LINE_IN_XY_PLANE
        assert out.witness["heading"] == pytest.approx(np.arctan(2.0), abs=1e-9)

    def test_offset_line(self):
        c = ParamCurve.from_fields("s", "1", "0", (0, 4))
        out = classify_param(c)
        assert out.tag is ClassTag.LINE_IN_XY_PLANE
        assert out.witness["tau"] == pytest.approx(-1.0, abs=1e-9)

    def test_unit_helix(self):
        c = ParamCurve.from_fields("sin(s)", "cos(s)", "s", (0, 7))
        out = classify_param(c)
        assert out.tag is ClassTag.CIRCULAR_HELIX
        assert out.witness["radius"] == pytest.approx(1.0, abs=1e-9)
        assert out.witness["c1"] == pytest.approx(1.0, abs=1e-7)
        assert out.witness["pitch"] == pytest.approx(1.0, abs=1e-7)

    def test_vertical_plane_example(self):
        c = make_canonical(
            ClassTag.VERTICAL_PLANE_CURVE, (0, 3), c1=0.0, c2=1.0, c3=2.0, tau="1"
        )
        s = np.linspace(0, 3, 7)
        assert np.allclose(c.point(s), np.stack([s, 2 * s, s], axis=1), atol=1e-9)
        out = classify_param(c)
        assert out.tag is ClassTag.VERTICAL_PLANE_CURVE
        # plane c3 x = c2 y with (c2, c3) proportional to (1, 2)
        ratio = out.witness["c3"] / out.witness["c2"]
        assert ratio == pytest.approx(2.0, abs=1e-7)

    def test_planar_circle_is_plane_curve_not_helix(self):
        # position lies in span{t, n} and span{n, b} simultaneously; the
        # xy-plane case is checked first and its fit passes
        c = ParamCurve.from_fields("cos(s)", "sin(s)", "0", (0, 6))
        out = classify_param(c)
        assert out.tag is ClassTag.PLANAR_CURVE_XY

    def test_generic_curve(self, rng):
        kt, tt = random_invariant_exprs(rng)
        h = reconstruct_curve(
            InvariantPair(kt, tt),
            InitialPose.origin(),
            4.0,
        )
        assert classify_position(h).tag is ClassTag.GENERAL

    def test_short_interval_guard(self):
        # thresholds scale with S, so a length below the dimensionless tol
        # is classified, not refused
        c = ParamCurve.from_fields("s", "0", "0", (0, 1e-7))
        assert classify_param(c, tol=1e-1).tag is ClassTag.LINE_IN_XY_PLANE


class TestCanonicalForms:
    def test_helix_display_and_invariants(self):
        c = make_canonical(
            ClassTag.CIRCULAR_HELIX, (0, 7), c1=1.0, c2=0.0, c3=1.0, c4=0.0, tau="0"
        )
        s = np.linspace(0, 7, 11)
        assert np.allclose(
            c.point(s), np.stack([np.sin(s), np.cos(s), s], axis=1), atol=1e-12
        )
        h = reparam_horizontal(c)
        smp = h.sample(np.linspace(0.2, 6.8, 30))
        assert np.max(np.abs(smp.kappa + 1.0)) < 1e-7  # kappa = -1/c1
        assert np.max(np.abs(smp.tau)) < 1e-7

    def test_helix_rejects_zero_c1(self):
        with pytest.raises(ValueError, match="c1"):
            make_canonical(ClassTag.CIRCULAR_HELIX, (0, 1), c1=0.0)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError, match=r"degenerate interval \[1.0, 1.0\]"):
            make_canonical(ClassTag.VERTICAL_PLANE_CURVE, (1, 1), c1=0.5, c2=1.0, c3=0.0,
                           tau="sin(s)")

    def test_line_through_origin_heading(self):
        c = make_canonical(ClassTag.LINE_IN_XY_PLANE, (0, 2), heading=np.pi / 4)
        s = np.linspace(0, 2, 5)
        assert np.allclose(
            c.point(s), np.stack([s / np.sqrt(2), s / np.sqrt(2), 0 * s], axis=1)
        )
        out = classify_param(c)
        assert out.tag is ClassTag.LINE_IN_XY_PLANE

    def test_planar_representative(self):
        c = make_canonical(
            ClassTag.PLANAR_CURVE_XY, (0, 5), kappa="1 + 0.3*sin(s)", x0=0.4, y0=-0.2
        )
        out = classify_param(c)
        assert out.tag is ClassTag.PLANAR_CURVE_XY


class TestRoundTrip:
    def test_lines(self, rng):
        for _ in range(4):
            heading = rng.uniform(0, np.pi)
            offset = tuple(rng.uniform(-2, 2, size=2))
            c = make_canonical(
                ClassTag.LINE_IN_XY_PLANE, (0, 3), heading=heading, offset=offset
            )
            out = classify_param(c)
            assert out.tag is ClassTag.LINE_IN_XY_PLANE
            assert out.witness["heading"] == pytest.approx(heading % np.pi, abs=1e-6)

    def test_vertical_planes(self, rng):
        for _ in range(4):
            angle = rng.uniform(0.1, np.pi - 0.1)
            c2, c3 = np.cos(angle), np.sin(angle)
            c1 = rng.uniform(0.3, 1.5)
            c = make_canonical(
                ClassTag.VERTICAL_PLANE_CURVE, (0, 3),
                c1=c1, c2=c2, c3=c3, tau=f"{rng.uniform(-1, 1):.6f}",
            )
            out = classify_param(c)
            assert out.tag is ClassTag.VERTICAL_PLANE_CURVE
            assert out.witness["plane_angle"] == pytest.approx(angle % np.pi, abs=1e-6)
            assert out.witness["c1"] == pytest.approx(c1, abs=1e-6)

    def test_helices(self, rng):
        for _ in range(4):
            c1 = rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
            beta = rng.uniform(0, 2 * np.pi)
            c3, c4 = c1 * np.cos(beta), c1 * np.sin(beta)
            tau_c = rng.uniform(-0.5, 0.5)
            # keep the vertical drift away from zero so the helix does not
            # degenerate to a planar circle
            if abs(c1 + tau_c) < 0.2:
                tau_c += 0.4
            c = make_canonical(
                ClassTag.CIRCULAR_HELIX, (0, 8),
                c1=c1, c2=rng.uniform(-1, 1), c3=c3, c4=c4, tau=f"{tau_c:.6f}",
            )
            out = classify_param(c)
            assert out.tag is ClassTag.CIRCULAR_HELIX
            assert out.witness["radius"] == pytest.approx(abs(c1), abs=1e-6)
            assert out.witness["c1"] == pytest.approx(c1, abs=1e-6)
            assert out.witness["pitch"] == pytest.approx(c1, abs=1e-5)

    def test_generic_never_tagged(self, rng):
        for _ in range(4):
            kt, tt = random_invariant_exprs(rng)
            h = reconstruct_curve(
                InvariantPair(kt, tt), InitialPose.origin(), 4.0
            )
            assert classify_position(h).tag is ClassTag.GENERAL


class TestCaseProperties:
    def test_planar_case_z_vanishes_and_not_line(self):
        c = make_canonical(ClassTag.PLANAR_CURVE_XY, (0, 5), kappa="1.2", x0=1.0)
        h = reparam_horizontal(c)
        s = np.linspace(0, h.s_max, 60)
        assert np.max(np.abs(h.point(s)[:, 2])) < 1e-10
        assert np.max(np.abs(h.sample(s).kappa)) > 1e-3

    def test_planar_case_reproduces_its_kappa(self):
        c = make_canonical(ClassTag.PLANAR_CURVE_XY, (0, 5), kappa="1 + 0.4*sin(s)", x0=0.7)
        u = np.linspace(0.0, 5.0, 301)
        kappa, _ = kappa_tau_arbitrary(c, u)
        assert np.max(np.abs(kappa - (1.0 + 0.4 * np.sin(u)))) < 1e-12

    def test_helix_plane_norm_constant(self):
        c = make_canonical(
            ClassTag.CIRCULAR_HELIX, (0, 8), c1=1.5, c2=0.3, c3=1.5, c4=0.0, tau="0.2"
        )
        h = reparam_horizontal(c)
        pts = h.point(np.linspace(0, h.s_max, 50))
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        assert np.ptp(r2) < 1e-10
        kappa = h.sample(np.linspace(0.2, h.s_max - 0.2, 30)).kappa
        assert np.ptp(kappa) < 1e-7
        assert np.mean(kappa) == pytest.approx(-1 / 1.5, abs=1e-9)
