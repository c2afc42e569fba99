import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from h1curves import (
    H1Point,
    HorizontalCurve,
    InvariantPair,
    ParamCurve,
    PshTransform,
    RegularityError,
    kappa_tau_arbitrary,
    psh_transform_curve,
    reconstruct,
    reconstruct_curve,
    reparam_horizontal,
    verify_cesaro,
)
from h1curves.bertrand import BertrandSpec, bertrand_mate
from h1curves.cesaro import pansu_sphere
from h1curves.classify import classify_position
from h1curves.cli import main
from h1curves.numerics import step_grid

from conftest import (RecordingField, contact_speed_deviation, frame, heading,
                      random_analytic_curve, random_psh_transform)


# the pose that starts a curve at the origin with heading 0
IDENTITY = PshTransform(0.0, H1Point.origin())


def line_curve(scale="1"):
    return ParamCurve.from_fields(f"{scale}*s", "0", "0", (0.0, 1.0))


def pansu_curve(lam=1.0):
    r = repr(float(lam))
    return ParamCurve.from_fields(
        f"sin(2*{r}*s)/(2*{r})",
        f"(1 - cos(2*{r}*s))/(2*{r})",
        f"sin(2*{r}*s)/(4*{r}^2) - s/(2*{r}) + pi/(4*{r}^2)",
        (0.0, np.pi / lam),
    )


class TestRegularity:
    """``reparam_horizontal`` at 1024 panels of the parameter span accepts a
    regular curve and refuses a degenerate one."""

    def test_horizontal_line(self):
        assert reparam_horizontal(line_curve(), step=1.0 / 1024).s_max == pytest.approx(1.0)

    def test_vertical_line_fails(self):
        c = ParamCurve.from_fields("0", "0", "s", (0.0, 1.0))
        with pytest.raises(RegularityError):
            reparam_horizontal(c, step=1.0 / 1024)

    def test_helix_has_unit_contact_speed(self):
        c = ParamCurve.from_fields("cos(s)", "sin(s)", "s", (0.0, 6.0))
        assert reparam_horizontal(c, step=6.0 / 1024).s_max == pytest.approx(6.0)


class TestKappaTau:
    def test_straight_line(self):
        k, t = kappa_tau_arbitrary(line_curve(), 0.5)
        assert k == pytest.approx(0.0, abs=1e-12)
        assert t == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    def test_planar_circle(self, R):
        r = repr(float(R))
        c = ParamCurve.from_fields(
            f"{r}*cos(s)", f"{r}*sin(s)", "0", (0.0, 2 * np.pi)
        )
        k, t = kappa_tau_arbitrary(c, 1.1)
        assert k == pytest.approx(1.0 / R, rel=1e-12)
        assert t == pytest.approx(R, rel=1e-12)

    @pytest.mark.parametrize("R", [1.0, 3.0])
    def test_horizontal_lift_of_circle(self, R):
        r = repr(float(R))
        c = ParamCurve.from_fields(
            f"{r}*cos(s/{r})", f"{r}*sin(s/{r})", f"-{r}*s", (0.0, 5.0)
        )
        k, t = kappa_tau_arbitrary(c, 2.0)
        assert k == pytest.approx(1.0 / R, rel=1e-12)
        assert t == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_speed_raises(self):
        c = ParamCurve.from_fields("s^2", "0", "0", (-1.0, 1.0))
        with pytest.raises(RegularityError):
            kappa_tau_arbitrary(c, 0.0)

    def test_kappa_is_projection_plane_curvature(self, rng):
        # independent oracle: derivative of the heading angle with respect
        # to planar arc-length, by central differences
        x, y, z = random_analytic_curve(rng)
        c = ParamCurve.from_fields(x, y, z, (0.0, 3.0))
        h = reparam_horizontal(c)
        s = np.linspace(0.3, h.s_max - 0.3, 15)
        eps = 1e-6
        phi_p = heading(h.sample(s + eps))
        phi_m = heading(h.sample(s - eps))
        oracle = (np.unwrap(np.stack([phi_m, phi_p]), axis=0)[1] - phi_m) / (2 * eps)
        assert np.max(np.abs(h.sample(s).kappa - oracle)) < 1e-6

    def test_tau_vanishes_iff_velocity_has_no_vertical_part(self):
        lift = ParamCurve.from_fields("cos(s)", "sin(s)", "-s", (0.0, 5.0))
        circle = ParamCurve.from_fields("cos(s)", "sin(s)", "0", (0.0, 5.0))
        u = np.linspace(0.2, 4.8, 25)
        for c, horizontal in ((lift, True), (circle, False)):
            _, t = kappa_tau_arbitrary(c, u)
            # T-basis-component of the velocity: -x'y + xy' + z'
            xp = c.x.derivative()(u)
            yp = c.y.derivative()(u)
            zp = c.z.derivative()(u)
            vert = -xp * c.y(u) + c.x(u) * yp + zp
            if horizontal:
                assert np.max(np.abs(t)) < 1e-12 and np.max(np.abs(vert)) < 1e-12
            else:
                assert np.min(np.abs(t)) > 0.5 and np.min(np.abs(vert)) > 0.5


class TestReparam:
    def test_constant_speed_two(self):
        h = reparam_horizontal(ParamCurve.from_fields("2*s", "0", "0", (0, 1)))
        assert h.s_max == pytest.approx(2.0, abs=1e-12)
        assert h.u_of_s(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_circle_radius_two(self):
        c = ParamCurve.from_fields("2*cos(s)", "2*sin(s)", "0", (0, 2 * np.pi))
        h = reparam_horizontal(c)
        assert h.s_max == pytest.approx(4 * np.pi, rel=1e-10)

    def test_pansu_already_unit_speed(self):
        h = reparam_horizontal(pansu_curve(1.0))
        s = np.linspace(0.0, h.s_max, 40)
        assert h.s_max == pytest.approx(np.pi, abs=1e-10)
        assert np.max(np.abs(h.u_of_s(s) - s)) < 1e-10

    def test_unit_contact_speed_invariant(self, rng):
        x, y, z = random_analytic_curve(rng)
        h = reparam_horizontal(ParamCurve.from_fields(x, y, z, (0.0, 4.0)))
        # M = 4.0, D5 = 1.8: 1.2e-13 + 1.1e-11, and as much again for the
        # rounding of sigma(u) that the inversion of each s carries
        assert contact_speed_deviation(h) < 3e-11

    def test_default_step_is_the_cli_default(self):
        c = slow_speed_curve()
        a, b = reparam_horizontal(c), reparam_horizontal(c, step=1e-3)
        assert np.array_equal(a._u_grid, b._u_grid) and np.array_equal(a._sigma, b._sigma)
        assert a.s_max == b.s_max

    def test_odd_panel_count_is_kept(self):
        # ceil(0.999/1e-3) = 999 panels, not rounded up to even
        h = reparam_horizontal(ParamCurve.from_fields("2*s", "0", "0", (0.0, 0.999)), step=1e-3)
        assert h._u_grid.size == 1000
        assert h.s_max == pytest.approx(1.998, abs=1e-14)

    def test_coarse_step_inversion_matches_closed_form(self):
        # x' + i y' = (1 + u^2) e^{iu}: contact speed 1 + u^2, so
        # sigma(u) = u + u^3/3, inverted by Cardano as u = A - 1/A with
        # A^3 = 3s/2 + sqrt(9s^2/4 + 1).  At step 0.1 the Hermite seed alone
        # is off by about 2e-6; Newton must finish the job.
        c = ParamCurve.from_fields(
            "(s^2 - 1)*sin(s) + 2*s*cos(s)", "(1 - s^2)*cos(s) + 2*s*sin(s)", "0", (0.0, 8.0)
        )
        h = reparam_horizontal(c, step=0.1)
        assert h.s_max == pytest.approx(8.0 + 512.0 / 3.0, rel=1e-14)
        s = np.linspace(0.0, h.s_max, 1001)
        a = np.cbrt(1.5 * s + np.sqrt(2.25 * s * s + 1.0))
        assert np.max(np.abs(h.u_of_s(s) - (a - 1.0 / a))) < 1e-12


class TestFrame:
    """The frame is read off one sample, at a scalar s or on an array."""

    def test_line_frame(self):
        h = reparam_horizontal(line_curve())
        t, n, b = frame(h.sample(0.75))
        assert np.allclose(t, [1, 0, 0], atol=1e-10)
        assert np.allclose(n, [0, 1, -0.75], atol=1e-10)
        assert np.array_equal(b, [0, 0, 1])

    def test_lift_frame_at_start(self):
        c = ParamCurve.from_fields("cos(s)", "sin(s)", "-s", (0.0, 5.0))
        h = reparam_horizontal(c)
        t, _, _ = frame(h.sample(0.0))
        assert np.allclose(t, [0, 1, -1], atol=1e-9)
        # basis components (x', y', 0)
        assert np.allclose([t[0], t[1], 0.0], [0, 1, 0], atol=1e-9)

    def test_n_is_J_of_t_in_basis_components(self, rng):
        x, y, z = random_analytic_curve(rng)
        h = reparam_horizontal(ParamCurve.from_fields(x, y, z, (0.0, 3.0)))
        grid = np.linspace(0.1, h.s_max - 0.1, 7)
        for s in grid:
            smp = h.sample(float(s))
            t, n, b = frame(smp)
            xp, yp = t[0], t[1]
            assert np.allclose([n[0], n[1], 0.0], [-yp, xp, 0.0], atol=1e-14)
            assert np.array_equal(b, [0, 0, 1])
            # Euclidean t and n lie in the contact plane at the base point
            px, py = smp.points[0], smp.points[1]
            assert t[2] == pytest.approx(t[0] * py - t[1] * px, abs=1e-9)
            assert n[2] == pytest.approx(n[0] * py - n[1] * px, abs=1e-9)
            assert np.hypot(xp, yp) == pytest.approx(1.0, abs=1e-10)
        smp = h.sample(grid)
        t, n, b = frame(smp)
        assert t.shape == n.shape == b.shape == (grid.size, 3)
        assert np.allclose(n[:, :2], np.stack([-t[:, 1], t[:, 0]], axis=1), atol=1e-14)
        assert np.array_equal(b, np.tile([0.0, 0.0, 1.0], (grid.size, 1)))
        px, py = smp.points[:, 0], smp.points[:, 1]
        assert np.allclose(t[:, 2], t[:, 0] * py - t[:, 1] * px, rtol=0, atol=1e-9)
        assert np.allclose(n[:, 2], n[:, 0] * py - n[:, 1] * px, rtol=0, atol=1e-9)


class TestFrameCoefficients:
    def test_line_is_parallel_to_t(self):
        h = reparam_horizontal(line_curve())
        u1, u2, u3 = h.sample(0.6).coefficients()
        assert (u1, u2, u3) == pytest.approx((0.6, 0.0, 0.0), abs=1e-10)

    def test_plane_norm_preserved(self, rng):
        x, y, z = random_analytic_curve(rng)
        h = reparam_horizontal(ParamCurve.from_fields(x, y, z, (0.0, 3.0)))
        s = np.linspace(0.1, h.s_max - 0.1, 20)
        u1, u2, u3 = h.sample(s).coefficients()
        pts = h.point(s)
        assert np.max(np.abs(u1**2 + u2**2 - (pts[:, 0] ** 2 + pts[:, 1] ** 2))) < 1e-10
        assert np.max(np.abs(u3 - pts[:, 2])) == 0.0

    def test_norm_is_distance_to_origin(self, rng):
        x, y, z = random_analytic_curve(rng)
        h = reparam_horizontal(ParamCurve.from_fields(x, y, z, (0.0, 3.0)))
        s = np.linspace(0.1, h.s_max - 0.1, 20)
        u1, u2, u3 = h.sample(s).coefficients()
        dist = np.linalg.norm(h.point(s), axis=1)
        assert np.max(np.abs(np.sqrt(u1**2 + u2**2 + u3**2) - dist)) < 1e-10


def cesaro_residual(h, step):
    """``verify_cesaro`` on the table ``analyze`` prints at ``step``."""
    grid = step_grid(0.0, h.s_max, step)
    return verify_cesaro(grid, h.sample(grid))


class TestVerifyCesaro:
    """Bounds about ten times the residual read where fd4's stencil is
    centred: 1.4e-14, 1.1e-12 and 1.1e-12."""

    def test_line(self):
        assert cesaro_residual(reparam_horizontal(line_curve()), 1e-2) < 1e-13

    def test_pansu_curve(self):
        assert cesaro_residual(reparam_horizontal(pansu_curve(1.0)), 1e-3) < 1e-11

    def test_reconstructed_curve(self):
        inv = InvariantPair("1 + 0.5*sin(s)", "0.2*s")
        h = reconstruct_curve(inv, IDENTITY, 3.0, 1e-3)
        assert cesaro_residual(h, 1e-3) < 1e-11

    def test_scaled_kappa_fails(self):
        # kappa off by 1e-6 of itself breaks u1' = kappa u2 - 1 and u2' = -kappa u1
        h = reparam_horizontal(pansu_curve(1.0))
        grid = step_grid(0.0, h.s_max, 1e-3)
        smp = h.sample(grid)
        assert verify_cesaro(grid, smp) < 1e-11
        assert verify_cesaro(grid, smp._replace(kappa=smp.kappa * (1 + 1e-6))) > 1e-11

    @pytest.mark.parametrize("nodes", [1, 5])
    def test_fewer_than_six_nodes_are_refused_by_fd4(self, nodes):
        h = reparam_horizontal(line_curve())
        grid = np.linspace(0.0, h.s_max, nodes)
        with pytest.raises(ValueError, match="at least 6 samples"):
            verify_cesaro(grid, h.sample(grid))


class TestPshInvariance:
    def test_invariants_unchanged(self, rng):
        for _ in range(6):
            x, y, z = random_analytic_curve(rng)
            c = ParamCurve.from_fields(x, y, z, (0.0, 3.0))
            g = random_psh_transform(rng)
            moved = psh_transform_curve(g, c)
            u = np.linspace(0.1, 2.9, 30)
            k0, t0 = kappa_tau_arbitrary(c, u)
            k1, t1 = kappa_tau_arbitrary(moved, u)
            assert np.max(np.abs(k0 - k1)) < 1e-9
            assert np.max(np.abs(t0 - t1)) < 1e-9

    def test_transform_matches_pointwise_apply(self, rng):
        x, y, z = random_analytic_curve(rng)
        c = ParamCurve.from_fields(x, y, z, (0.0, 3.0))
        g = random_psh_transform(rng)
        moved = psh_transform_curve(g, c)
        u = np.linspace(0.0, 3.0, 11)
        pointwise = np.stack(g.apply(*c.point(u).T), axis=-1)
        assert np.allclose(moved.point(u), pointwise, atol=1e-12)


class TestArcLengthCurve:
    def test_u_of_s_is_the_identity_shift(self):
        c = ParamCurve.from_fields("cos(s)", "sin(s)", "0.5*s", (1.5, 4.0))
        h = HorizontalCurve.arc_length(c)
        s = np.linspace(0.0, h.s_max, 41)
        assert h.s_max == 2.5
        assert np.array_equal(h.u_of_s(s), 1.5 + s)
        assert h.u_of_s(0.7) == 2.2
        # queries outside [0, S] clamp to the ends, as for reparametrized curves
        assert np.array_equal(h.u_of_s(np.array([-1.0, 9.0])), [1.5, 4.0])

    def test_geometry_agrees_with_reparametrization(self):
        c = pansu_curve(1.0)
        a = HorizontalCurve.arc_length(c)
        b = reparam_horizontal(c)
        s = np.linspace(0.1, np.pi - 0.1, 30)
        assert np.max(np.abs(a.point(s) - b.point(s))) < 1e-10
        sa, sb = a.sample(s), b.sample(s)
        assert np.max(np.abs(sa.kappa - sb.kappa)) < 1e-8
        assert np.max(np.abs(sa.tau - sb.tau)) < 1e-8
        assert contact_speed_deviation(a) < 4e-12  # M = 1, D5 = 16: 1.1e-12 + 2.7e-12

    def test_contact_speed_deviation_measures_the_points(self):
        # x = 3s + s^2 read as if s were its arc length: the speed 3 + 2s is
        # 4.996 at the last centred node
        h = HorizontalCurve.arc_length(ParamCurve.from_fields("3*s + s^2", "0", "0", (0.0, 1.0)))
        assert contact_speed_deviation(h) == pytest.approx(3.996, abs=1e-9)


class TestFiniteInputs:
    def test_boolean_invariants_refused(self):
        # not read as the constants 1 and 0
        with pytest.raises(TypeError, match="cannot interpret True"):
            InvariantPair(True, False)
        with pytest.raises(TypeError, match="cannot interpret False"):
            InvariantPair(1.0, False)

    @pytest.mark.parametrize("column", range(4))
    def test_sample_column_named(self, column):
        data = np.column_stack([np.arange(8.0)] + [np.arange(8.0) ** k for k in (1, 2, 3)])
        data[5, column] = np.nan
        with pytest.raises(ValueError, match=f"column {'uxyz'[column]} is not finite"):
            ParamCurve.from_samples(*data.T)

    def test_overflowing_curve_is_a_domain_error(self):
        c = ParamCurve.from_fields("exp(exp(s))", "s", "0", (0.0, 10.0))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="not finite") as err:
                reparam_horizontal(c)
        assert not isinstance(err.value, RegularityError)

    def test_grid_budget_checked_before_evaluation(self):
        field = RecordingField()
        c = ParamCurve.from_fields(field, field, field, (0.0, 1e9))
        with pytest.raises(ValueError, match="panels requested"):
            reparam_horizontal(c, step=1e-3)
        assert field.calls == 0


class TestSampledCurves:
    def test_sampled_matches_analytic_invariants(self):
        u = np.linspace(0.0, np.pi, 3001)
        x = np.sin(2 * u) / 2
        y = (1 - np.cos(2 * u)) / 2
        z = np.sin(2 * u) / 4 - u / 2
        c = ParamCurve.from_samples(u, x, y, z)
        q = np.linspace(0.2, np.pi - 0.2, 20)
        k, t = kappa_tau_arbitrary(c, q)
        assert np.max(np.abs(k - 2.0)) < 1e-7
        assert np.max(np.abs(t)) < 1e-9

    @pytest.mark.parametrize("make", [
        lambda u: np.column_stack([u, np.cos(u), np.sin(u), 0.2 * u]),
        lambda _: reconstruct(InvariantPair(1.0, 0.2), PshTransform(0.0, H1Point.origin()),
                              4.0, 1e-3),
    ], ids=["helix", "reconstructed"])
    def test_second_derivative_stencil_is_widened(self, make):
        # kappa = 1 from dense rows (a whole turn of 10 001, or 4001), good
        # to about 1e-16: the widened second-derivative stencil keeps it to
        # 6e-11, where the densest one amplifies their rounding past 1e-8
        rows = make(np.linspace(0.0, 2 * np.pi, 10_001))
        h = reparam_horizontal(ParamCurve.from_samples(*rows.T))
        kappa = h.sample(np.linspace(0.0, h.s_max, 400)).kappa
        assert np.max(np.abs(kappa - 1.0)) <= 1e-9

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            ParamCurve.from_samples([0, 1, 2], [0, 1, 2], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            ParamCurve.from_samples([0, 1, 1, 2], np.zeros(4), np.zeros(4), np.zeros(4))


def slow_speed_curve(u_max=10.0):
    """x' + i y' = (1 + 0.5 sin u) e^{iu}: contact speed 1 + 0.5 sin u, so
    sigma(u) = u + 0.5 (1 - cos u) in closed form."""
    return ParamCurve.from_fields(
        "sin(s) + 0.25*sin(s)^2", "0.25*(s - sin(s)*cos(s)) - cos(s)", "0.1*s", (0.0, u_max)
    )


class TestSample:
    @pytest.mark.parametrize("make", [
        lambda: reparam_horizontal(slow_speed_curve(4.0)),
        lambda: reconstruct_curve(InvariantPair("1 + 0.5*sin(s)", "0.2*s"),
                            IDENTITY, 3.0, 1e-3),
    ], ids=["reparametrized", "arc-length"])
    def test_matches_the_single_quantity_methods(self, make):
        h = make()
        s = np.linspace(0.0, h.s_max, 97)
        smp = h.sample(s)
        assert np.array_equal(smp.u, h.u_of_s(s))
        assert np.array_equal(smp.points, h.point(s))

    def test_scalar_query(self):
        h = reparam_horizontal(slow_speed_curve(4.0))
        one = h.sample(1.3)
        many = h.sample(np.array([1.3]))
        assert isinstance(one.u, float) and isinstance(one.kappa, float)
        assert isinstance(one.tau, float)
        assert one.points.shape == one.velocity.shape == (3,)
        assert one.kappa == pytest.approx(many.kappa[0], abs=1e-15)
        assert np.allclose(one.points, many.points[0], rtol=0, atol=1e-15)

    @staticmethod
    def bisect(target, u_max=10.0):
        """The u in [0, u_max] where the increasing ``target(u)`` crosses zero."""
        lo, hi = np.zeros_like(target(0.0)), np.full_like(target(0.0), u_max)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = target(mid) < 0.0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def test_inversion_matches_closed_form(self):
        # at the CLI's default step the Simpson arc length is good to ~1e-14,
        # so u_of_s must agree with the inverse of the closed-form sigma
        h = reparam_horizontal(slow_speed_curve(), step=1e-3)
        s = np.linspace(0.0, h.s_max, 2001)
        ref = self.bisect(lambda u: u + 0.5 * (1.0 - np.cos(u)) - s)
        assert np.max(np.abs(h.u_of_s(s) - ref)) < 1e-12

    @pytest.mark.parametrize("step", [1e-3, 0.05])
    def test_newton_inverts_the_grid_arc_length(self, step):
        # the map u_of_s inverts: sigma at the grid node below, plus the exact
        # integral of the contact speed from that node; the reference takes
        # that integral in closed form, so only the Hermite seed, the
        # Gauss-Legendre rule and the Newton stopping rule are under test
        h = reparam_horizontal(slow_speed_curve(), step=step)
        s = np.linspace(0.0, h.s_max, 2001)
        i = np.clip(np.searchsorted(h._sigma, s, side="right") - 1, 0, h._sigma.size - 2)
        u_i = h._u_grid[i]
        ref = self.bisect(lambda u: h._sigma[i] + (u - u_i) + 0.5 * (np.cos(u_i) - np.cos(u)) - s)
        assert np.max(np.abs(h.u_of_s(s) - ref)) < 1e-12


def dilated_slow_speed_curve(lam, u_max=10.0):
    """``slow_speed_curve`` under (x, y, z) -> (lam x, lam y, lam^2 z), u -> lam u."""
    def dilate(text, power):
        return f"({lam!r})^{power}*(" + re.sub(r"\bs\b", f"(s/({lam!r}))", text) + ")"

    return ParamCurve.from_fields(
        dilate("sin(s) + 0.25*sin(s)^2", 1), dilate("0.25*(s - sin(s)*cos(s)) - cos(s)", 1),
        dilate("0.1*s", 2), (0.0, lam * u_max))


class TestInversionScale:
    @staticmethod
    def points_per_query(lam):
        """Contact-speed evaluations per query point of one u_of_s call."""
        h = reparam_horizontal(dilated_slow_speed_curve(lam), step=1e-3 * lam)
        counted, speed = [0], h.param.contact_speed

        def counting(u):
            counted[0] += np.size(u)
            return speed(u)

        h.param.contact_speed = counting
        s = np.linspace(0.0, h.s_max, 2001)
        h.u_of_s(s)
        return counted[0] / s.size

    @pytest.mark.parametrize("lam", [1e-4, 1e4])
    def test_newton_work_does_not_depend_on_units(self, lam):
        # the Newton stop is relative to S: an absolute one ran into the
        # rounding floor of sigma at large lam (13.5 points per query at 1e4)
        # and stopped early at small lam
        assert abs(self.points_per_query(lam) - self.points_per_query(1.0)) <= 1.0

    @pytest.mark.parametrize("lam", [1e-4, 1e4])
    def test_inversion_is_relative_to_scale(self, lam):
        base = reparam_horizontal(slow_speed_curve(), step=1e-3)
        h = reparam_horizontal(dilated_slow_speed_curve(lam), step=1e-3 * lam)
        assert h.s_max == pytest.approx(lam * base.s_max, rel=1e-13)
        s = np.linspace(0.0, base.s_max, 2001)
        assert np.max(np.abs(h.u_of_s(lam * s) / lam - base.u_of_s(s))) < 1e-12


class TestOneInversionPerGrid:
    """Each multi-quantity caller inverts s -> u once on its grid."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = HorizontalCurve.u_of_s

        def counting(self, s, *args, **kwargs):
            seen.append(np.size(s))
            return original(self, s, *args, **kwargs)

        monkeypatch.setattr(HorizontalCurve, "u_of_s", counting)
        return seen

    def test_bertrand_mate(self, calls):
        h = reparam_horizontal(slow_speed_curve(4.0))
        mate = bertrand_mate(h, BertrandSpec(0.3, -0.2))
        assert calls == [mate.grid.size]

    def test_classify_position(self, calls):
        classify_position(reparam_horizontal(slow_speed_curve(4.0)))
        assert calls == [400]

    def test_analyze(self, calls, tmp_path):
        spec = tmp_path / "c.json"
        spec.write_text(json.dumps({"type": "analytic", "x": "cos(s)", "y": "2*sin(s)",
                                    "z": "0.1*s", "range": [0, 3]}))
        result = CliRunner().invoke(main, ["analyze", str(spec), "--step", "0.01"])
        assert result.exit_code == 0
        assert calls == [len(result.output.strip().splitlines()) - 1]

    def test_bertrand_cli(self, calls, tmp_path):
        spec = tmp_path / "c.json"
        spec.write_text(json.dumps({"type": "analytic", "x": "1.5*cos(s)", "y": "0.8*sin(s)",
                                    "z": "0.1*s", "range": [0, 4]}))
        result = CliRunner().invoke(main, ["bertrand", str(spec), "--c1", "0.3", "--c2", "0.2",
                                           "--step", "0.1"])
        assert result.exit_code == 0
        assert calls == [len(result.output.strip().splitlines()) - 1]

    def test_pansu_sphere(self, calls):
        # the geodesic is already unit speed: its grid and the membership
        # samples are its only inversions
        sphere = pansu_sphere(1.0, step=0.01)
        assert calls == [step_grid(0.0, sphere.geodesic.s_max, 0.01).size, 200]

    def test_verify_cesaro(self, calls):
        # the check reads the sample it is given and inverts nothing itself
        h = reparam_horizontal(slow_speed_curve(4.0))
        grid = step_grid(0.0, h.s_max, 1e-2)
        assert verify_cesaro(grid, h.sample(grid)) < 1e-6
        assert calls == [grid.size]
