import numpy as np
import pytest

from h1curves import (
    HorizontalCurve,
    InitialPose,
    InvariantPair,
    ParamCurve,
    RegularityError,
    frame_at,
    frame_coefficients,
    is_horizontally_regular,
    kappa_tau_arbitrary,
    psh_transform_curve,
    reconstruct,
    reparam_horizontal,
    verify_cesaro,
)

from conftest import RecordingField, random_analytic_curve, random_psh_transform


def line_curve(scale="1"):
    return ParamCurve.from_expressions(f"{scale}*s", "0", "0", (0.0, 1.0))


def pansu_curve(lam=1.0):
    r = repr(float(lam))
    return ParamCurve.from_expressions(
        f"sin(2*{r}*s)/(2*{r})",
        f"(1 - cos(2*{r}*s))/(2*{r})",
        f"sin(2*{r}*s)/(4*{r}^2) - s/(2*{r}) + pi/(4*{r}^2)",
        (0.0, np.pi / lam),
    )


class TestRegularity:
    def test_horizontal_line(self):
        assert is_horizontally_regular(line_curve())

    def test_vertical_line_fails(self):
        c = ParamCurve.from_expressions("0", "0", "s", (0.0, 1.0))
        assert not is_horizontally_regular(c)

    def test_helix_has_unit_contact_speed(self):
        c = ParamCurve.from_expressions("cos(s)", "sin(s)", "s", (0.0, 6.0))
        assert is_horizontally_regular(c)


class TestKappaTau:
    def test_straight_line(self):
        k, t = kappa_tau_arbitrary(line_curve(), 0.5)
        assert k == pytest.approx(0.0, abs=1e-12)
        assert t == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    def test_planar_circle(self, R):
        r = repr(float(R))
        c = ParamCurve.from_expressions(
            f"{r}*cos(s)", f"{r}*sin(s)", "0", (0.0, 2 * np.pi)
        )
        k, t = kappa_tau_arbitrary(c, 1.1)
        assert k == pytest.approx(1.0 / R, rel=1e-12)
        assert t == pytest.approx(R, rel=1e-12)

    @pytest.mark.parametrize("R", [1.0, 3.0])
    def test_horizontal_lift_of_circle(self, R):
        r = repr(float(R))
        c = ParamCurve.from_expressions(
            f"{r}*cos(s/{r})", f"{r}*sin(s/{r})", f"-{r}*s", (0.0, 5.0)
        )
        k, t = kappa_tau_arbitrary(c, 2.0)
        assert k == pytest.approx(1.0 / R, rel=1e-12)
        assert t == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_speed_raises(self):
        c = ParamCurve.from_expressions("s^2", "0", "0", (-1.0, 1.0))
        with pytest.raises(RegularityError):
            kappa_tau_arbitrary(c, 0.0)

    def test_kappa_is_projection_plane_curvature(self, rng):
        # independent oracle: derivative of the heading angle with respect
        # to planar arc-length, by central differences
        x, y, z = random_analytic_curve(rng)
        c = ParamCurve.from_expressions(x, y, z, (0.0, 3.0))
        h = reparam_horizontal(c)
        s = np.linspace(0.3, h.s_max - 0.3, 15)
        eps = 1e-6
        phi_p = h.heading(s + eps)
        phi_m = h.heading(s - eps)
        oracle = (np.unwrap(np.stack([phi_m, phi_p]), axis=0)[1] - phi_m) / (2 * eps)
        assert np.max(np.abs(h.kappa(s) - oracle)) < 1e-6

    def test_tau_vanishes_iff_velocity_has_no_vertical_part(self):
        lift = ParamCurve.from_expressions("cos(s)", "sin(s)", "-s", (0.0, 5.0))
        circle = ParamCurve.from_expressions("cos(s)", "sin(s)", "0", (0.0, 5.0))
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
        h = reparam_horizontal(ParamCurve.from_expressions("2*s", "0", "0", (0, 1)))
        assert h.s_max == pytest.approx(2.0, abs=1e-12)
        assert h.u_of_s(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_circle_radius_two(self):
        c = ParamCurve.from_expressions("2*cos(s)", "2*sin(s)", "0", (0, 2 * np.pi))
        h = reparam_horizontal(c)
        assert h.s_max == pytest.approx(4 * np.pi, rel=1e-10)

    def test_pansu_already_unit_speed(self):
        h = reparam_horizontal(pansu_curve(1.0))
        s = np.linspace(0.0, h.s_max, 40)
        assert h.s_max == pytest.approx(np.pi, abs=1e-10)
        assert np.max(np.abs(h.u_of_s(s) - s)) < 1e-10

    def test_unit_contact_speed_invariant(self, rng):
        x, y, z = random_analytic_curve(rng)
        h = reparam_horizontal(ParamCurve.from_expressions(x, y, z, (0.0, 4.0)))
        assert h.contact_speed_check() < 1e-8


class TestFrame:
    def test_line_frame(self):
        h = reparam_horizontal(line_curve())
        f = frame_at(h, 0.75)
        assert np.allclose(f.t, [1, 0, 0], atol=1e-10)
        assert np.allclose(f.n, [0, 1, -0.75], atol=1e-10)
        assert np.array_equal(f.b, [0, 0, 1])

    def test_lift_frame_at_start(self):
        c = ParamCurve.from_expressions("cos(s)", "sin(s)", "-s", (0.0, 5.0))
        h = reparam_horizontal(c)
        f = frame_at(h, 0.0)
        assert np.allclose(f.t, [0, 1, -1], atol=1e-9)
        assert np.allclose(f.t_basis(), [0, 1, 0], atol=1e-9)

    def test_n_is_J_of_t_in_basis_components(self, rng):
        x, y, z = random_analytic_curve(rng)
        h = reparam_horizontal(ParamCurve.from_expressions(x, y, z, (0.0, 3.0)))
        for s in np.linspace(0.1, h.s_max - 0.1, 7):
            f = frame_at(h, float(s))
            xp, yp = f.contact
            assert np.allclose(f.n_basis(), [-yp, xp, 0.0], atol=1e-14)
            # Euclidean t and n lie in the contact plane at the base point
            p = f.base
            assert f.t[2] == pytest.approx(f.t[0] * p.y - f.t[1] * p.x, abs=1e-9)
            assert f.n[2] == pytest.approx(f.n[0] * p.y - f.n[1] * p.x, abs=1e-9)
            assert np.hypot(xp, yp) == pytest.approx(1.0, abs=1e-10)


class TestFrameCoefficients:
    def test_line_is_parallel_to_t(self):
        h = reparam_horizontal(line_curve())
        u1, u2, u3 = frame_coefficients(h, 0.6)
        assert (u1, u2, u3) == pytest.approx((0.6, 0.0, 0.0), abs=1e-10)

    def test_plane_norm_preserved(self, rng):
        x, y, z = random_analytic_curve(rng)
        h = reparam_horizontal(ParamCurve.from_expressions(x, y, z, (0.0, 3.0)))
        s = np.linspace(0.1, h.s_max - 0.1, 20)
        u1, u2, u3 = frame_coefficients(h, s)
        pts = h.point(s)
        assert np.max(np.abs(u1**2 + u2**2 - (pts[:, 0] ** 2 + pts[:, 1] ** 2))) < 1e-10
        assert np.max(np.abs(u3 - pts[:, 2])) == 0.0

    def test_norm_is_distance_to_origin(self, rng):
        x, y, z = random_analytic_curve(rng)
        h = reparam_horizontal(ParamCurve.from_expressions(x, y, z, (0.0, 3.0)))
        s = np.linspace(0.1, h.s_max - 0.1, 20)
        u1, u2, u3 = frame_coefficients(h, s)
        dist = np.linalg.norm(h.point(s), axis=1)
        assert np.max(np.abs(np.sqrt(u1**2 + u2**2 + u3**2) - dist)) < 1e-10


class TestVerifyCesaro:
    def test_line(self):
        h = reparam_horizontal(line_curve())
        assert verify_cesaro(h, np.linspace(0.1, 0.9, 9)) < 1e-9

    def test_pansu_curve(self):
        h = reparam_horizontal(pansu_curve(1.0))
        grid = np.linspace(0.1, h.s_max - 0.1, 30)
        assert verify_cesaro(h, grid, h_fd=1e-5) < 1e-7

    def test_reconstructed_curve(self):
        inv = InvariantPair.from_expressions("1 + 0.5*sin(s)", "0.2*s")
        h = reconstruct(inv, InitialPose.origin(), 3.0, 1e-3)
        grid = np.linspace(0.1, h.s_max - 0.1, 25)
        assert verify_cesaro(h, grid, h_fd=1e-5) < 1e-6

    def test_grid_must_be_interior(self):
        h = reparam_horizontal(line_curve())
        with pytest.raises(ValueError):
            verify_cesaro(h, np.array([0.0, 0.5]))


class TestPshInvariance:
    def test_invariants_unchanged(self, rng):
        for _ in range(6):
            x, y, z = random_analytic_curve(rng)
            c = ParamCurve.from_expressions(x, y, z, (0.0, 3.0))
            g = random_psh_transform(rng)
            moved = psh_transform_curve(g, c)
            u = np.linspace(0.1, 2.9, 30)
            k0, t0 = kappa_tau_arbitrary(c, u)
            k1, t1 = kappa_tau_arbitrary(moved, u)
            assert np.max(np.abs(k0 - k1)) < 1e-9
            assert np.max(np.abs(t0 - t1)) < 1e-9

    def test_transform_matches_pointwise_apply(self, rng):
        x, y, z = random_analytic_curve(rng)
        c = ParamCurve.from_expressions(x, y, z, (0.0, 3.0))
        g = random_psh_transform(rng)
        moved = psh_transform_curve(g, c)
        u = np.linspace(0.0, 3.0, 11)
        assert np.allclose(moved.point(u), g.apply_array(c.point(u)), atol=1e-12)


class TestArcLengthCurve:
    def test_u_of_s_is_the_identity_shift(self):
        c = ParamCurve.from_expressions("cos(s)", "sin(s)", "0.5*s", (1.5, 4.0))
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
        ka, ta = a.invariants(s)
        kb, tb = b.invariants(s)
        assert np.max(np.abs(ka - kb)) < 1e-8 and np.max(np.abs(ta - tb)) < 1e-8
        assert a.contact_speed_check() <= 1e-12


class TestFiniteInputs:
    @pytest.mark.parametrize("column", range(4))
    def test_sample_column_named(self, column):
        data = np.column_stack([np.arange(8.0)] + [np.arange(8.0) ** k for k in (1, 2, 3)])
        data[5, column] = np.nan
        with pytest.raises(ValueError, match=f"column {'uxyz'[column]} is not finite"):
            ParamCurve.from_samples(*data.T)

    def test_overflowing_curve_is_a_domain_error(self):
        c = ParamCurve.from_expressions("exp(exp(s))", "s", "0", (0.0, 10.0))
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

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            ParamCurve.from_samples([0, 1, 2], [0, 1, 2], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            ParamCurve.from_samples([0, 1, 1, 2], np.zeros(4), np.zeros(4), np.zeros(4))
