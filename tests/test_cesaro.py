import numpy as np
import pytest

from h1curves import (
    InitialPose,
    InvariantPair,
    ParamCurve,
    find_psh_alignment,
    reconstruct,
    reparam_horizontal,
)
from h1curves.cesaro import (
    CesaroConstants,
    SurfaceOfRevolution,
    cesaro_closed_form,
    cesaro_system_residual,
    check_necessary_conditions,
    curve_from_cesaro_solution,
    generate_surface_constant_kappa,
    generate_surface_constant_tau,
    pansu_graph_height,
    pansu_sphere,
    sphere_horizontal_gap,
    surface_membership,
)
from h1curves.fields import as_field


class TestClosedForm:
    def test_constant_kappa_matches_simplified_form(self):
        # kappa' = 0 kills the integral terms: u1 = A sin + B cos,
        # u2 = A cos - B sin + 1/kappa with A = C1C5 + C3C6, B = C2C5 + C4C6
        kappa = 2.0
        inv = InvariantPair.from_constants(kappa, 0.0)
        sol = cesaro_closed_form(
            inv, CesaroConstants(1, 0, 0, 1, 0.5, 0.25), interval=(0, 3)
        )
        s = np.linspace(0, 3, 200)
        A, B = 0.5, 0.25
        u1_exact = A * np.sin(kappa * s) + B * np.cos(kappa * s)
        u2_exact = A * np.cos(kappa * s) - B * np.sin(kappa * s) + 1 / kappa
        assert np.max(np.abs(sol.u1(s) - u1_exact)) < 1e-12
        assert np.max(np.abs(sol.u2(s) - u2_exact)) < 1e-12
        # analytic differentiation of the simplified form closes the system
        du1_exact = kappa * (A * np.cos(kappa * s) - B * np.sin(kappa * s))
        assert np.max(np.abs(du1_exact - (kappa * sol.u2(s) - 1.0))) < 1e-12
        du2_exact = -kappa * (A * np.sin(kappa * s) + B * np.cos(kappa * s))
        assert np.max(np.abs(du2_exact + kappa * sol.u1(s))) < 1e-12

    def test_nonconstant_kappa_solves_second_order_odes(self):
        # finite-difference residuals of u'' - (k'/k)u' + k^2 u = forcing,
        # 4th-order stencils on grid-aligned nodes
        inv = InvariantPair.from_expressions("2 + sin(s)", "0")
        sol = cesaro_closed_form(
            inv, CesaroConstants(1, 0, 0, 1, 1.0, 0.0), interval=(0, 5)
        )
        grid = sol.grid
        h = (grid[1] - grid[0]) * 20
        g = grid[40:-40:20]
        k = inv.kappa(g)
        kp = inv.kappa.derivative()(g)
        for u, forcing in ((sol.u1, kp / k), (sol.u2, np.asarray(k))):
            um2, um1, u0, up1, up2 = (u(g + j * h) for j in (-2, -1, 0, 1, 2))
            up = (um2 - 8 * um1 + 8 * up1 - up2) / (12 * h)
            upp = (-um2 + 16 * um1 - 30 * u0 + 16 * up1 - up2) / (12 * h * h)
            res = upp - (kp / k) * up + k * k * u0 - forcing
            assert np.max(np.abs(res)) < 1e-6

    def test_first_order_system_residuals(self):
        inv = InvariantPair.from_expressions("2 + sin(s)", "0.4*cos(s)")
        sol = cesaro_closed_form(
            inv, CesaroConstants(1, 0.2, -0.3, 1, 0.7, -0.2), interval=(0, 5)
        )
        res = cesaro_system_residual(sol, np.linspace(0.1, 4.9, 80))
        assert max(res) < 1e-6

    def test_negative_kappa_branch(self):
        inv = InvariantPair.from_expressions("-2 - 0.5*sin(s)", "0.1")
        sol = cesaro_closed_form(inv, CesaroConstants.default(0.4, 0.1), interval=(0, 4))
        res = cesaro_system_residual(sol, np.linspace(0.1, 3.9, 60))
        assert max(res) < 1e-6

    def test_zero_kappa_branch(self):
        inv = InvariantPair.from_expressions("0", "0.5*sin(s)")
        sol = cesaro_closed_form(
            inv, CesaroConstants.default(1.5, 0.7), interval=(0, 2), u3_const=0.3
        )
        assert sol.branch == "zero-kappa"
        s = np.linspace(0, 2, 50)
        assert np.max(np.abs(sol.u1(s) - (1.5 - s))) < 1e-12
        assert np.max(np.abs(sol.u2(s) - 0.7)) < 1e-12
        assert sol.u3(0.0) == pytest.approx(0.3, abs=1e-12)
        res = cesaro_system_residual(sol, np.linspace(0.1, 1.9, 30))
        assert max(res) < 1e-9

    def test_sign_changing_kappa_rejected(self):
        inv = InvariantPair.from_expressions("sin(s)", "0")
        with pytest.raises(ValueError, match="vanishes"):
            cesaro_closed_form(inv, CesaroConstants.default(), interval=(0, 5))

    def test_degenerate_constants_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            CesaroConstants(1.0, 2.0, 2.0, 4.0)

    def test_realized_curve_has_prescribed_invariants(self):
        inv = InvariantPair.from_expressions("2 + sin(s)", "0.2*cos(s)")
        sol = cesaro_closed_form(inv, CesaroConstants.default(0.5, -0.2), interval=(0, 4))
        h = curve_from_cesaro_solution(sol, heading0=0.9)
        s = np.linspace(0.1, h.s_max - 0.1, 50)
        kappa, tau = h.invariants(s)
        assert np.max(np.abs(kappa - inv.kappa(s))) < 1e-6
        assert np.max(np.abs(tau - inv.tau(s))) < 1e-6

    def test_realized_curve_is_arc_length_parametrized(self):
        inv = InvariantPair.from_expressions("2 + sin(s)", "0.2*cos(s)")
        sol = cesaro_closed_form(inv, CesaroConstants.default(0.5, -0.2), interval=(1.0, 4.0))
        h = curve_from_cesaro_solution(sol, heading0=0.9)
        assert h.s_max == 3.0
        assert h.contact_speed_check() <= 1e-12
        assert abs(reparam_horizontal(h.param, step=1e-3).s_max - 3.0) < 1e-9


class TestMembership:
    def test_pansu_geodesic_on_pansu_sphere(self):
        sphere = pansu_sphere(1.0)
        report = surface_membership(sphere.geodesic, sphere.surface, tol=1e-6)
        assert report.member and report.max_defect < 1e-9

    def test_line_not_on_unit_sphere(self):
        line = reparam_horizontal(
            ParamCurve.from_expressions("s", "0", "0", (0.2, 2.0))
        )
        sphere = SurfaceOfRevolution.from_profiles(
            as_field("sin(s)"), as_field("cos(s)"), (0.01, np.pi - 0.01)
        )
        report = surface_membership(line, sphere, tol=1e-6)
        assert not report.member
        assert report.max_defect > 0.5

    def test_lift_circle_on_cylinder(self):
        lift = reparam_horizontal(
            ParamCurve.from_expressions("cos(s)", "sin(s)", "-s", (0.0, 6.0))
        )
        cylinder = SurfaceOfRevolution.from_profiles(
            as_field("1"), as_field("-s"), (-0.5, 6.5)
        )
        report = surface_membership(lift, cylinder, tol=1e-6)
        assert report.member and report.max_defect < 1e-9

    @pytest.mark.parametrize("delta", [-0.04, -1e-3, 2e-3, 0.03])
    def test_offset_cylinder_recovers_offset(self, delta):
        lift = reparam_horizontal(
            ParamCurve.from_expressions("cos(s)", "sin(s)", "-s", (0.0, 6.0))
        )
        cylinder = SurfaceOfRevolution.from_profiles(
            as_field(repr(1.0 + delta)), as_field("-s"), (-0.5, 6.5)
        )
        report = surface_membership(lift, cylinder, tol=1e-6)
        assert not report.member
        assert report.max_defect == pytest.approx(abs(delta), abs=1e-12)

    def test_folded_generator_refines_the_nearest_basin(self):
        # the generator is a V with its vertex at (g, f) = (1, 0): arm 1
        # (s > 0) is (1 + s, eps s), arm 2 (s < 0) is (1 + |s|/10, eps s/10),
        # so arm 2 has ten times as many grid points.  The curve's
        # (rho, z) runs parallel to arm 1 at distance e/sqrt(1 + eps^2),
        # inside the V, so arm 2 is farther but its grid point is often the
        # closer one
        eps, e = 0.05, 0.005
        q = "((11*s + 9*abs(s))/20)"
        sigma = SurfaceOfRevolution.from_profiles(
            as_field(f"1 + abs({q})"), as_field(f"{eps}*{q}"), (-10.0, 1.0)
        )
        # z' = y x' - x y' holds for x + iy = s exp(i eps/s), z = eps s + z0
        curve = reparam_horizontal(ParamCurve.from_expressions(
            f"s*cos({eps}/s)", f"s*sin({eps}/s)", f"{eps}*s - {eps} - {e}",
            (1.105, 1.5),
        ))
        report = surface_membership(curve, sigma, tol=1e-6, profile_panels=1024)
        assert report.max_defect == pytest.approx(e / np.sqrt(1.0 + eps**2), abs=1e-12)

        pts = curve.point(np.linspace(0.0, curve.s_max, 200))
        rho, z = np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2]
        sp = np.linspace(-10.0, 1.0, 1025)
        gp, fp = sigma.profile(sp)
        argmin = np.argmin((rho[:, None] - gp) ** 2 + (z[:, None] - fp) ** 2, axis=1)
        assert np.any(sp[argmin] < 0.0)  # the grid argmin lies on arm 2

    def test_negative_squared_radius_between_grid_points_raises(self):
        # g^2 vanishes (to roundoff) on every grid node and is -1 halfway
        # between, so only the refinement inside a bracket can see it
        sigma = SurfaceOfRevolution(
            g2=as_field("-sin(1024*pi*s)^2"), f=as_field("s"), s_lo=0.0, s_hi=1.0
        )
        lift = reparam_horizontal(
            ParamCurve.from_expressions("cos(s)", "sin(s)", "-s", (0.0, 1.0))
        )
        with pytest.raises(ValueError, match="negative squared radius"):
            surface_membership(lift, sigma, tol=1e-6, profile_panels=1024)

    def test_immobility_and_realization_on_surface(self):
        # a solution's curve sits on the surface swept by
        # (sqrt(u1^2+u2^2), -u3); its own invariants match the inputs
        inv = InvariantPair.from_expressions("1.5 + 0.4*cos(s)", "0.1*s")
        sol = cesaro_closed_form(inv, CesaroConstants.default(0.8, 0.3), interval=(0, 4))
        h = curve_from_cesaro_solution(sol, heading0=0.3)
        s = np.linspace(0, h.s_max, 40)
        pts = h.point(s)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        # the theorem's identities hold pointwise along the shared parameter
        assert np.max(np.abs(rho - np.hypot(sol.u1(s), sol.u2(s)))) < 1e-8
        assert np.max(np.abs(pts[:, 2] + np.asarray(sol.u3(s)))) < 1e-8
        # and the geometric membership test agrees
        from h1curves.fields import SampledField

        grid = sol.grid
        sigma = SurfaceOfRevolution(
            g2=SampledField(grid, sol.u1(grid) ** 2 + sol.u2(grid) ** 2),
            f=SampledField(grid, -np.asarray(sol.u3(grid))),
            s_lo=grid[0],
            s_hi=grid[-1],
        )
        report = surface_membership(h, sigma, tol=1e-6)
        assert report.member


class TestFrameCoefficientsOnSurfaces:
    def test_cylinder_lift_coefficients_match_generator(self):
        # a curve on a surface of revolution has u1~^2 + u2~^2 = g^2 and
        # u3~ = f along the shared parameter
        from h1curves import frame_coefficients

        lift = reparam_horizontal(
            ParamCurve.from_expressions("cos(s)", "sin(s)", "-s", (0.0, 6.0))
        )
        s = np.linspace(0.1, 5.9, 40)
        u1, u2, u3 = frame_coefficients(lift, s)
        assert np.max(np.abs(u1**2 + u2**2 - 1.0)) < 1e-8  # g = 1
        assert np.max(np.abs(u3 - (-s))) < 1e-8  # f = -s

    def test_pansu_geodesic_coefficients_match_generator(self):
        from h1curves import frame_coefficients

        sphere = pansu_sphere(1.0)
        geo = sphere.geodesic
        s = np.linspace(0.05, geo.s_max - 0.05, 50)
        u1, u2, u3 = frame_coefficients(geo, s)
        # generator parameter matched by the quarter-turn shift
        t = s - np.pi / 2
        g, f = sphere.surface.profile(t)
        assert np.max(np.abs(np.hypot(u1, u2) - g)) < 1e-8
        assert np.max(np.abs(u3 - f)) < 1e-8


class TestNecessaryConditions:
    def test_pansu_profile_analytic(self):
        lam = 1.0
        inv = InvariantPair.from_constants(2 * lam, 0.0)
        sigma = SurfaceOfRevolution.from_profiles(
            as_field("cos(-s)"),
            as_field("(sin(-2*s) - 2*s)/4 + 1"),
            (-np.pi / 2 + 0.01, -0.01),
        )
        res1, res2 = check_necessary_conditions(
            sigma, inv, np.linspace(-np.pi / 2 + 0.05, -0.05, 80)
        )
        assert res1 < 1e-10 and res2 < 1e-10

    def test_sphere_profile_fails_second_condition(self):
        # tau = 0 and kappa from the first condition: the second condition
        # stays bounded away from zero except near sin^2 s = 1/2
        R = 1.0
        grid = np.linspace(0.3, np.pi / 2 - 0.15, 60)
        sigma = SurfaceOfRevolution.from_profiles(
            as_field("sin(s)"), as_field("cos(s)"), (0.05, np.pi - 0.05)
        )
        kappa1 = (2 * R**2 * np.sin(grid) ** 2 - R**2 + 1) / (R * np.sin(grid))
        inv = InvariantPair.from_samples(grid, kappa1, np.zeros_like(grid))
        _, res2 = check_necessary_conditions(sigma, inv, grid[5:-5])
        assert res2 > 0.1

    def test_random_data_fails_both(self, rng):
        sigma = SurfaceOfRevolution.from_profiles(
            as_field("2 + sin(s)"), as_field("s^2"), (0, 3)
        )
        inv = InvariantPair.from_expressions("1 + 0.5*cos(s)", "0.3*s")
        res1, res2 = check_necessary_conditions(sigma, inv, np.linspace(0.2, 2.8, 40))
        assert res1 > 0.1 and res2 > 0.1

    def test_zero_kappa_rejected(self):
        sigma = SurfaceOfRevolution.from_profiles(as_field("1"), as_field("s"), (0, 1))
        inv = InvariantPair.from_constants(0.0, 0.0)
        with pytest.raises(ValueError):
            check_necessary_conditions(sigma, inv, np.linspace(0.1, 0.9, 10))


class TestGenerateConstantKappa:
    def test_pansu_profile_reproduction(self):
        # lam = 1: C1 = -1, C2 = 0, C3 = 1 reproduce the closed profile
        surf = generate_surface_constant_kappa(
            2.0, 0.0, -1.0, 0.0, 1.0, 1.0, (-np.pi, 0.0)
        )
        s = np.linspace(-np.pi, 0, 400)
        g, f = surf.profile(s)
        assert np.max(np.abs(g - np.abs((1.0) * np.cos(-s)))) < 1e-12
        assert np.max(np.abs(f - ((np.sin(-2 * s) - 2 * s) / 4 + 1))) < 1e-12
        # where the displayed profile is nonnegative the branches agree exactly
        left = s[s >= -np.pi / 2]
        g_left, _ = surf.profile(left)
        assert np.max(np.abs(g_left - np.cos(-left))) < 1e-12

    def test_output_passes_necessary_conditions(self):
        surf = generate_surface_constant_kappa(
            1.5, 0.25, -0.8, 0.3, 1.2, 0.5, (0.0, 2.0)
        )
        inv = InvariantPair.from_constants(1.5, 0.25)
        res1, res2 = check_necessary_conditions(surf, inv, np.linspace(0.05, 1.95, 60))
        assert res1 < 1e-9 and res2 < 1e-9

    def test_cylinder_special_case(self):
        R, kappa = 3.0, 2.0
        surf = generate_surface_constant_kappa(
            kappa, 0.0, 0.0, 0.0, kappa * R * R, 1.0, (0.0, 2.0)
        )
        s = np.linspace(0, 2, 50)
        g, f = surf.profile(s)
        assert np.max(np.abs(g - R)) < 1e-12
        assert np.max(np.abs(f - (-s / kappa + 1.0))) < 1e-12

    def test_negative_radicand_reports_location(self):
        with pytest.raises(ValueError, match="negative radicand"):
            generate_surface_constant_kappa(2.0, 0.0, -1.0, 0.0, 0.5, 0.0, (-np.pi, 0.0))


class TestGenerateConstantTau:
    def test_constant_kappa_reduces_to_part_one(self):
        kappa, A, B, g2c = 2.0, 0.5, -0.3, 1.6
        inv = InvariantPair.from_constants(kappa, 0.0)
        surf2 = generate_surface_constant_tau(
            inv, CesaroConstants(1, 0, 0, 1, A, B), interval=(0, 3), g2_const=g2c
        )
        surf1 = generate_surface_constant_kappa(
            kappa, 0.0, -2 * A, -2 * B, kappa * g2c - 2 * A, 0.0, (0, 3)
        )
        s = np.linspace(0, 3, 120)
        g1, f1 = surf1.profile(s)
        g2, f2 = surf2.profile(s)
        assert np.max(np.abs(g1 - g2)) < 1e-8
        assert np.max(np.abs((f1 - f1[0]) - (f2 - f2[0]))) < 1e-8

    def test_output_passes_necessary_conditions(self):
        inv = InvariantPair.from_expressions("2 + sin(s)", "0.3")
        surf = generate_surface_constant_tau(
            inv, CesaroConstants(1, 0, 0, 1, 0.0, 0.0), interval=(0, 5), g2_const=1.0
        )
        res1, res2 = check_necessary_conditions(surf, inv, np.linspace(0.1, 4.9, 80))
        assert res1 < 1e-6 and res2 < 1e-6

    def test_negative_squared_radius_reports_crossing(self):
        inv = InvariantPair.from_constants(2.0, 0.0)
        with pytest.raises(ValueError, match="negative"):
            generate_surface_constant_tau(
                inv, CesaroConstants(1, 0, 0, 1, 0.5, -0.3), interval=(0, 3),
                g2_const=0.9,
            )

    def test_nonconstant_tau_rejected(self):
        inv = InvariantPair.from_expressions("2", "sin(s)")
        with pytest.raises(ValueError, match="constant"):
            generate_surface_constant_tau(
                inv, CesaroConstants.default(), interval=(0, 3)
            )


class TestSphereGap:
    def test_gap_vanishes_at_quarter_pi(self):
        rows = sphere_horizontal_gap(1.0, np.array([np.pi / 4]))
        assert rows[0, 1] < 1e-10

    def test_unit_sphere_at_half_pi(self):
        rows = sphere_horizontal_gap(1.0, np.array([np.pi / 2]))
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_radius_two(self):
        rows = sphere_horizontal_gap(2.0, np.array([np.pi / 2]))
        assert rows[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_positive_away_from_zeros(self):
        s = np.linspace(0.1, np.pi - 0.1, 500)
        keep = (np.abs(s - np.pi / 4) > 0.05) & (np.abs(s - 3 * np.pi / 4) > 0.05)
        rows = sphere_horizontal_gap(1.0, s[keep])
        assert np.min(rows[:, 1]) > 0.1


class TestPansuSphere:
    def test_poles_lambda_one(self):
        sphere = pansu_sphere(1.0)
        assert np.allclose(sphere.certificate.north_pole, [0, 0, np.pi / 4], atol=1e-12)
        assert np.allclose(sphere.certificate.south_pole, [0, 0, -np.pi / 4], atol=1e-12)

    def test_poles_lambda_two(self):
        sphere = pansu_sphere(2.0)
        assert np.allclose(sphere.certificate.north_pole, [0, 0, np.pi / 16], atol=1e-12)
        assert np.allclose(sphere.certificate.south_pole, [0, 0, -np.pi / 16], atol=1e-12)

    def test_invariants(self):
        sphere = pansu_sphere(1.0)
        assert sphere.certificate.kappa_error < 1e-9
        assert sphere.certificate.tau_error < 1e-9

    @pytest.mark.parametrize("lam", [0.775, 1.55])
    def test_profile_touching_axis_past_roundoff(self, lam):
        # lam * pi/(2 lam) rounds past pi/2 here, so cos is about -1e-17 at
        # an end of the profile range
        sphere = pansu_sphere(lam)
        assert sphere.certificate.membership.member

    def test_membership_miss_is_a_verdict(self):
        sphere = pansu_sphere(1.0, tol=1e-30)
        assert not sphere.certificate.membership.member

    def test_graphs_and_membership(self):
        sphere = pansu_sphere(0.7)
        assert sphere.certificate.graph_defect < 1e-8
        assert sphere.certificate.membership.member

    def test_height_function_endpoints(self):
        lam = 1.0
        assert pansu_graph_height(lam, 0.0) == pytest.approx(np.pi / 4)
        assert pansu_graph_height(lam, 1.0) == pytest.approx(0.0, abs=1e-12)


class TestTheoremLoop:
    def test_conditions_imply_membership_of_realized_curve(self):
        # profiles satisfying both conditions; the induced coefficients
        # solve the system and the realized curve lies on the radially
        # stretched surface with the prescribed invariants
        lam = 1.0
        inv = InvariantPair.from_constants(2 * lam, 0.0)
        lo, hi = -np.pi / 2 + 0.2, -0.2
        g = as_field("cos(-s)")
        f = as_field("(sin(-2*s) - 2*s)/4")
        g2p = as_field("-sin(2*s)")  # d/ds cos^2
        u1 = lambda s: -0.5 * g2p(s)
        fp = f.derivative()
        u2 = lambda s: -fp(s)
        s_grid = np.linspace(lo, hi, 2001)
        # residuals of the system for the derived coefficients
        h_fd = 1e-6
        inner = s_grid[5:-5]
        du1 = (u1(inner + h_fd) - u1(inner - h_fd)) / (2 * h_fd)
        du2 = (u2(inner + h_fd) - u2(inner - h_fd)) / (2 * h_fd)
        k = 2 * lam
        assert np.max(np.abs(du1 - (k * u2(inner) - 1))) < 1e-8
        assert np.max(np.abs(du2 + k * u1(inner))) < 1e-8
        # stretch constant: u1^2 + u2^2 - g^2 is constant
        stretch = u1(s_grid) ** 2 + u2(s_grid) ** 2 - np.asarray(g(s_grid)) ** 2
        assert np.ptp(stretch) < 1e-10
        c_stretch = float(np.mean(stretch))
        # realize the curve carrying these coefficients: it lies on the
        # radially stretched surface with the prescribed invariants
        phi = k * (s_grid - lo)
        x = -u1(s_grid) * np.cos(phi) + u2(s_grid) * np.sin(phi)
        y = -u1(s_grid) * np.sin(phi) - u2(s_grid) * np.cos(phi)
        z = -(-np.asarray(f(s_grid)))  # u3 = -f
        curve = reparam_horizontal(ParamCurve.from_samples(s_grid, x, y, z))
        si = np.linspace(0.1, curve.s_max - 0.1, 30)
        kappa, tau = curve.invariants(si)
        assert np.max(np.abs(kappa - k)) < 1e-6
        assert np.max(np.abs(tau)) < 1e-6
        rho = np.hypot(x, y)
        stretched_g = np.sqrt(np.asarray(g(s_grid)) ** 2 + c_stretch)
        assert np.max(np.abs(rho - stretched_g)) < 1e-6
        assert np.max(np.abs(z - np.asarray(f(s_grid)))) < 1e-6
