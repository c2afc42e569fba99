import dataclasses
import re

import numpy as np
import pytest

from h1curves import (
    H1Point,
    HorizontalCurve,
    InvariantPair,
    ParamCurve,
    PshTransform,
    find_psh_alignment,
    psh_transform_curve,
    reconstruct_curve,
    reparam_horizontal,
)
from h1curves.cesaro import (
    CesaroConstants,
    SurfaceOfRevolution,
    cesaro_closed_form,
    cesaro_system_residual,
    check_necessary_conditions,
    generate_surface_constant_kappa,
    generate_surface_constant_tau,
    pansu_graph_height,
    pansu_sphere,
    sphere_horizontal_gap,
    surface_membership,
)
from h1curves import cesaro, numerics
from h1curves.expressions import Leaf, ScalarFn, _children
from h1curves.frenet import _cascade_curve
from h1curves.fields import CubicHermite, SampledField, antiderivative, as_field
from h1curves.numerics import lowest_local_minima

from conftest import contact_speed_deviation


def curve_from_solution(sol, heading0=0.0):
    """A curve whose own frame coefficients are the solution's -(u1, u2, u3):
    ``sol.curve`` rotated about the z-axis by heading0, which leaves the
    coefficients unchanged; its arc length is s - lo."""
    rotation = PshTransform(heading0, H1Point.origin())
    return HorizontalCurve.arc_length(psh_transform_curve(rotation, sol.curve))


def antiderivative_leaves(fn):
    """Every ``CubicHermite`` leaf in the tree of ``fn``, those inside the
    derivative trees of others included, each once."""
    found, stack = {}, [fn.ast]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf) and isinstance(node.field, CubicHermite):
            if id(node.field) not in found:
                found[id(node.field)] = node.field
                stack.append(node.field.derivative().ast)
        stack.extend(_children(node))
    return list(found.values())


def hermite_calls(monkeypatch):
    """The list that every ``CubicHermite`` call appends its interpolant to,
    while the test runs."""
    calls = []
    original = CubicHermite.__call__

    def counting(self, s):
        calls.append(self)
        return original(self, s)

    monkeypatch.setattr(CubicHermite, "__call__", counting)
    return calls


def paper_closed_form(inv, c, grid):
    """The paper's u1 and u2: A sin + B cos and A cos - B sin of theta plus
    the I1, I2 terms (integrals of kappa'/(kappa^2 Delta)) and 1/kappa, all
    on ``grid``.  The reference the fixed point Q must reproduce."""
    theta = antiderivative(inv.kappa, grid)
    sin, cos = theta.apply("sin"), theta.apply("cos")
    kp, k2d = inv.kappa.derivative(), inv.kappa ** 2 * c.delta
    I1 = antiderivative((c.c1 * sin + c.c2 * cos) * kp / k2d, grid)
    I2 = antiderivative((c.c3 * sin + c.c4 * cos) * kp / k2d, grid)
    A, B = c.c1 * c.c5 + c.c3 * c.c6, c.c2 * c.c5 + c.c4 * c.c6
    u1 = A * sin + B * cos + (c.c3 * sin + c.c4 * cos) * I1 - (c.c1 * sin + c.c2 * cos) * I2
    u2 = (A * cos - B * sin + (c.c3 * cos - c.c4 * sin) * I1
          - (c.c1 * cos - c.c2 * sin) * I2 + 1 / inv.kappa)
    return u1, u2


# cesaro_system_residual of the closed forms below, read where fd4's stencil
# is centred on their own grid: at most 5.0e-12 (a kappa crossing zero) and
# 2.9e-12 for the others, the rounding of fd4 there
RESIDUAL_BOUND = 1e-11

# the general cases of the tests below: kappa, tau, constants, interval
GENERAL_CASES = [
    ("2 + sin(s)", "0.4*cos(s)", (1, 0.2, -0.3, 1, 0.7, -0.2), (0, 5)),
    ("-2 - 0.5*sin(s)", "0.1", (1.0, 0.0, 0.0, 1.0, 0.4, 0.1), (0, 4)),
    ("2 + sin(s)", "0.2*cos(s)", (1.0, 0.0, 0.0, 1.0, 0.5, -0.2), (1.0, 4.0)),
    ("1.5 + 0.3*sin(3*s)", "0.4 + 0.2*cos(s)", (1.0, 0.5, -0.3, 1.2, 0.2, -0.1), (0, 3)),
    ("1.5 + 0.4*cos(s)", "0.1*s", (1.0, 0.0, 0.0, 1.0, 0.8, 0.3), (0, 4)),
]


class TestClosedForm:
    def test_constant_kappa_matches_simplified_form(self):
        # kappa' = 0 kills the integral terms: u1 = A sin + B cos,
        # u2 = A cos - B sin + 1/kappa with A = C1C5 + C3C6, B = C2C5 + C4C6
        kappa = 2.0
        inv = InvariantPair(kappa, 0.0)
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
        inv = InvariantPair("2 + sin(s)", "0")
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
        inv = InvariantPair("2 + sin(s)", "0.4*cos(s)")
        sol = cesaro_closed_form(
            inv, CesaroConstants(1, 0.2, -0.3, 1, 0.7, -0.2), interval=(0, 5)
        )
        assert max(cesaro_system_residual(sol)) < RESIDUAL_BOUND

    def test_negative_kappa_branch(self):
        inv = InvariantPair("-2 - 0.5*sin(s)", "0.1")
        sol = cesaro_closed_form(inv, CesaroConstants(1.0, 0.0, 0.0, 1.0, 0.4, 0.1),
                                 interval=(0, 4))
        assert max(cesaro_system_residual(sol)) < RESIDUAL_BOUND

    def test_zero_kappa_branch(self):
        inv = InvariantPair("0", "0.5*sin(s)")
        sol = cesaro_closed_form(
            inv, CesaroConstants(1.0, 0.0, 0.0, 1.0, 1.5, 0.7), interval=(0, 2), u3_const=0.3
        )
        assert sol.branch == "zero-kappa"
        s = np.linspace(0, 2, 50)
        assert np.max(np.abs(sol.u1(s) - (1.5 - s))) < 1e-12
        assert np.max(np.abs(sol.u2(s) - 0.7)) < 1e-12
        assert sol.u3(0.0) == pytest.approx(0.3, abs=1e-12)
        assert max(cesaro_system_residual(sol)) < RESIDUAL_BOUND

    @pytest.mark.parametrize("kappa", ["2 + sin(s)", "0"], ids=["general", "zero-kappa"])
    def test_perturbed_tau_fails(self, kappa):
        # u3 solves u3' = u2 - tau for the tau it was built with, not for
        # tau + 1e-5 cos(s)
        inv = InvariantPair(kappa, "0.4*cos(s)")
        sol = cesaro_closed_form(inv, CesaroConstants(1, 0.2, -0.3, 1, 0.7, -0.2), interval=(0, 5))
        assert max(cesaro_system_residual(sol)) < RESIDUAL_BOUND
        perturbed = InvariantPair(inv.kappa, inv.tau + 1e-5 * ScalarFn.parse("cos(s)"))
        res = cesaro_system_residual(dataclasses.replace(sol, inv=perturbed))
        assert res[2] > RESIDUAL_BOUND

    @pytest.mark.parametrize("kappa,tau,constants,interval", GENERAL_CASES)
    def test_fixed_point_is_the_papers_closed_form(self, kappa, tau, constants, interval):
        # minus the coefficients of the curve that starts at -Q, Q = (C2 C5 +
        # C4 C6, C1 C5 + C3 C6 + 1/kappa(lo)), are the paper's form,
        # integrated by parts
        inv, c = InvariantPair(kappa, tau), CesaroConstants(*constants)
        sol = cesaro_closed_form(inv, c, interval=interval)
        u1, u2 = paper_closed_form(inv, c, sol.grid)
        s = np.concatenate([sol.grid, np.linspace(*interval, 997)])
        assert np.max(np.abs(sol.u1(s) - u1(s))) <= 1e-12
        assert np.max(np.abs(sol.u2(s) - u2(s))) <= 1e-12
        u3 = antiderivative(u2 - inv.tau, sol.grid)
        assert np.max(np.abs(sol.u3(s) - u3(s))) <= 1e-12

    @pytest.mark.parametrize("kappa", ["s - 0.50005", "s - 0.5"],
                             ids=["between-nodes", "on-a-node"])
    def test_kappa_crossing_zero_inside_the_interval(self, kappa):
        # only the constants read 1/kappa, at the left endpoint: the forms
        # hold through the zero, where the paper's 1/kappa has a pole
        inv = InvariantPair(kappa, "0.3")
        sol = cesaro_closed_form(inv, CesaroConstants(1, 0.2, -0.3, 1, 0.7, -0.2), (0, 1))
        assert sol.branch == "general"
        assert max(cesaro_system_residual(sol)) < RESIDUAL_BOUND

    def test_antiderivatives_are_built_on_the_solution_grid(self):
        # u3 is minus the height z of the solution's curve, whose integrand
        # holds its heading phi and its x and y: the cascade's cumulative
        # Simpson on sol.grid itself, not on copies of it
        inv = InvariantPair("2 + sin(s)", "0.4*cos(s)")
        sol = cesaro_closed_form(inv, CesaroConstants(1, 0.2, -0.3, 1, 0.7, -0.2), (0.5, 3.0))
        leaves = antiderivative_leaves(sol.u3)
        assert len(leaves) == 4
        assert all(leaf.nodes is sol.grid for leaf in leaves)

    @pytest.mark.parametrize("kappa,tau,constants,interval",
                             GENERAL_CASES + [("0", "0.5*sin(s)", (1, 0, 0, 1, 1.5, 0.7), (0, 2))])
    def test_solution_is_minus_the_coefficients_of_its_curve(self, kappa, tau, constants,
                                                             interval):
        # CurveSample.coefficients of sol.curve, read at sol.grid, are -(u1, u2, u3)
        inv = InvariantPair(kappa, tau)
        sol = cesaro_closed_form(inv, CesaroConstants(*constants), interval, u3_const=0.3)
        smp = HorizontalCurve.arc_length(sol.curve).sample(sol.grid - sol.grid[0])
        u = np.stack([f(sol.grid) for f in (sol.u1, sol.u2, sol.u3)])
        assert np.max(np.abs(-np.stack(smp.coefficients()) - u)) <= 1e-13

    def test_degenerate_interval_rejected(self):
        inv = InvariantPair("2 + sin(s)", "0")
        with pytest.raises(ValueError, match=r"degenerate interval \[1.0, 1.0\]"):
            cesaro_closed_form(inv, CesaroConstants(1.0, 0.0, 0.0, 1.0), interval=(1, 1))

    def test_sign_changing_kappa_rejected(self):
        inv = InvariantPair("sin(s)", "0")
        with pytest.raises(ValueError, match="vanishes"):
            cesaro_closed_form(inv, CesaroConstants(1.0, 0.0, 0.0, 1.0), interval=(0, 5))

    def test_degenerate_constants_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            CesaroConstants(1.0, 2.0, 2.0, 4.0)

    def test_realized_curve_has_prescribed_invariants(self):
        inv = InvariantPair("2 + sin(s)", "0.2*cos(s)")
        sol = cesaro_closed_form(inv, CesaroConstants(1.0, 0.0, 0.0, 1.0, 0.5, -0.2),
                                 interval=(0, 4))
        h = curve_from_solution(sol, heading0=0.9)
        s = np.linspace(0.1, h.s_max - 0.1, 50)
        smp = h.sample(s)
        assert np.max(np.abs(smp.kappa - inv.kappa(s))) < 1e-6
        assert np.max(np.abs(smp.tau - inv.tau(s))) < 1e-6

    def test_realized_curve_invariants_are_exact_to_roundoff(self):
        # the curve is built from the solution's own trees, so its
        # derivatives carry no quadrature or difference error
        inv = InvariantPair("1.5 + 0.3*sin(3*s)", "0.4 + 0.2*cos(s)")
        constants = CesaroConstants(1.0, 0.5, -0.3, 1.2, 0.2, -0.1)
        sol = cesaro_closed_form(inv, constants, interval=(0, 3))
        h = curve_from_solution(sol, heading0=0.3)
        s = np.linspace(0.0, 3.0, 301)
        smp = h.sample(s)
        assert np.max(np.abs(smp.kappa - inv.kappa(s))) < 1e-12
        assert np.max(np.abs(smp.tau - inv.tau(s))) < 1e-12

    def test_realized_curve_evaluates_each_field_once_per_order(self, monkeypatch):
        # x' is the tree cos(phi) and x'' is -sin(phi) kappa: each order of
        # x evaluates one interpolant, once
        inv = InvariantPair("1.5 + 0.3*sin(3*s)", "0.4 + 0.2*cos(s)")
        constants = CesaroConstants(1.0, 0.5, -0.3, 1.2, 0.2, -0.1)
        h = curve_from_solution(cesaro_closed_form(inv, constants, interval=(0, 3)))
        calls = hermite_calls(monkeypatch)
        s = np.linspace(0.0, 3.0, 31)
        counts = []
        for f in (h.param.x, h.param.x.derivative(), h.param.x.derivative(2)):
            calls.clear()
            f(s)
            counts.append(len(calls))
        assert counts == [1, 1, 1]

    def test_solution_evaluates_each_interpolant_once_per_call(self, monkeypatch):
        # u1 = -(x x' + y y'), u2 and u1' hold x, y and the heading phi; a
        # leaf's derivative is its integrand's tree, so a call evaluates
        # each of the three interpolants once
        inv = InvariantPair("1.5 + 0.3*sin(3*s)", "0.4 + 0.2*cos(s)")
        constants = CesaroConstants(1.0, 0.5, -0.3, 1.2, 0.2, -0.1)
        sol = cesaro_closed_form(inv, constants, interval=(0, 3))
        calls = hermite_calls(monkeypatch)
        s = np.linspace(0.0, 3.0, 31)
        for f in (sol.u1, sol.u2, sol.u1.derivative()):
            calls.clear()
            f(s)
            assert len(calls) <= 3

    def test_realized_curve_is_arc_length_parametrized(self):
        inv = InvariantPair("2 + sin(s)", "0.2*cos(s)")
        sol = cesaro_closed_form(inv, CesaroConstants(1.0, 0.0, 0.0, 1.0, 0.5, -0.2),
                                 interval=(1.0, 4.0))
        h = curve_from_solution(sol, heading0=0.9)
        assert h.s_max == 3.0
        assert contact_speed_deviation(h) < 1e-11  # M = 1.1, D5 = 92: 6.1e-12 + 3.0e-12
        assert abs(reparam_horizontal(h.param, step=1e-3).s_max - 3.0) < 1e-9


class TestMembership:
    def test_pansu_geodesic_on_pansu_sphere(self):
        sphere = pansu_sphere(1.0)
        report = surface_membership(sphere.geodesic, sphere.surface, tol=1e-6)
        assert report.member and report.max_defect < 1e-9

    def test_line_not_on_unit_sphere(self):
        line = reparam_horizontal(
            ParamCurve.from_fields("s", "0", "0", (0.2, 2.0))
        )
        sphere = SurfaceOfRevolution.from_profiles(
            as_field("sin(s)"), as_field("cos(s)"), (0.01, np.pi - 0.01)
        )
        report = surface_membership(line, sphere, tol=1e-6)
        assert not report.member
        assert report.max_defect > 0.5

    def test_lift_circle_on_cylinder(self):
        lift = reparam_horizontal(
            ParamCurve.from_fields("cos(s)", "sin(s)", "-s", (0.0, 6.0))
        )
        cylinder = SurfaceOfRevolution.from_profiles(
            as_field("1"), as_field("-s"), (-0.5, 6.5)
        )
        report = surface_membership(lift, cylinder, tol=1e-6)
        assert report.member and report.max_defect < 1e-9

    @pytest.mark.parametrize("delta", [-0.04, -1e-3, 2e-3, 0.03])
    def test_offset_cylinder_recovers_offset(self, delta):
        lift = reparam_horizontal(
            ParamCurve.from_fields("cos(s)", "sin(s)", "-s", (0.0, 6.0))
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
        curve = reparam_horizontal(ParamCurve.from_fields(
            f"s*cos({eps}/s)", f"s*sin({eps}/s)", f"{eps}*s - {eps} - {e}",
            (1.105, 1.5),
        ))
        report = surface_membership(curve, sigma, tol=1e-6)
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
            ParamCurve.from_fields("cos(s)", "sin(s)", "-s", (0.0, 1.0))
        )
        with pytest.raises(ValueError, match="negative squared radius"):
            surface_membership(lift, sigma, tol=1e-6)

    def test_immobility_and_realization_on_surface(self):
        # a solution's curve sits on the surface swept by
        # (sqrt(u1^2+u2^2), -u3); its own invariants match the inputs
        inv = InvariantPair("1.5 + 0.4*cos(s)", "0.1*s")
        sol = cesaro_closed_form(inv, CesaroConstants(1.0, 0.0, 0.0, 1.0, 0.8, 0.3),
                                 interval=(0, 4))
        h = curve_from_solution(sol, heading0=0.3)
        s = np.linspace(0, h.s_max, 40)
        pts = h.point(s)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        # the theorem's identities hold pointwise along the shared parameter
        assert np.max(np.abs(rho - np.hypot(sol.u1(s), sol.u2(s)))) < 1e-8
        assert np.max(np.abs(pts[:, 2] + np.asarray(sol.u3(s)))) < 1e-8
        # and the geometric membership test agrees
        grid = sol.grid
        sigma = SurfaceOfRevolution(
            g2=SampledField(grid, sol.u1(grid) ** 2 + sol.u2(grid) ** 2),
            f=SampledField(grid, -np.asarray(sol.u3(grid))),
            s_lo=grid[0],
            s_hi=grid[-1],
        )
        report = surface_membership(h, sigma, tol=1e-6)
        assert report.member


def _argsort_basins(d2, k):
    """Reference candidate selection: non-minima set to inf, then a stable
    argsort of each whole row, keeping the finite entries of its first k."""
    d2 = np.array(d2, dtype=float)
    interior = (d2[:, 1:-1] <= d2[:, :-2]) & (d2[:, 1:-1] <= d2[:, 2:])
    d2[:, 1:-1][~interior] = np.inf
    cols = np.argsort(d2, axis=1, kind="stable")[:, :k]
    keep = np.isfinite(np.take_along_axis(d2, cols, axis=1))
    rows = np.broadcast_to(np.arange(d2.shape[0])[:, None], cols.shape)
    return rows[keep], cols[keep]


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestMembershipSearch:
    @staticmethod
    def cylinder_case(delta=0.0):
        lift = reparam_horizontal(
            ParamCurve.from_fields("cos(s)", "sin(s)", "-s", (0.0, 6.0))
        )
        cylinder = SurfaceOfRevolution.from_profiles(
            as_field(repr(1.0 + delta)), as_field("-s"), (-0.5, 6.5)
        )
        return lift, cylinder

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [(32, 1025), (7, 40), (5, 3), (4, 2)])
    def test_candidates_match_argsort_selection(self, seed, shape):
        rng = np.random.default_rng(seed)
        blocks = [rng.random(shape),
                  rng.integers(0, 3, shape).astype(float),  # ties and plateaus
                  np.where(rng.random(shape) < 0.2, np.inf, rng.random(shape))]
        blocks[2][rng.random(shape) < 0.1] = np.nan
        for d2 in blocks:
            for k in (1, 4):
                rows, cols = lowest_local_minima(d2, k)
                want_rows, want_cols = _argsort_basins(d2, k)
                np.testing.assert_array_equal(rows, want_rows)
                np.testing.assert_array_equal(cols, want_cols)

    def test_kink_at_the_nearest_point_takes_the_fallback(self, monkeypatch):
        # the generator is a roof with its ridge (2, c) off the grid; every
        # curve point (3 cos, 3 sin, z) has |z - c| < 1, inside the ridge's
        # normal cone, so the ridge is the nearest point and d^2 has a kink
        # there that parabolic steps cannot resolve
        c = 0.1 + 2.0**0.5 * 1e-3
        lo, hi = c - 0.6, c + 0.7
        sigma = SurfaceOfRevolution.from_profiles(
            as_field(f"2 - abs(s - {c!r})"), as_field("s"), (lo, hi)
        )
        curve = reparam_horizontal(ParamCurve.from_fields(
            "3*cos(s)", "3*sin(s)", "0.3 - 9*s", (0.0, 0.05)
        ))
        golden = _counting(monkeypatch, numerics, "golden_section")
        report = surface_membership(curve, sigma, tol=1e-6)
        assert len(golden) == 1  # the fallback only

        pts = curve.point(np.linspace(0.0, curve.s_max, 200))
        rho, z = np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2]
        dense = np.append(np.linspace(lo, hi, 200_001), c)
        gp, fp = sigma.profile(dense)
        brute = np.max(np.sqrt(np.min(
            (rho[:, None] - gp) ** 2 + (z[:, None] - fp) ** 2, axis=1)))
        assert report.max_defect == pytest.approx(brute, abs=1e-12)

    def test_cylinder_check_profile_calls(self, monkeypatch):
        # one call for the grid, one for the golden-section points, two
        # parabolic steps (d^2 is a parabola in t: the first lands on its
        # vertex, the second moves by rounding alone, under tol), one for
        # the certificate probes, no fallback
        lift, cylinder = self.cylinder_case(0.01)
        profile = _counting(monkeypatch, SurfaceOfRevolution, "profile")
        golden = _counting(monkeypatch, numerics, "golden_section")
        report = surface_membership(lift, cylinder, tol=1e-6)
        assert report.max_defect == pytest.approx(0.01, abs=1e-12)
        assert len(profile) == 1 + 1 + 2 + 1
        assert len(golden) == 0

    def test_minimum_near_a_generator_end_needs_no_fallback(self, monkeypatch):
        # the profile range is 1e6 long and the curve's heights all lie
        # within the first grid panel of its end s = 0, so the first
        # parabola runs through that end node and two golden points
        lift = reparam_horizontal(
            ParamCurve.from_fields("cos(s)", "sin(s)", "-s", (0.0, 1.0))
        )
        cylinder = SurfaceOfRevolution.from_profiles(
            as_field("1"), as_field("-s"), (0.0, 1e6)
        )
        golden = _counting(monkeypatch, numerics, "golden_section")
        report = surface_membership(lift, cylinder, tol=1e-6)
        assert report.member and report.max_defect < 1e-12
        assert len(golden) == 0

    @pytest.mark.parametrize("kappa, tau, phi0, centre, c3f", [
        (1.0657, 0.6081, -3.0231, (-0.3760, 0.1141), 0.6289),
        (-2.4419, -0.9159, -0.1507, (-0.1782, -0.1410), -0.9181),
        (-1.7159, 0.8131, -1.0765, (0.7305, 0.7718), 0.1723),
        (-0.9044, 0.4675, -2.8892, (1.7740, 0.1863), 0.4994),
    ])
    def test_closed_form_curve_is_a_member_at_a_tight_tol(self, kappa, tau, phi0, centre, c3f):
        # a circle track of radius 1/|kappa| about (a, b) with z = f lies on
        # the constant-kappa surface whose g^2 is its x^2 + y^2; the search
        # resolves the distance to rounding, far below 1e-12
        (a, b), lo, hi = centre, -3.0, 0.5
        sigma = generate_surface_constant_kappa(
            kappa, tau, 2.0 * (b * np.cos(phi0) - a * np.sin(phi0)),
            2.0 * (a * np.cos(phi0) + b * np.sin(phi0)), kappa * (a * a + b * b) + 1.0 / kappa,
            c3f, (lo, hi))
        k = repr(kappa)
        curve = reparam_horizontal(ParamCurve.from_fields(
            f"{a!r} + sin({phi0!r} + {k}*s)/{k}", f"{b!r} - cos({phi0!r} + {k}*s)/{k}",
            sigma.f_text, (lo, hi)))
        report = surface_membership(curve, sigma, tol=1e-12)
        assert report.member and report.max_defect < 1e-13

    @staticmethod
    def scan_candidates(monkeypatch, h, sigma):
        """The (row, node) candidates of the membership scan, the exact d^2
        on its grid and the report."""
        seen = []

        def recorded(values, k):
            seen.append(lowest_local_minima(values, k))
            return seen[-1]

        monkeypatch.setattr(cesaro, "lowest_local_minima", recorded)
        report = surface_membership(h, sigma, tol=1e-6)
        pts = h.point(np.linspace(0.0, h.s_max, 200))
        gp, fp = sigma.profile(np.linspace(sigma.s_lo, sigma.s_hi, 1025))
        rho, z = np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2]
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = (rho[:, None] - gp) ** 2 + (z[:, None] - fp) ** 2
        (found,) = seen
        return found, d2, report

    @pytest.mark.parametrize("seed", range(8))
    def test_product_scan_picks_the_candidates_of_exact_d2(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        u = lambda lo, hi: repr(float(rng.uniform(lo, hi)))  # noqa: E731
        # a folded generator, so rows have several basins, and a helix-like
        # curve off the origin
        sigma = SurfaceOfRevolution.from_profiles(
            as_field(f"{u(1, 2)} + {u(0.2, 0.9)}*sin({u(1, 4)}*s + {u(-3, 3)})"),
            as_field(f"{u(-1, 1)}*s + {u(0.5, 2)}*cos({u(1, 3)}*s)"),
            (float(u(-4, -1)), float(u(1, 4))))
        r, w = u(0.5, 2.5), u(0.5, 2)
        h = reparam_horizontal(ParamCurve.from_fields(
            f"{r}*cos({w}*s)", f"{r}*sin({w}*s)", f"{u(-1, 1)}*s + {u(-2, 2)}", (0.0, 4.0)))
        (rows, cols), d2, _ = self.scan_candidates(monkeypatch, h, sigma)
        want_rows, want_cols = lowest_local_minima(d2, 4)
        # a row whose neighbouring grid values, or whose candidate values,
        # come within rounding of each other may order them either way
        level = 1e3 * np.finfo(float).eps * np.max(d2, axis=1)
        tied = np.any(np.abs(np.diff(d2, axis=1)) <= level[:, None], axis=1)
        every_rows, every_cols = lowest_local_minima(d2, d2.shape[1])
        close = np.diff(d2[every_rows, every_cols]) <= level[every_rows[1:]]
        tied[every_rows[1:][close & (np.diff(every_rows) == 0)]] = True
        compared = np.flatnonzero(~tied)
        assert compared.size >= 190
        for row in compared:
            np.testing.assert_array_equal(cols[rows == row], want_cols[want_rows == row])

    @pytest.mark.parametrize("node, value", [(300, np.inf), (300, np.nan), (0, np.inf)])
    def test_non_finite_node_gives_no_candidate(self, monkeypatch, node, value):
        # the cylinder g = 1 with g not finite at one scan node: that node is
        # no candidate, its neighbours are as in d^2 itself, and the centring
        # ignores it, so the lift of the circle stays a member
        lift, _ = self.cylinder_case()
        bad = np.linspace(-0.5, 6.5, 1025)[node]
        sigma = SurfaceOfRevolution(lambda s: np.where(s == bad, value, 1.0),
                                    as_field("-s"), -0.5, 6.5)
        (rows, cols), d2, report = self.scan_candidates(monkeypatch, lift, sigma)
        want_rows, want_cols = lowest_local_minima(d2, 4)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(cols, want_cols)
        assert node not in cols
        assert report.member and report.max_defect < 1e-13

    @pytest.mark.parametrize("g, f, lo, hi", [
        ("1 + exp(4*(s-20))", "-s", -2.0, 40.0),
        ("1 + 1e-9*exp(4*(s-20))", "-s", -2.0, 30.0),
        ("exp(s)", "s", -3.0, 100.0),
    ])
    def test_generator_far_past_the_curve_is_scanned_exactly(self, monkeypatch, g, f, lo, hi):
        # g reaches 2e8 to 3e43 far from the curve, so the product's rounding
        # swamps the grid's differences near it: those rows are scanned by
        # d^2 itself, every row keeps its grid minimum, and the lift of the
        # unit circle stays a member of the first two
        lift, _ = self.cylinder_case()
        sigma = SurfaceOfRevolution.from_profiles(as_field(g), as_field(f), (lo, hi))
        (rows, cols), d2, report = self.scan_candidates(monkeypatch, lift, sigma)
        np.testing.assert_array_equal(cols[np.searchsorted(rows, np.arange(200))],
                                      np.argmin(d2, axis=1))
        assert report.max_defect <= np.sqrt(np.max(np.min(d2, axis=1)))
        assert report.member == (f == "-s")
        if report.member:
            assert surface_membership(lift, sigma, tol=1e-12).member

    @pytest.mark.parametrize("half_width", [1e100, 1e150, 1e200])
    def test_huge_profile_range_writes_no_warning(self, half_width):
        # a parabola through nodes 1e97 apart has terms past the float range;
        # it makes no step, and a numpy warning would be a second stderr line
        lift = reparam_horizontal(
            ParamCurve.from_fields("cos(s)", "sin(s)", "-s", (0.0, 1.0))
        )
        cylinder = SurfaceOfRevolution.from_profiles(
            as_field("1"), as_field("-s"), (-half_width, half_width)
        )
        # (pytest's settings make any numpy warning an error)
        report = surface_membership(lift, cylinder, tol=1e-6)
        assert np.isfinite(report.max_defect)

    @pytest.mark.parametrize("delta", [0.0, 0.02])
    def test_repeated_runs_are_bit_identical(self, delta):
        lift, cylinder = self.cylinder_case(delta)
        sphere = pansu_sphere(1.3)
        for h, sigma in ((lift, cylinder), (sphere.geodesic, sphere.surface)):
            first = surface_membership(h, sigma, tol=1e-6)
            second = surface_membership(h, sigma, tol=1e-6)
            assert first.to_json() == second.to_json()


class TestFrameCoefficientsOnSurfaces:
    def test_cylinder_lift_coefficients_match_generator(self):
        # a curve on a surface of revolution has u1~^2 + u2~^2 = g^2 and
        # u3~ = f along the shared parameter
        lift = reparam_horizontal(
            ParamCurve.from_fields("cos(s)", "sin(s)", "-s", (0.0, 6.0))
        )
        s = np.linspace(0.1, 5.9, 40)
        u1, u2, u3 = lift.sample(s).coefficients()
        assert np.max(np.abs(u1**2 + u2**2 - 1.0)) < 1e-8  # g = 1
        assert np.max(np.abs(u3 - (-s))) < 1e-8  # f = -s

    def test_pansu_geodesic_coefficients_match_generator(self):
        sphere = pansu_sphere(1.0)
        geo = sphere.geodesic
        s = np.linspace(0.05, geo.s_max - 0.05, 50)
        u1, u2, u3 = geo.sample(s).coefficients()
        # generator parameter matched by the quarter-turn shift
        t = s - np.pi / 2
        g, f = sphere.surface.profile(t)
        assert np.max(np.abs(np.hypot(u1, u2) - g)) < 1e-8
        assert np.max(np.abs(u3 - f)) < 1e-8


class TestNecessaryConditions:
    def test_pansu_profile_analytic(self):
        lam = 1.0
        inv = InvariantPair(2 * lam, 0.0)
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
        inv = InvariantPair(SampledField.resample(grid, kappa1),
                            SampledField.resample(grid, np.zeros_like(grid)))
        _, res2 = check_necessary_conditions(sigma, inv, grid[5:-5])
        assert res2 > 0.1

    def test_random_data_fails_both(self, rng):
        sigma = SurfaceOfRevolution.from_profiles(
            as_field("2 + sin(s)"), as_field("s^2"), (0, 3)
        )
        inv = InvariantPair("1 + 0.5*cos(s)", "0.3*s")
        res1, res2 = check_necessary_conditions(sigma, inv, np.linspace(0.2, 2.8, 40))
        assert res1 > 0.1 and res2 > 0.1

    def test_zero_kappa_rejected(self):
        sigma = SurfaceOfRevolution.from_profiles(as_field("1"), as_field("s"), (0, 1))
        inv = InvariantPair(0.0, 0.0)
        with pytest.raises(ValueError):
            check_necessary_conditions(sigma, inv, np.linspace(0.1, 0.9, 10))

    def test_one_point_grid(self):
        # kappa counts as zero against the surface's range, not the grid's
        # span, so a single sample of kappa = 1 is checked, not refused
        sigma = SurfaceOfRevolution.from_profiles(as_field("1"), as_field("s"), (0, 1))
        inv = InvariantPair(1.0, 0.0)
        res1, res2 = check_necessary_conditions(sigma, inv, [0.5])
        assert res1 == pytest.approx(2.0) and res2 == pytest.approx(0.0)


def _dilated(text: str, lam: float) -> str:
    """text(s/lam), a field of s on the dilated interval."""
    return re.sub(r"\bs\b", f"(s/({lam!r}))", text)


class TestDilation:
    """Under the dilation s -> lam s, kappa -> kappa/lam, tau -> lam tau the
    branch of the closed forms and the refusal of the necessary conditions
    do not change: kappa counts as zero by |kappa| times the interval's
    length.  Each of the first four kappas below sat on the other side of
    the former absolute thresholds at one of the two dilations; "crossing"
    vanishes inside the interval and "start" at its left endpoint."""

    S = 10.0
    KAPPAS = {"zero": "0", "small": "5e-9", "tiny": "5e-10", "crossing": "s - 3",
              "start": "s", "general": "1 + 0.5*sin(s)"}

    @staticmethod
    def branch(kappa: str, tau: str, interval):
        try:
            return cesaro_closed_form(InvariantPair(kappa, tau),
                                      CesaroConstants(1.0, 0.0, 0.0, 1.0),
                                      interval=interval).branch
        except ValueError as exc:
            return str(exc).split(" near ")[0]

    @pytest.mark.parametrize("lam", [1e-4, 1e4])
    @pytest.mark.parametrize("name", list(KAPPAS))
    def test_closed_form_branch(self, name, lam):
        kappa, tau = self.KAPPAS[name], "0.3 + 0.1*s"
        base = self.branch(kappa, tau, (0.0, self.S))
        dilated = self.branch(f"({_dilated(kappa, lam)})/({lam!r})",
                              f"({lam!r})*({_dilated(tau, lam)})", (0.0, lam * self.S))
        assert dilated == base
        # the closed forms divide by kappa at the left endpoint only
        assert base == {"zero": "zero-kappa", "tiny": "zero-kappa", "crossing": "general",
                        "start": "kappa vanishes at s = 0.0 but is not identically zero; "
                                 "the closed forms' constants need 1/kappa there",
                        "small": "general", "general": "general"}[name]

    @staticmethod
    def conditions(kappa: str, tau: str, lam: float, S: float):
        """The residuals for a surface that does not contain the curve (so
        both are of order one over kappa), or the refusal; the grid has a
        node at s = 3 lam, where the crossing kappa vanishes."""
        g = f"({lam!r})*(1 + 0.1*{_dilated('s', lam)})"
        f = f"({lam!r})^2*0.5*{_dilated('s', lam)}^2"
        sigma = SurfaceOfRevolution.from_profiles(as_field(g), as_field(f), (0.0, lam * S))
        try:
            return check_necessary_conditions(sigma, InvariantPair(kappa, tau),
                                              np.linspace(0.0, lam * S, 51))
        except ValueError as exc:
            return str(exc)

    @pytest.mark.parametrize("lam", [1e-4, 1e4])
    @pytest.mark.parametrize("name", list(KAPPAS))
    def test_necessary_conditions(self, name, lam):
        kappa, tau = self.KAPPAS[name], "0.3 + 0.1*s"
        base = self.conditions(kappa, tau, 1.0, self.S)
        dilated = self.conditions(f"({_dilated(kappa, lam)})/({lam!r})",
                                  f"({lam!r})*({_dilated(tau, lam)})", lam, self.S)
        if isinstance(base, str):
            assert dilated == base
            assert name in ("zero", "tiny", "crossing", "start")
        else:
            # f' - tau - ((g^2)''/2 - 1)/kappa scales by lam; the second is invariant
            assert name in ("small", "general")
            assert dilated[0] == pytest.approx(lam * base[0], rel=1e-9)
            assert dilated[1] == pytest.approx(base[1], rel=1e-9)


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
        inv = InvariantPair(1.5, 0.25)
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

    # the least g^2 lies inside each range: at s = 2.91 (+ 4.83 k) for
    # kappa = 1.3 and at s = -0.92 (+ 8.98 k) for kappa = -0.7
    @pytest.mark.parametrize("kappa,interval", [
        (1.3, (0.0, 20.0)), (1.3, (1.0, 4.0)), (1.3, (2.8, 3.0)),
        (-0.7, (0.0, 20.0)), (-0.7, (-2.0, 1.0)), (-0.7, (-1.0, -0.8)),
    ], ids=[f"{part}-kappa{sign}" for sign in "+-"
            for part in ("periods", "within-a-period", "short")])
    def test_radicand_minimum_is_exact(self, kappa, interval):
        # g^2 = (trig + c3g)/kappa with trig = -c1 cos(kappa s) + c2 sin(kappa s);
        # its least value is at the least trig for kappa > 0 and at the
        # greatest for kappa < 0.  A dip 1e-12 deep is about 2e-6 wide, far
        # narrower than the generator's grid spacing; a dense scan refined
        # about its best node finds the extreme to about 1e-16.
        c1, c2 = -0.6, 0.45
        sign = np.sign(kappa)

        def extreme(s):
            trig = -c1 * np.cos(kappa * s) + c2 * np.sin(kappa * s)
            return trig[np.argmin(sign * trig)], s[np.argmin(sign * trig)]

        s = np.linspace(*interval, 200_001)
        _, at = extreme(s)
        value, _ = extreme(np.clip(np.linspace(at - 2e-4, at + 2e-4, 40_001), *interval))
        with pytest.raises(ValueError, match="negative radicand"):
            generate_surface_constant_kappa(kappa, 0.0, c1, c2, -value - sign * 1e-12, 0.0,
                                            interval)
        surf = generate_surface_constant_kappa(kappa, 0.0, c1, c2, -value + sign * 1e-12, 0.0,
                                               interval)
        assert np.min(surf.g2(s)) > 0.0


class TestGenerateConstantTau:
    def test_constant_kappa_reduces_to_part_one(self):
        kappa, A, B, g2c = 2.0, 0.5, -0.3, 1.6
        inv = InvariantPair(kappa, 0.0)
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

    def test_squared_radius_is_integrated_on_the_solution_grid(self):
        # g^2 = g2_const + (x^2 - Qx^2) + (y^2 - Qy^2) of the solution's
        # curve, whose leaves share one grid, bit for bit.  It is the
        # g2_const - 2 integral(u1) of the docstring, integrated on that
        # grid, up to the quadrature of both: at an odd node cumulative
        # Simpson errs by dx^4 f'''/24 of its integrand f, and for f = u1
        # against f = cos(phi), sin(phi) that puts the integral dx^4 kappa^2/12
        # above x^2 + y^2 there (4.7e-14 at kappa = 3), which is taken out
        inv, c = InvariantPair("2 + sin(s)", "0.3"), CesaroConstants(1, 0, 0, 1, 0.0, 0.0)
        surf = generate_surface_constant_tau(inv, c, interval=(0, 5), g2_const=1.0)
        sol = cesaro_closed_form(inv, c, interval=(0, 5))
        x, y = sol.curve.x, sol.curve.y
        x0, y0 = x(0.0), y(0.0)  # the curve starts at -Q
        s = np.linspace(0.0, 5.0, 7919)
        xs, ys = x(s), y(s)
        assert np.array_equal(surf.g2(s), 1.0 + (xs * xs - x0 * x0) + (ys * ys - y0 * y0))
        grid, dx = sol.grid, sol.grid[1] - sol.grid[0]
        integral = 1.0 - 2 * antiderivative(sol.u1, grid)(grid)
        odd_term = np.where(np.arange(grid.size) % 2 == 1, dx ** 4 * inv.kappa(grid) ** 2 / 12, 0.0)
        assert np.max(np.abs(surf.g2(grid) - (integral - odd_term))) <= 5e-14
        leaves = antiderivative_leaves(surf.g2)
        assert len(leaves) == 3  # phi, x, y
        assert len({id(leaf.nodes) for leaf in leaves}) == 1

    @pytest.mark.parametrize("constants,g2_const", [
        ((1, 0, 0, 1, 0.2, -0.3), 0.0),
        ((0.5, 0.2, -0.3, 1.1, 0.4, -0.6), 0.0),
        ((1, 0, 0, 1, -0.1, -1.1), 1e-300),
    ])
    def test_squared_radius_starts_at_its_constant(self, constants, g2_const):
        # g^2(lo) is g2_const exactly: with a zero g2_const the radius grows
        # from the axis, and no rounding of |Q|^2 may put it below
        inv = InvariantPair("2 + sin(s)", "0")
        c = CesaroConstants(*constants)
        surf = generate_surface_constant_tau(inv, c, interval=(0, 0.2), g2_const=g2_const)
        assert surf.g2(0.0) == g2_const

    def test_output_passes_necessary_conditions(self):
        inv = InvariantPair("2 + sin(s)", "0.3")
        surf = generate_surface_constant_tau(
            inv, CesaroConstants(1, 0, 0, 1, 0.0, 0.0), interval=(0, 5), g2_const=1.0
        )
        res1, res2 = check_necessary_conditions(surf, inv, np.linspace(0.1, 4.9, 80))
        assert res1 < 1e-6 and res2 < 1e-6

    @pytest.mark.parametrize("kappa,tau,constants", [
        ("1.5 + 0.3*sin(s)", "0.2", (1, 0, 0, 1, 0.4, -0.2)),
        ("-1 - 0.3*cos(s)", "-0.4", (0.5, 0.2, -0.3, 1.1, 0.4, -0.6)),
        # constant kappa and default constants: the heading's samples are
        # equal pieces, and tau - u2 is a tree over the curve's leaves
        ("3", "0", (1, 0, 0, 1, 0, 0)),
    ])
    def test_height_is_the_antiderivative_of_tau_minus_u2(self, kappa, tau, constants):
        # f is the height z of the solution's curve, -u3, bit for bit, on
        # and off the nodes; it is the f_const + integral(tau - u2) of the
        # docstring, up to the quadrature of that integral
        lo, hi, f_const = 0.5, 3.5, 0.7
        inv = InvariantPair(kappa, tau)
        c = CesaroConstants(*constants)
        surf = generate_surface_constant_tau(inv, c, interval=(lo, hi), g2_const=20.0,
                                             f_const=f_const)
        sol = cesaro_closed_form(inv, c, interval=(lo, hi), u3_const=-f_const)
        s = np.linspace(lo, hi, 7919)
        assert np.array_equal(surf.f(s), -sol.u3(s))
        explicit = antiderivative(inv.tau - sol.u2, sol.grid, const=f_const)
        assert np.max(np.abs(surf.f(s) - explicit(s))) <= 2e-15
        assert surf.f(lo) == f_const

    def test_negative_squared_radius_reports_crossing(self):
        inv = InvariantPair(2.0, 0.0)
        with pytest.raises(ValueError, match="negative"):
            generate_surface_constant_tau(
                inv, CesaroConstants(1, 0, 0, 1, 0.5, -0.3), interval=(0, 3),
                g2_const=0.9,
            )

    def test_nonconstant_tau_rejected(self):
        inv = InvariantPair("2", "sin(s)")
        with pytest.raises(ValueError, match="constant"):
            generate_surface_constant_tau(
                inv, CesaroConstants(1.0, 0.0, 0.0, 1.0), interval=(0, 3)
            )

    @pytest.mark.parametrize("tau", ["0.2", "cos(0.5)", "s - s"])
    def test_tau_whose_derivative_folds_to_zero_is_constant(self, tau):
        surf = generate_surface_constant_tau(InvariantPair("2 + sin(s)", tau),
                                             CesaroConstants(1.0, 0.0, 0.0, 1.0), (0, 3),
                                             g2_const=4.0)
        assert np.all(np.isfinite(surf.profile(np.linspace(0, 3, 31))))

    def test_small_varying_tau_is_not_constant(self):
        # the test is exact: no tolerance lets a small variation pass
        with pytest.raises(ValueError, match="tau must be constant"):
            generate_surface_constant_tau(InvariantPair("2", "1e-9*sin(s)"),
                                          CesaroConstants(1.0, 0.0, 0.0, 1.0), (0, 3),
                                          g2_const=4.0)

    @pytest.mark.parametrize("tau", [np.inf, np.nan])
    def test_tau_that_is_not_finite_is_refused(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            generate_surface_constant_tau(InvariantPair("2", tau),
                                          CesaroConstants(1.0, 0.0, 0.0, 1.0), (0, 3))


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

    def test_graph_bound_scales_with_the_sphere(self):
        # heights reach pi/(4 lam^2) = 7.9e7 at lam = 1e-4, where the graph
        # defect of 4.5e-8 is rounding: 5.7e-16 of them
        lam = 1e-4
        sphere = pansu_sphere(lam, step=0.1)
        assert sphere.certificate.graph_defect * lam * lam <= 1e-14

    def test_equator_node(self):
        # the grid has a node at s = S/2, where the graph's slope is
        # unbounded and the vertical defect |z| - h(rho) is 4e-8 here; the
        # distance to the graph stays at roundoff
        lam = 0.6011953709324269
        S = np.pi / lam
        assert S / 2 in numerics.step_grid(0.0, S, S / 400)
        sphere = pansu_sphere(lam, step=S / 400)
        assert sphere.certificate.graph_defect < 1e-14

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
        inv = InvariantPair(2 * lam, 0.0)
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
        smp = curve.sample(si)
        assert np.max(np.abs(smp.kappa - k)) < 1e-6
        assert np.max(np.abs(smp.tau)) < 1e-6
        rho = np.hypot(x, y)
        stretched_g = np.sqrt(np.asarray(g(s_grid)) ** 2 + c_stretch)
        assert np.max(np.abs(rho - stretched_g)) < 1e-6
        assert np.max(np.abs(z - np.asarray(f(s_grid)))) < 1e-6
