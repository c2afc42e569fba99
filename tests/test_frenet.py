import tracemalloc

import numpy as np
import pytest

from h1curves import (
    AlignmentError,
    H1Point,
    HorizontalCurve,
    InvariantPair,
    ParamCurve,
    PshTransform,
    find_psh_alignment,
    psh_transform_curve,
    reconstruct,
    reconstruct_curve,
    reparam_horizontal,
)
from h1curves.numerics import MAX_PANELS, step_grid

from conftest import (RecordingField, contact_speed_deviation, frame, random_invariant_exprs,
                      random_psh_transform)


# the pose that starts a curve at the origin with heading 0
IDENTITY = PshTransform(0.0, H1Point.origin())


class TestReconstruct:
    def test_zero_invariants_give_line(self):
        h = reconstruct_curve(InvariantPair(0, 0), IDENTITY, 2.0)
        s = np.linspace(0, 2, 21)
        assert np.max(np.abs(h.point(s) - np.stack([s, 0 * s, 0 * s], axis=1))) < 1e-10

    def test_constant_tau_line_with_drift(self):
        c = 0.7
        h = reconstruct_curve(
            InvariantPair(0, c), IDENTITY, 2.0
        )
        s = np.linspace(0, 2, 21)
        expected = np.stack([s, 0 * s, c * s], axis=1)
        assert np.max(np.abs(h.point(s) - expected)) < 1e-10

    def test_pansu_generator(self):
        # kappa = 2*lambda, tau = 0 from the origin with heading 0
        h = reconstruct_curve(InvariantPair(2, 0), IDENTITY, np.pi)
        s = np.linspace(0, np.pi, 101)
        expected = np.stack(
            [np.sin(2 * s) / 2, (1 - np.cos(2 * s)) / 2, np.sin(2 * s) / 4 - s / 2],
            axis=1,
        )
        assert np.max(np.abs(h.point(s) - expected)) < 1e-6

    def test_invariant_round_trip(self, rng):
        for _ in range(3):
            kt, tt = random_invariant_exprs(rng)
            inv = InvariantPair(kt, tt)
            h = reconstruct_curve(inv, IDENTITY, 5.0, 1e-3)
            s = np.linspace(0.05, h.s_max - 0.05, 60)
            smp = h.sample(s)
            assert np.max(np.abs(smp.kappa - inv.kappa(s))) < 1e-5
            assert np.max(np.abs(smp.tau - inv.tau(s))) < 1e-6

    def test_unit_contact_speed_exact(self):
        inv = InvariantPair("sin(3*s)", "cos(2*s)")
        h = reconstruct_curve(inv, IDENTITY, 4.0)
        assert contact_speed_deviation(h) < 2e-11  # M = 3.6, D5 = 38: 2.5e-12 + 9.7e-12

    def test_nonfinite_invariants_rejected(self):
        inv = InvariantPair("1/(s - 1)", "0")
        with pytest.raises((ValueError, ZeroDivisionError)):
            reconstruct_curve(inv, IDENTITY, 2.0)

    def test_frenet_relations_from_coordinates(self):
        # t' = kappa n, n' = -kappa t - b, b' = 0 for the Euclidean frame
        inv = InvariantPair("1 + 0.3*sin(s)", "0.4")
        h = reconstruct_curve(inv, IDENTITY, 3.0)
        s = np.linspace(0.2, 2.8, 15)
        eps = 1e-4
        tp, npl, _ = frame(h.sample(s + eps))
        tm, nm, _ = frame(h.sample(s - eps))
        smp = h.sample(s)
        t0, n0, b0 = frame(smp)
        k = smp.kappa[:, None]
        dt = (tp - tm) / (2 * eps)
        dn = (npl - nm) / (2 * eps)
        assert np.max(np.abs(dt - k * n0)) < 1e-5
        assert np.max(np.abs(dn + k * t0 + b0)) < 1e-5


def constant_invariant_curve(kappa, tau, s):
    """Closed form of the curve with constant (kappa, tau), from the origin
    with heading 0."""
    return np.stack([
        np.sin(kappa * s) / kappa,
        (1 - np.cos(kappa * s)) / kappa,
        tau * s + np.sin(kappa * s) / kappa**2 - s / kappa,
    ], axis=1)


class TestQuadratureCascade:
    # at step 1e-3 the truncation error is below 1e-15 and what remains is
    # the roundoff of summing 2e4 terms, about n*eps*max|r| (a few 1e-12 here)
    @pytest.mark.parametrize("kappa,tau", [(2.0, 0.5), (-1.3, -0.7), (2.5, 1.0)])
    @pytest.mark.parametrize("step,bound", [(1e-2, 1e-8), (1e-3, 1e-11)])
    def test_constant_invariants_match_closed_form(self, kappa, tau, step, bound):
        S = 10.0
        h = reconstruct_curve(InvariantPair(kappa, tau), IDENTITY,
                              S, step)
        s = np.linspace(0.0, S, 1001)
        err = np.max(np.abs(h.point(s) - constant_invariant_curve(kappa, tau, s)))
        assert err <= bound

    def test_fourth_order_convergence(self):
        inv = InvariantPair("1 + 0.5*sin(2*s)", "0.3*cos(s)")
        S = 4.0
        ref = reconstruct_curve(inv, IDENTITY, S, 1e-3).point(S)
        coarse, fine = (
            np.max(np.abs(reconstruct_curve(inv, IDENTITY, S, step).point(S) - ref))
            for step in (0.04, 0.02)
        )
        assert coarse > 1e-10  # well above roundoff, so the ratio is meaningful
        assert coarse / fine >= 12.0

    def test_s_max_is_exact(self):
        for S, step in ((4.0, 1e-3), (np.pi, 0.01), (10.0, 0.003)):
            h = reconstruct_curve(InvariantPair(1.5, 0.2), IDENTITY,
                                  S, step)
            assert h.s_max == S
            assert h.param.u_min == 0.0 and h.param.u_max == S

    @pytest.mark.parametrize("S,step", [(4.0, 0.002), (np.pi, 0.01), (1e-5, 3e-7), (7.3, 1.9)])
    def test_samples_are_on_the_step_grid(self, S, step):
        rows = reconstruct(InvariantPair(1.5, 0.2), IDENTITY, S, step)
        assert rows.shape[1] == 4
        assert np.array_equal(rows[:, 0], step_grid(0.0, S, step))

    @pytest.mark.parametrize("angle,shift", [(2.3, (1.5, -0.8, 0.6)), (-1.0, (1e3, -2e3, 5e2))])
    def test_pose_is_the_transformation_of_the_origin_curve(self, angle, shift):
        # the cascade integrates from the pose's point and heading, and
        # psh_transform_curve moves the trees of the curve from the origin;
        # Simpson's sums are linear, so the two differ by rounding alone
        inv = InvariantPair("1 + 0.3*sin(2*s)", "0.4 - 0.2*cos(s)")
        S, g = 4.0, PshTransform(angle, H1Point(*shift))
        posed = reconstruct_curve(inv, g, S)
        moved = HorizontalCurve.arc_length(
            psh_transform_curve(g, reconstruct_curve(inv, IDENTITY, S).param))
        s = np.linspace(0.0, S, 401)
        a, b = posed.sample(s), moved.sample(s)
        # x and y are sums of size |p| + S; z adds p.y x - p.x y, up to |p| S
        # (seen: 1.5 and 8.9 eps (|p| + S)(1 + S))
        bound = 32 * np.finfo(float).eps * (np.linalg.norm(shift) + S) * (1 + S)
        assert np.max(np.abs(a.points - b.points)) < bound
        assert np.max(np.abs(a.kappa - b.kappa)) < bound
        assert np.max(np.abs(a.tau - b.tau)) < bound

    def test_contact_speed_is_one(self):
        inv = InvariantPair("sin(3*s)", "cos(2*s)")
        h = reconstruct_curve(inv, PshTransform(0.7, H1Point(0.3, -0.2, 1.0)), 4.0)
        assert contact_speed_deviation(h) < 2e-11  # M = 3.2, D5 = 38: 2.5e-12 + 8.4e-12

    @pytest.mark.parametrize("s_max,step", [(1e9, 1e-3), ((MAX_PANELS + 1) * 1e-3, 1e-3)])
    def test_grid_budget_checked_before_any_allocation(self, s_max, step):
        field = RecordingField()
        inv = InvariantPair(field, field)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="panels requested"):
                reconstruct_curve(inv, IDENTITY, s_max, step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert field.calls == 0
        assert peak < 1_000_000  # one grid of the request would be 16 MB


class TestAlignment:
    def test_identity_for_same_curve(self):
        h = reconstruct_curve(InvariantPair(1, 0), IDENTITY, 3.0)
        g = find_psh_alignment(h, h, tol=1e-8)
        assert abs(g.angle) < 1e-12
        assert np.allclose([g.shift.x, g.shift.y, g.shift.z], 0, atol=1e-12)

    def test_recovers_random_transform(self, rng):
        x_expr = "s + 0.2*sin(s)"
        c = ParamCurve.from_fields(x_expr, "0.5*cos(s)", "0.1*s^2", (0.0, 3.0))
        a = reparam_horizontal(c)
        for _ in range(4):
            g = random_psh_transform(rng)
            b = reparam_horizontal(psh_transform_curve(g, c))
            found = find_psh_alignment(a, b, tol=1e-8)
            moved = np.stack(found.apply(*a.point(np.linspace(0, a.s_max, 50)).T), axis=-1)
            target = b.point(np.linspace(0, b.s_max, 50))
            assert np.max(np.linalg.norm(moved - target, axis=1)) < 1e-8
            two_pi = 2 * np.pi
            assert abs((found.angle - g.angle + np.pi) % two_pi - np.pi) < 1e-9
            assert np.allclose([found.shift.x, found.shift.y, found.shift.z],
                               [g.shift.x, g.shift.y, g.shift.z], atol=1e-8)

    def test_different_invariants_detected(self):
        line = reconstruct_curve(InvariantPair(0, 0), IDENTITY, 3.0)
        pansu = reconstruct_curve(InvariantPair(2, 0), IDENTITY, 3.0)
        with pytest.raises(AlignmentError, match="invariants differ"):
            find_psh_alignment(line, pansu)

    def test_uniqueness_of_fundamental_theorem(self, rng):
        kt, tt = random_invariant_exprs(rng)
        inv = InvariantPair(kt, tt)
        a = reconstruct_curve(inv, IDENTITY, 4.0)
        pose = PshTransform(1.1, H1Point(0.5, -1.0, 2.0))
        b = reconstruct_curve(inv, pose, 4.0)
        g = find_psh_alignment(a, b, tol=1e-6)
        grid = np.linspace(0, 4.0, 80)
        moved = np.stack(g.apply(*a.point(grid).T), axis=-1)
        sup = np.max(np.linalg.norm(moved - b.point(grid), axis=1))
        assert sup < 1e-6
        # the transformation that aligns the curves is the pose itself
        assert abs((g.angle - pose.angle + np.pi) % (2 * np.pi) - np.pi) < 1e-9
        assert np.allclose([g.shift.x, g.shift.y, g.shift.z], [0.5, -1.0, 2.0], rtol=0, atol=1e-8)
