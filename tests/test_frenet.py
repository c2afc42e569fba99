import tracemalloc

import numpy as np
import pytest

from h1curves import (
    AlignmentError,
    H1Point,
    InitialPose,
    InvariantPair,
    ParamCurve,
    find_psh_alignment,
    psh_transform_curve,
    reconstruct,
    reparam_horizontal,
)
from h1curves.numerics import MAX_PANELS

from conftest import RecordingField, random_invariant_exprs, random_psh_transform


class TestReconstruct:
    def test_zero_invariants_give_line(self):
        h = reconstruct(InvariantPair.from_constants(0, 0), InitialPose.origin(), 2.0)
        s = np.linspace(0, 2, 21)
        assert np.max(np.abs(h.point(s) - np.stack([s, 0 * s, 0 * s], axis=1))) < 1e-10

    def test_constant_tau_line_with_drift(self):
        c = 0.7
        h = reconstruct(
            InvariantPair.from_constants(0, c), InitialPose.origin(), 2.0
        )
        s = np.linspace(0, 2, 21)
        expected = np.stack([s, 0 * s, c * s], axis=1)
        assert np.max(np.abs(h.point(s) - expected)) < 1e-10

    def test_pansu_generator(self):
        # kappa = 2*lambda, tau = 0 from the origin with heading 0
        h = reconstruct(InvariantPair.from_constants(2, 0), InitialPose.origin(), np.pi)
        s = np.linspace(0, np.pi, 101)
        expected = np.stack(
            [np.sin(2 * s) / 2, (1 - np.cos(2 * s)) / 2, np.sin(2 * s) / 4 - s / 2],
            axis=1,
        )
        assert np.max(np.abs(h.point(s) - expected)) < 1e-6

    def test_invariant_round_trip(self, rng):
        for _ in range(3):
            kt, tt = random_invariant_exprs(rng)
            inv = InvariantPair.from_expressions(kt, tt)
            h = reconstruct(inv, InitialPose.origin(), 5.0, 1e-3)
            s = np.linspace(0.05, h.s_max - 0.05, 60)
            k, t = h.invariants(s)
            assert np.max(np.abs(k - inv.kappa(s))) < 1e-5
            assert np.max(np.abs(t - inv.tau(s))) < 1e-6

    def test_unit_contact_speed_exact(self):
        inv = InvariantPair.from_expressions("sin(3*s)", "cos(2*s)")
        h = reconstruct(inv, InitialPose.origin(), 4.0)
        assert h.contact_speed_check() < 1e-9

    def test_nonfinite_invariants_rejected(self):
        inv = InvariantPair.from_expressions("1/(s - 1)", "0")
        with pytest.raises((ValueError, ZeroDivisionError)):
            reconstruct(inv, InitialPose.origin(), 2.0)

    def test_frenet_relations_from_coordinates(self):
        # t' = kappa n, n' = -kappa t - b, b' = 0 for the Euclidean frame
        inv = InvariantPair.from_expressions("1 + 0.3*sin(s)", "0.4")
        h = reconstruct(inv, InitialPose.origin(), 3.0)
        s = np.linspace(0.2, 2.8, 15)
        eps = 1e-4
        _, tp, npl, _ = h.frame_arrays(s + eps)
        _, tm, nm, _ = h.frame_arrays(s - eps)
        _, t0, n0, b0 = h.frame_arrays(s)
        k = h.kappa(s)[:, None]
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
        h = reconstruct(InvariantPair.from_constants(kappa, tau), InitialPose.origin(), S, step)
        s = np.linspace(0.0, S, 1001)
        err = np.max(np.abs(h.point(s) - constant_invariant_curve(kappa, tau, s)))
        assert err <= bound

    def test_fourth_order_convergence(self):
        inv = InvariantPair.from_expressions("1 + 0.5*sin(2*s)", "0.3*cos(s)")
        S = 4.0
        ref = reconstruct(inv, InitialPose.origin(), S, 1e-3).point(S)
        coarse, fine = (
            np.max(np.abs(reconstruct(inv, InitialPose.origin(), S, step).point(S) - ref))
            for step in (0.04, 0.02)
        )
        assert coarse > 1e-10  # well above roundoff, so the ratio is meaningful
        assert coarse / fine >= 12.0

    def test_s_max_is_exact(self):
        for S, step in ((4.0, 1e-3), (np.pi, 0.01), (10.0, 0.003)):
            h = reconstruct(InvariantPair.from_constants(1.5, 0.2), InitialPose.origin(), S, step)
            assert h.s_max == S
            assert h.param.u_min == 0.0 and h.param.u_max == S

    def test_contact_speed_is_one(self):
        inv = InvariantPair.from_expressions("sin(3*s)", "cos(2*s)")
        h = reconstruct(inv, InitialPose(H1Point(0.3, -0.2, 1.0), 0.7), 4.0)
        assert h.contact_speed_check() <= 1e-12

    @pytest.mark.parametrize("s_max,step", [(1e9, 1e-3), ((MAX_PANELS + 1) * 1e-3, 1e-3)])
    def test_grid_budget_checked_before_any_allocation(self, s_max, step):
        field = RecordingField()
        inv = InvariantPair(field, field)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="panels requested"):
                reconstruct(inv, InitialPose.origin(), s_max, step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert field.calls == 0
        assert peak < 1_000_000  # one grid of the request would be 16 MB


class TestAlignment:
    def test_identity_for_same_curve(self):
        h = reconstruct(InvariantPair.from_constants(1, 0), InitialPose.origin(), 3.0)
        g = find_psh_alignment(h, h, tol=1e-8)
        assert abs(g.angle) < 1e-12
        assert np.allclose(g.shift.as_array(), 0, atol=1e-12)

    def test_recovers_random_transform(self, rng):
        x_expr = "s + 0.2*sin(s)"
        c = ParamCurve.from_expressions(x_expr, "0.5*cos(s)", "0.1*s^2", (0.0, 3.0))
        a = reparam_horizontal(c)
        for _ in range(4):
            g = random_psh_transform(rng)
            b = reparam_horizontal(psh_transform_curve(g, c))
            found = find_psh_alignment(a, b, tol=1e-8)
            moved = found.apply_array(a.point(np.linspace(0, a.s_max, 50)))
            target = b.point(np.linspace(0, b.s_max, 50))
            assert np.max(np.linalg.norm(moved - target, axis=1)) < 1e-8
            two_pi = 2 * np.pi
            assert abs((found.angle - g.angle + np.pi) % two_pi - np.pi) < 1e-9
            assert np.allclose(found.shift.as_array(), g.shift.as_array(), atol=1e-8)

    def test_different_invariants_detected(self):
        line = reconstruct(InvariantPair.from_constants(0, 0), InitialPose.origin(), 3.0)
        pansu = reconstruct(InvariantPair.from_constants(2, 0), InitialPose.origin(), 3.0)
        with pytest.raises(AlignmentError, match="invariants differ"):
            find_psh_alignment(line, pansu)

    def test_uniqueness_of_fundamental_theorem(self, rng):
        kt, tt = random_invariant_exprs(rng)
        inv = InvariantPair.from_expressions(kt, tt)
        a = reconstruct(inv, InitialPose.origin(), 4.0)
        pose = InitialPose(H1Point(0.5, -1.0, 2.0), 1.1)
        b = reconstruct(inv, pose, 4.0)
        g = find_psh_alignment(a, b, tol=1e-6)
        grid = np.linspace(0, 4.0, 80)
        sup = np.max(
            np.linalg.norm(g.apply_array(a.point(grid)) - b.point(grid), axis=1)
        )
        assert sup < 1e-6
