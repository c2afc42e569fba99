import numpy as np
import pytest

from h1curves import (
    InitialPose,
    InvariantPair,
    PshTransform,
    H1Point,
    psh_transform_curve,
    reconstruct,
    reparam_horizontal,
)
from h1curves.bertrand import (
    BertrandSpec,
    BranchError,
    FrameRelation,
    bertrand_mate,
    binormal_normal_residual,
    check_frame_relation,
    mate_distance,
    tangent_normal_residual,
)

from conftest import random_invariant_exprs


def line(s_max=3.0):
    return reconstruct(InvariantPair.from_constants(0, 0), InitialPose.origin(), s_max)


def unit_circle_curve(s_max=4.0):
    return reconstruct(InvariantPair.from_constants(1, 0), InitialPose.origin(), s_max)


class TestMateConstruction:
    def test_mate_shares_the_arc_length_parameter(self):
        base = reconstruct(
            InvariantPair.from_expressions("1 + 0.3*sin(s)", "0.4"), InitialPose.origin(), 4.0
        )
        m = bertrand_mate(base, BertrandSpec(0.7, -0.4))
        assert m.curve.s_max == base.s_max
        assert m.curve.contact_speed_check() <= 1e-12
        # the mate's own arc length agrees with the shared parameter
        measured = reparam_horizontal(m.curve.param, step=1e-3).s_max
        assert abs(measured - base.s_max) < 1e-9

    def test_line_vertical_lift(self):
        m = bertrand_mate(line(), BertrandSpec(0.0, 0.0, g="1"))
        assert m.branch == "zero-kappa"
        s = np.linspace(0, 3, 13)
        assert np.max(np.abs(m.curve.point(s) - np.stack([s, 0 * s, 0 * s + 1], axis=1))) < 1e-9
        assert np.max(np.abs(m.tau_bar)) < 1e-12

    def test_zero_branch_tau_bar_formula(self):
        # tau_bar = tau - c2 + g'
        m = bertrand_mate(line(), BertrandSpec(0.5, 1.0, g="0.5*s^2"))
        grid = m.grid
        expected = 0.0 - 1.0 + 1.0 * grid
        assert np.max(np.abs(m.tau_bar - expected)) < 1e-9
        inner = np.linspace(0.2, 2.8, 25)
        _, tb = m.curve.invariants(inner)
        assert np.max(np.abs(tb - (inner - 1.0))) < 1e-7

    def test_zero_branch_requires_g(self):
        with pytest.raises(ValueError, match="vertical offset"):
            bertrand_mate(line(), BertrandSpec(1.0, 0.0))

    def test_general_branch_displayed_coefficients(self):
        base = unit_circle_curve()
        m = bertrand_mate(base, BertrandSpec(0.0, 1.0, tau_bar="sin(s)"))
        assert m.branch == "general"
        assert np.max(np.abs(m.u1 - np.cos(m.grid))) < 1e-9
        assert np.max(np.abs(m.u2 + np.sin(m.grid))) < 1e-9
        assert np.max(np.abs(m.u3)) < 1e-9

    def test_self_mate(self):
        base = unit_circle_curve()
        m = bertrand_mate(base, BertrandSpec(0.0, 0.0))
        s = np.linspace(0, base.s_max, 33)
        assert np.max(np.linalg.norm(m.curve.point(s) - base.point(s), axis=1)) < 1e-9

    def test_branch_mixing_refused(self):
        h = reconstruct(
            InvariantPair.from_expressions("sin(s)", "0"), InitialPose.origin(), 3.0
        )
        with pytest.raises(BranchError):
            bertrand_mate(h, BertrandSpec(1.0, 0.0))

    def test_mate_properties(self, rng):
        for _ in range(3):
            kt, tt = random_invariant_exprs(rng, kappa_nonzero=True)
            base = reconstruct(
                InvariantPair.from_expressions(kt, tt), InitialPose.origin(), 4.0
            )
            c1, c2 = rng.uniform(-2, 2, size=2)
            tb_text = f"{rng.uniform(-0.5, 0.5):.6f}*cos(s)"
            m = bertrand_mate(base, BertrandSpec(c1, c2, tau_bar=tb_text))
            # shared normal field, shared parameter, shared kappa
            assert check_frame_relation(base, m.curve, 1e-8) is FrameRelation.NORMAL_ALIGNED
            assert m.curve.s_max == pytest.approx(base.s_max, abs=1e-8)
            inner = np.linspace(0.1, base.s_max - 0.1, 40)
            km, tm = m.curve.invariants(inner)
            kb, _ = base.invariants(inner)
            assert np.max(np.abs(km - kb)) < 1e-7
            from h1curves.expressions import ScalarFn

            assert np.max(np.abs(tm - ScalarFn.parse(tb_text)(inner))) < 1e-7


class TestMateDistance:
    def test_three_four_five(self):
        base = unit_circle_curve()
        m = bertrand_mate(base, BertrandSpec(3.0, 4.0))
        d = mate_distance(base, m)
        assert d.contact_mean == pytest.approx(5.0, abs=1e-8)
        assert d.contact_deviation < 1e-8

    def test_zero_offsets(self):
        base = unit_circle_curve()
        d = mate_distance(base, bertrand_mate(base, BertrandSpec(0.0, 0.0)))
        assert d.contact_mean < 1e-9
        assert d.euclidean_max < 1e-9

    def test_zero_branch_vertical_offset_flagged(self):
        m = bertrand_mate(line(), BertrandSpec(1.0, 2.0, g="sin(s)"))
        d = mate_distance(line(), m)
        # contact offset stays sqrt(1 + 4); the b-offset varies with g
        assert d.contact_deviation < 1e-8
        assert d.b_offset_max == pytest.approx(np.sin(np.pi / 2), abs=1e-6)
        assert d.b_offset_min == pytest.approx(0.0, abs=1e-6)
        # full Euclidean distance is sqrt(c1^2 + c2^2 + g^2), not constant
        assert d.euclidean_max == pytest.approx(np.sqrt(6.0), abs=1e-6)
        assert d.euclidean_max - d.euclidean_mean > 0.01


class TestFrameRelation:
    def test_mate_is_normal_aligned(self):
        base = unit_circle_curve()
        m = bertrand_mate(base, BertrandSpec(0.7, -0.4))
        assert check_frame_relation(base, m.curve, 1e-8) is FrameRelation.NORMAL_ALIGNED

    def test_identity_is_normal_aligned(self):
        base = unit_circle_curve()
        assert check_frame_relation(base, base, 1e-10) is FrameRelation.NORMAL_ALIGNED

    def test_rotated_copy_is_not(self):
        base = unit_circle_curve()
        g = PshTransform(np.pi / 3, H1Point.origin())
        rotated = reparam_horizontal(psh_transform_curve(g, base.param))
        assert check_frame_relation(base, rotated, 1e-6) is FrameRelation.NONE


class TestImpossiblePairings:
    def test_tangent_normal_residual_lower_bound(self, rng):
        # the pairing t_b = g n_a is unsatisfiable: residual >= 1/sqrt(2)
        base = unit_circle_curve()
        curves = [base.param]
        for _ in range(5):
            angle = rng.uniform(0, 2 * np.pi)
            shift = H1Point(*rng.uniform(-1, 1, size=3))
            curves.append(psh_transform_curve(PshTransform(angle, shift), base.param))
        for c in curves:
            other = reparam_horizontal(c)
            assert tangent_normal_residual(base, other) > 0.1
            assert tangent_normal_residual(base, other) >= 1 / np.sqrt(2) - 1e-9

    def test_binormal_normal_residual_is_one(self):
        base = unit_circle_curve()
        m = bertrand_mate(base, BertrandSpec(1.0, 0.5))
        assert binormal_normal_residual(base, m.curve) == pytest.approx(1.0, abs=1e-12)

    def test_vertical_frame_component_vanishes_exactly(self):
        # b is vertical and n is contact: their pairing is identically zero,
        # so n_bar = g b has no unit-field solution
        base = unit_circle_curve()
        m = bertrand_mate(base, BertrandSpec(0.3, 0.9))
        s = np.linspace(0, base.s_max, 50)
        v = m.curve.velocity(s)
        n_basis_vertical = np.zeros_like(v[:, 0])  # (-y', x', 0) has a3 = 0
        assert np.array_equal(n_basis_vertical, 0.0 * v[:, 0])
