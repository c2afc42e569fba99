import numpy as np
import pytest

from h1curves import (
    InitialPose,
    InvariantPair,
    ParamCurve,
    PshTransform,
    H1Point,
    psh_transform_curve,
    reconstruct_curve,
    reparam_horizontal,
)
from h1curves.bertrand import (
    BertrandSpec,
    BranchError,
    FrameRelation,
    bertrand_mate,
    binormal_normal_residual,
    check_frame_relation,
    mate_curve,
    mate_distance,
    tangent_normal_residual,
)

from conftest import contact_speed_deviation, random_invariant_exprs


def line(s_max=3.0):
    return reconstruct_curve(InvariantPair(0, 0), InitialPose.origin(), s_max)


def unit_circle_curve(s_max=4.0):
    return reconstruct_curve(InvariantPair(1, 0), InitialPose.origin(), s_max)


class TestMateConstruction:
    def test_mate_shares_the_arc_length_parameter(self):
        base = reconstruct_curve(
            InvariantPair("1 + 0.3*sin(s)", "0.4"), InitialPose.origin(), 4.0
        )
        mate = mate_curve(bertrand_mate(base, BertrandSpec(0.7, -0.4)))
        assert mate.s_max == base.s_max
        assert contact_speed_deviation(mate) <= 1e-12
        # the mate's own arc length agrees with the shared parameter
        measured = reparam_horizontal(mate.param, step=1e-3).s_max
        assert abs(measured - base.s_max) < 1e-9

    def test_line_vertical_lift(self):
        m = bertrand_mate(line(), BertrandSpec(0.0, 0.0, g="1"))
        assert m.branch == "zero-kappa"
        s = np.linspace(0, 3, 13)
        expected = np.stack([s, 0 * s, 0 * s + 1], axis=1)
        assert np.max(np.abs(mate_curve(m).point(s) - expected)) < 1e-9
        assert np.max(np.abs(m.tau_bar)) < 1e-12

    def test_zero_branch_tau_bar_formula(self):
        # tau_bar = tau - c2 + g'
        m = bertrand_mate(line(), BertrandSpec(0.5, 1.0, g="0.5*s^2"))
        grid = m.grid
        expected = 0.0 - 1.0 + 1.0 * grid
        assert np.max(np.abs(m.tau_bar - expected)) < 1e-9
        inner = np.linspace(0.2, 2.8, 25)
        tb = mate_curve(m).sample(inner).tau
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
        assert np.max(np.linalg.norm(mate_curve(m).point(s) - base.point(s), axis=1)) < 1e-9

    def test_branch_mixing_refused(self):
        h = reconstruct_curve(
            InvariantPair("sin(s)", "0"), InitialPose.origin(), 3.0
        )
        with pytest.raises(BranchError):
            bertrand_mate(h, BertrandSpec(1.0, 0.0))

    def test_mate_properties(self, rng):
        for _ in range(3):
            kt, tt = random_invariant_exprs(rng, kappa_nonzero=True)
            base = reconstruct_curve(
                InvariantPair(kt, tt), InitialPose.origin(), 4.0
            )
            c1, c2 = rng.uniform(-2, 2, size=2)
            tb_text = f"{rng.uniform(-0.5, 0.5):.6f}*cos(s)"
            mate = mate_curve(bertrand_mate(base, BertrandSpec(c1, c2, tau_bar=tb_text)))
            # shared normal field, shared parameter, shared kappa
            assert check_frame_relation(base, mate, 1e-8) is FrameRelation.NORMAL_ALIGNED
            assert mate.s_max == pytest.approx(base.s_max, abs=1e-8)
            inner = np.linspace(0.1, base.s_max - 0.1, 40)
            sm = mate.sample(inner)
            km, tm = sm.kappa, sm.tau
            kb = base.sample(inner).kappa
            assert np.max(np.abs(km - kb)) < 1e-7
            from h1curves.expressions import ScalarFn

            assert np.max(np.abs(tm - ScalarFn.parse(tb_text)(inner))) < 1e-7


class TestMateDistance:
    def test_three_four_five(self):
        base = unit_circle_curve()
        m = bertrand_mate(base, BertrandSpec(3.0, 4.0))
        d = mate_distance(m)
        assert d.contact_mean == pytest.approx(5.0, abs=1e-8)
        assert d.contact_deviation < 1e-8

    def test_zero_offsets(self):
        base = unit_circle_curve()
        d = mate_distance(bertrand_mate(base, BertrandSpec(0.0, 0.0)))
        assert d.contact_mean < 1e-9
        assert d.euclidean_max < 1e-9

    def test_zero_branch_vertical_offset_flagged(self):
        m = bertrand_mate(line(), BertrandSpec(1.0, 2.0, g="sin(s)"))
        d = mate_distance(m)
        # contact offset stays sqrt(1 + 4); the b-offset varies with g
        assert d.contact_deviation < 1e-8
        assert d.b_offset_max == pytest.approx(np.sin(np.pi / 2), abs=1e-6)
        assert d.b_offset_min == pytest.approx(0.0, abs=1e-6)
        # full Euclidean distance is sqrt(c1^2 + c2^2 + g^2), not constant
        assert d.euclidean_max == pytest.approx(np.sqrt(6.0), abs=1e-6)
        assert d.euclidean_max - d.euclidean_mean > 0.01


    def test_mate_carries_its_distance(self):
        m = bertrand_mate(unit_circle_curve(), BertrandSpec(0.3, -0.5, tau_bar="0.2 + s"))
        assert np.array_equal(m.dist, np.linalg.norm(m.points - m.base, axis=1))
        d = mate_distance(m)
        assert d.euclidean_max == np.max(m.dist) and d.euclidean_mean == np.mean(m.dist)

    @pytest.mark.parametrize("c1,c2", [(0.0, 1e300), (-1e155, 0.0)])
    def test_overflowing_distance_is_refused_at_its_s(self, c1, c2):
        # finite mate points whose squared offset overflows
        with pytest.raises(ValueError, match=r"^mate distance overflows near s = "):
            bertrand_mate(unit_circle_curve(), BertrandSpec(c1, c2))


class TestFrameRelation:
    def test_mate_is_normal_aligned(self):
        base = unit_circle_curve()
        m = bertrand_mate(base, BertrandSpec(0.7, -0.4))
        assert check_frame_relation(base, mate_curve(m), 1e-8) is FrameRelation.NORMAL_ALIGNED

    def test_identity_is_normal_aligned(self):
        base = unit_circle_curve()
        assert check_frame_relation(base, base, 1e-10) is FrameRelation.NORMAL_ALIGNED

    def test_rotated_copy_is_not(self):
        base = unit_circle_curve()
        g = PshTransform(np.pi / 3, H1Point.origin())
        rotated = reparam_horizontal(psh_transform_curve(g, base.param))
        assert check_frame_relation(base, rotated, 1e-6) is FrameRelation.NONE


class TestMateGrid:
    """The mate is built on the step grid, from one sample of the base."""

    @pytest.fixture
    def ellipse(self):
        c = ParamCurve.from_fields(
            "1.5*cos(1.2*s) + 0.2", "0.8*sin(1.2*s) - 0.1", "0.3*s", (0.0, 4.0))
        return reparam_horizontal(c, step=1e-3)

    def test_points_are_the_sampled_base_plus_offsets(self, ellipse):
        m = bertrand_mate(ellipse, BertrandSpec(0.3, -0.5), step=0.1)
        assert np.array_equal(m.base, ellipse.sample(m.grid).points)
        assert np.array_equal(m.points[:, 2], m.base[:, 2] + m.u3)
        assert mate_curve(m).s_max == ellipse.s_max

    def test_z_bar_converges_at_fourth_order(self, ellipse):
        # u3 is a cumulative Simpson integral on the grid: halving the step
        # divides its error by about 16; the reference has 8 times the nodes
        spec = BertrandSpec(0.3, -0.5)
        ref = bertrand_mate(ellipse, spec, step=ellipse.s_max / 4096)
        errors = []
        for n in (64, 128, 256, 512):
            m = bertrand_mate(ellipse, spec, step=ellipse.s_max / n)
            assert m.grid.size == n + 1
            errors.append(np.max(np.abs(m.points[:, 2] - ref.points[::4096 // n, 2])))
        assert min(a / b for a, b in zip(errors, errors[1:])) >= 12.0


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
        assert binormal_normal_residual(base, mate_curve(m)) == pytest.approx(1.0, abs=1e-12)

    def test_vertical_frame_component_vanishes_exactly(self):
        # b is vertical and n is contact: their pairing is identically zero,
        # so n_bar = g b has no unit-field solution
        base = unit_circle_curve()
        m = bertrand_mate(base, BertrandSpec(0.3, 0.9))
        s = np.linspace(0, base.s_max, 50)
        v = mate_curve(m).sample(s).velocity
        n_basis_vertical = np.zeros_like(v[:, 0])  # (-y', x', 0) has a3 = 0
        assert np.array_equal(n_basis_vertical, 0.0 * v[:, 0])
