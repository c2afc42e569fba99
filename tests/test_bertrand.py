import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from h1curves import (
    H1Point,
    InvariantPair,
    ParamCurve,
    PshTransform,
    reconstruct_curve,
    reparam_horizontal,
)
from h1curves.bertrand import (
    BertrandSpec,
    bertrand_mate,
    mate_residuals,
)
from h1curves.expressions import ScalarFn
from h1curves.numerics import cumulative_simpson, fd4_first

from conftest import heading, mate_sample, random_invariant_exprs


# the pose that starts a curve at the origin with heading 0
IDENTITY = PshTransform(0.0, H1Point.origin())


def line(s_max=3.0):
    return reconstruct_curve(InvariantPair(0, 0), IDENTITY, s_max)


def unit_circle_curve(s_max=4.0):
    return reconstruct_curve(InvariantPair(1, 0), IDENTITY, s_max)


def mate_kappa(m):
    """The mate's kappa, the fd4 derivative of its heading."""
    return fd4_first(heading(mate_sample(m)), m.grid[1] - m.grid[0])


class TestMateConstruction:
    def test_mate_shares_the_arc_length_parameter(self):
        base = reconstruct_curve(
            InvariantPair("1 + 0.3*sin(s)", "0.4"), IDENTITY, 4.0
        )
        m = bertrand_mate(base, BertrandSpec(0.7, -0.4))
        assert m.grid[-1] == base.s_max
        # the mate's own arc length agrees with the shared parameter
        speed = np.hypot(*mate_sample(m).velocity[:, :2].T)
        measured = cumulative_simpson(speed, dx=m.grid[1] - m.grid[0])[-1]
        assert abs(measured - base.s_max) < 1e-9

    def test_line_vertical_lift(self):
        m = bertrand_mate(line(), BertrandSpec(0.0, 0.0, g="1"))
        assert m.branch == "zero-kappa"
        s = m.grid
        expected = np.stack([s, 0 * s, 0 * s + 1], axis=1)
        assert np.max(np.abs(m.points - expected)) < 1e-9
        assert np.max(np.abs(m.tau_bar)) < 1e-12

    def test_zero_branch_tau_bar_formula(self):
        # tau_bar = tau - c2 + g'
        m = bertrand_mate(line(), BertrandSpec(0.5, 1.0, g="0.5*s^2"))
        grid = m.grid
        expected = 0.0 - 1.0 + 1.0 * grid
        assert np.max(np.abs(m.tau_bar - expected)) < 1e-9
        # the mate points measurably carry it
        assert mate_residuals(m).tau_bar < 1e-7

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
        assert np.max(np.linalg.norm(m.points - base.point(m.grid), axis=1)) < 1e-9

    def test_kappa_vanishing_on_a_node_builds_a_measured_mate(self):
        # kappa = sin(s) is zero on the node s = 0: the fixed vector d needs
        # no heading and no nonzero kappa, so the mate meets criterion 09's
        # bounds as any other mate does
        h = reconstruct_curve(
            InvariantPair("sin(s)", "0"), IDENTITY, 3.0
        )
        m = bertrand_mate(h, BertrandSpec(1.0, 0.0))
        assert m.branch == "general"
        r = mate_residuals(m)
        assert r.align < 2e-12 and r.speed < 2e-11 and r.distance < 1e-8
        assert np.max(np.abs(mate_kappa(m) - h.sample(m.grid).kappa)) < 1e-7
        assert r.tau_bar < CLEAN_BOUND

    def test_mate_properties(self, rng):
        for _ in range(3):
            kt, tt = random_invariant_exprs(rng, kappa_nonzero=True)
            base = reconstruct_curve(
                InvariantPair(kt, tt), IDENTITY, 4.0
            )
            c1, c2 = rng.uniform(-2, 2, size=2)
            tb_text = f"{rng.uniform(-0.5, 0.5):.6f}*cos(s)"
            m = bertrand_mate(base, BertrandSpec(c1, c2, tau_bar=tb_text))
            # shared normal field, shared parameter, shared kappa, the tau_bar asked for
            r = mate_residuals(m)
            assert r.align < 1e-8
            assert r.speed < 1e-8
            assert np.max(np.abs(mate_kappa(m) - base.sample(m.grid).kappa)) < 1e-7
            assert np.array_equal(m.tau_bar, ScalarFn.parse(tb_text)(m.grid))
            assert r.tau_bar < 1e-7


class TestMateDistance:
    def test_three_four_five(self):
        base = unit_circle_curve()
        m = bertrand_mate(base, BertrandSpec(3.0, 4.0))
        planar = np.hypot(*(m.points - m.base)[:, :2].T)
        assert np.mean(planar) == pytest.approx(5.0, abs=1e-8)
        assert mate_residuals(m).distance < 1e-8

    def test_zero_offsets(self):
        base = unit_circle_curve()
        m = bertrand_mate(base, BertrandSpec(0.0, 0.0))
        assert np.max(m.dist) < 1e-9

    def test_zero_branch_vertical_offset_flagged(self):
        m = bertrand_mate(line(), BertrandSpec(1.0, 2.0, g="sin(s)"))
        # contact offset stays sqrt(1 + 4); the b-offset varies with g
        assert mate_residuals(m).distance < 1e-8
        b_offset = (m.points - m.base)[:, 2]
        assert np.max(b_offset) == pytest.approx(np.sin(np.pi / 2), abs=1e-6)
        assert np.min(b_offset) == pytest.approx(0.0, abs=1e-6)
        # full Euclidean distance is sqrt(c1^2 + c2^2 + g^2), not constant
        assert np.max(m.dist) == pytest.approx(np.sqrt(6.0), abs=1e-6)
        assert np.max(m.dist) - np.mean(m.dist) > 0.01

    def test_mate_carries_its_distance(self):
        m = bertrand_mate(unit_circle_curve(), BertrandSpec(0.3, -0.5, tau_bar="0.2 + s"))
        assert np.array_equal(m.dist, np.linalg.norm(m.points - m.base, axis=1))

    @pytest.mark.parametrize("c1,c2", [(0.0, 1e300), (-1e155, 0.0)])
    def test_overflowing_distance_is_refused_at_its_s(self, c1, c2):
        # finite mate points whose squared offset overflows
        with pytest.raises(ValueError, match=r"^mate distance overflows near s = "):
            bertrand_mate(unit_circle_curve(), BertrandSpec(c1, c2))


# every figure of ``mate_residuals`` of the wavy mate stays below this; at
# step 1e-3 the largest, tau_bar, measures 1.4e-12
CLEAN_BOUND = 1e-11


@pytest.fixture
def wavy_base():
    return reconstruct_curve(InvariantPair("1 + 0.4*sin(s)", "0.2*cos(s)"),
                             IDENTITY, 5.0)


@pytest.fixture
def wavy_mate(wavy_base):
    m = bertrand_mate(wavy_base, BertrandSpec(0.7, -0.4, tau_bar="0.3*cos(s)"))
    r = mate_residuals(m)
    assert max(r.speed, r.tau_bar, r.align, r.distance) < CLEAN_BOUND
    return m


class TestFrameRelation:
    def test_mate_is_normal_aligned(self):
        base = unit_circle_curve()
        m = bertrand_mate(base, BertrandSpec(0.7, -0.4))
        assert mate_residuals(m).align < 1e-8

    def test_identity_is_normal_aligned(self):
        m = bertrand_mate(unit_circle_curve(), BertrandSpec(0.0, 0.0))
        assert np.array_equal(m.points, m.base)
        assert mate_residuals(m).align == 0.0

    def test_rotated_copy_is_not(self, wavy_mate):
        # mate points rotated by pi/3 about the z-axis: every tangent turns
        # by pi/3, so |t_bar - t| = 2 sin(pi/6) = 1
        c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
        points = wavy_mate.points @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        r = mate_residuals(dataclasses.replace(wavy_mate, points=points))
        assert r.align == pytest.approx(1.0, abs=1e-9)


class TestMateGrid:
    """The mate is built on the step grid, from one sample of the base."""

    @pytest.fixture
    def ellipse(self):
        c = ParamCurve.from_fields(
            "1.5*cos(1.2*s) + 0.2", "0.8*sin(1.2*s) - 0.1", "0.3*s", (0.0, 4.0))
        return reparam_horizontal(c, step=1e-3)

    def test_planar_offset_is_one_vector(self, ellipse):
        # r_bar - r in the plane is d = c2 t(0) + c1 n(0) at every node, to
        # the rounding of one sum: one ulp of the largest coordinate
        m = bertrand_mate(ellipse, BertrandSpec(0.3, -0.5), step=0.1)
        d = (m.points - m.base)[:, :2]
        tx, ty, _ = ellipse.sample(0.0).velocity
        assert np.max(np.abs(d - d[0])) <= np.spacing(np.max(np.abs(m.points[:, :2])))
        assert np.allclose(d[0], [-0.5 * tx - 0.3 * ty, -0.5 * ty + 0.3 * tx],
                           rtol=0.0, atol=1e-15)

    def test_points_are_the_sampled_base_plus_offsets(self, ellipse):
        m = bertrand_mate(ellipse, BertrandSpec(0.3, -0.5), step=0.1)
        assert np.array_equal(m.base, ellipse.sample(m.grid).points)
        assert np.array_equal(m.points[:, 2], m.base[:, 2] + m.u3)
        assert m.grid[-1] == ellipse.s_max

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

    def test_tau_bar_residual_converges_at_fourth_order(self, ellipse):
        # z_bar' and the contact terms are fourth-order differences of the
        # grid arrays: halving the step divides the residual by about 16
        spec = BertrandSpec(0.3, -0.5)
        errors = [mate_residuals(bertrand_mate(ellipse, spec, step=ellipse.s_max / n)).tau_bar
                  for n in (256, 512, 1024, 2048)]
        assert min(a / b for a, b in zip(errors, errors[1:])) >= 12.0

    def test_grid_of_five_nodes_is_refused_by_fd4(self, ellipse):
        # step_grid's fewest nodes are one short of the fd4 stencil
        m = bertrand_mate(ellipse, BertrandSpec(0.3, -0.5), step=ellipse.s_max / 4)
        assert m.grid.size == 5
        with pytest.raises(ValueError, match="at least 6 samples"):
            mate_residuals(m)


class TestMateResidualsFail:
    """Each figure of ``mate_residuals`` rises above the bound a clean mate
    meets when the fact it measures is broken in the arrays."""

    def test_negated_z_bar(self, wavy_mate):
        points = wavy_mate.points * [1.0, 1.0, -1.0]
        r = mate_residuals(dataclasses.replace(wavy_mate, points=points))
        assert r.tau_bar > CLEAN_BOUND

    def test_c2_sign_flipped_in_the_planar_offset(self, wavy_base, wavy_mate):
        # the tangent offset u1 = c1 sin(theta) + c2 cos(theta) rebuilt with
        # -c2: the planar distance leaves sqrt(c1^2 + c2^2)
        smp = wavy_base.sample(wavy_mate.grid)
        theta = heading(smp) - heading(smp)[0]
        shift = -2.0 * wavy_mate.spec.c2 * np.cos(theta)
        points = wavy_mate.points + shift[:, None] * smp.velocity * [1.0, 1.0, 0.0]
        r = mate_residuals(dataclasses.replace(wavy_mate, points=points))
        assert r.distance > CLEAN_BOUND


# The impossible pairings t_b = g n_a and n_b = g b_a are asserted on
# measured frames by test_acceptance.py::test_criterion_09_bertrand_suite.


def test_demo_builds_no_sampled_field(monkeypatch, capsys, sampled_fields):
    # the demo measures the mates it built; no mate is resampled into a curve
    path = Path(__file__).resolve().parents[1] / "scripts" / "bertrand_family_demo.py"
    spec = importlib.util.spec_from_file_location("bertrand_family_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(sys, "argv", [path.name, "--count", "1", "--s-max", "2"])
    demo.main()
    assert "mate 0:" in capsys.readouterr().out
    assert sampled_fields == []
