import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from h1curves import H1Point, ParamCurve, PshTransform, left_translate, psh_transform_curve
from h1curves.curves import CurveSample

from conftest import frame

COORD = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)

point_st = st.builds(H1Point, COORD, COORD, COORD)


def coords(p):
    return np.array([p.x, p.y, p.z])


def frame_at(p, velocity):
    """The moving frame read off a sample at the point p with the given
    velocity (Euclidean components)."""
    smp = CurveSample(0.0, coords(p), np.asarray(velocity, dtype=float), 0.0, 0.0)
    return frame(smp)


def basis_components(v, p):
    """Components of the Euclidean vector v at p along the left-invariant
    basis e1 = (1, 0, y), e2 = (0, 1, -x), T = (0, 0, 1)."""
    return np.array([v[0], v[1], v[2] - v[0] * p.y + v[1] * p.x])


class TestLeftTranslate:
    def test_identity_element(self):
        q = H1Point(2.0, -3.0, 0.5)
        assert left_translate(H1Point.origin(), q) == q

    def test_displayed_formula(self):
        # p=(1,0,0), q=(0,1,0): (a+x, b+y, c+z+ya-xb) = (1, 1, -1)
        assert left_translate(H1Point(1, 0, 0), H1Point(0, 1, 0)) == H1Point(1, 1, -1)

    def test_inverse_reaches_origin(self):
        p = H1Point(0.7, -1.2, 3.4)
        assert left_translate(p, p.inverse()) == H1Point.origin()

    @given(point_st, point_st)
    def test_inverse_property(self, p, q):
        assert left_translate(H1Point.origin(), q) == q
        o = left_translate(p, p.inverse())
        assert abs(o.x) < 1e-9 and abs(o.y) < 1e-9 and abs(o.z) < 1e-9

    @given(point_st, point_st, point_st)
    def test_associativity(self, p, q, r):
        left = left_translate(p, left_translate(q, r))
        right = left_translate(left_translate(p, q), r)
        assert np.allclose(coords(left), coords(right), rtol=1e-12, atol=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            H1Point(np.nan, 0.0, 0.0)

    def test_rejects_boolean(self):
        # not read as the coordinates 1 and 0
        with pytest.raises(TypeError, match="boolean coordinate x=True"):
            H1Point.from_array([True, 0, 0])
        with pytest.raises(TypeError, match="boolean coordinate z=False"):
            H1Point(0.0, 1.0, False)


class TestStandardFrame:
    """The left-invariant frame (e1, e2, T) is the moving frame of a sample
    whose unit velocity is e1."""

    def test_at_origin(self):
        e1, e2, T = frame_at(H1Point.origin(), [1, 0, 0])
        assert np.array_equal(e1, [1, 0, 0])
        assert np.array_equal(e2, [0, 1, 0])
        assert np.array_equal(T, [0, 0, 1])

    def test_at_generic_point(self):
        e1, e2, T = frame_at(H1Point(2, 3, 7), [1, 0, 3])
        assert np.array_equal(e1, [1, 0, 3])
        assert np.array_equal(e2, [0, 1, -2])
        assert np.array_equal(T, [0, 0, 1])

    def test_basis_components_are_unit_vectors(self):
        p = H1Point(-4, 9, 1)
        e1, e2, T = frame_at(p, [1, 0, 9])
        assert np.array_equal(basis_components(e1, p), [1, 0, 0])
        assert np.array_equal(basis_components(e2, p), [0, 1, 0])
        assert np.array_equal(basis_components(T, p), [0, 0, 1])

    @given(point_st)
    def test_contact_plane_membership(self, p):
        e1, e2, _ = frame_at(p, [1, 0, p.y])
        assert basis_components(e1, p)[2] == 0.0
        assert basis_components(e2, p)[2] == 0.0


class TestJ:
    """J is read off the frame: n = J t, from the contact part of the
    velocity alone."""

    def test_j_e1_is_e2(self):
        _, n, _ = frame_at(H1Point.origin(), [1, 0, 0])
        assert np.array_equal(n, [0, 1, 0])

    def test_j_annihilates_T(self):
        p = H1Point(1, 2, 3)
        _, n, _ = frame_at(p, [0, 0, 1])
        assert np.array_equal(basis_components(n, p), [0, 0, 0])

    @given(COORD, COORD)
    def test_j_squared_is_minus_identity_on_contact(self, a1, a2):
        _, n, _ = frame_at(H1Point.origin(), [a1, a2, 0.0])
        _, w, _ = frame_at(H1Point.origin(), n)
        assert w[0] == -a1 and w[1] == -a2 and w[2] == 0.0

    @given(COORD, COORD, COORD)
    def test_j_kills_vertical_component(self, a1, a2, a3):
        _, n, _ = frame_at(H1Point.origin(), [a1, a2, a3])
        assert n[2] == 0.0


class TestPshTransform:
    def test_identity(self):
        p = H1Point(1.5, -0.5, 2.0)
        assert H1Point(*PshTransform(0.0, H1Point.origin()).apply(p.x, p.y, p.z)) == p

    def test_quarter_turn(self):
        g = PshTransform(np.pi / 2, H1Point.origin())
        assert np.allclose(g.apply(1.0, 0.0, 5.0), [0, 1, 5], atol=1e-15)

    def test_pure_shift_matches_left_translate(self):
        g = PshTransform(0.0, H1Point(1, 0, 0))
        assert H1Point(*g.apply(0.0, 1.0, 0.0)) == H1Point(1, 1, -1)

    @given(st.floats(-3.14, 3.14), point_st, point_st)
    @example(1.0, H1Point(50.0, 92.0, 0.0), H1Point(0.0, 16.0, 0.0))
    def test_inverse_round_trip(self, angle, shift, p):
        # g = L_shift R_angle, so g^-1 = R_-angle L_shift^-1
        g = PshTransform(angle, shift)
        moved = H1Point(*g.apply(p.x, p.y, p.z))
        q = left_translate(shift.inverse(), moved)
        back = PshTransform(-angle, H1Point.origin()).apply(q.x, q.y, q.z)
        # z passes through cross terms of size |shift| (|shift| + |p|) that
        # cancel on the way back, each rounded to eps of its size
        s, r = np.linalg.norm(coords(shift)), np.linalg.norm(coords(p))
        bound = 8.0 * np.finfo(float).eps * (1.0 + s) * (1.0 + s + r)
        assert np.allclose(back, coords(p), rtol=0.0, atol=bound)

    @given(st.floats(-3, 3), point_st, st.floats(-3, 3), point_st, point_st)
    def test_composition(self, a1, p1, a2, p2, q):
        # rotations are automorphisms: g2 g1 = (a1 + a2, g2(p1))
        g1, g2 = PshTransform(a1, p1), PshTransform(a2, p2)
        composed = PshTransform(a1 + a2, H1Point(*g2.apply(p1.x, p1.y, p1.z)))
        via_compose = composed.apply(q.x, q.y, q.z)
        via_apply = g2.apply(*g1.apply(q.x, q.y, q.z))
        assert np.allclose(via_compose, via_apply, rtol=1e-10, atol=1e-9)

    def test_apply_array_matches_apply(self, rng):
        # one map for numbers, the columns of an (m, 3) array and curve trees
        g = PshTransform(0.8, H1Point(0.3, -0.7, 1.1))
        c = ParamCurve.from_fields("cos(s) + 0.2*s", "sin(2*s)", "0.3*s^2", (0.0, 2.0))
        u = np.sort(rng.uniform(0.0, 2.0, size=10))
        pts = c.point(u)
        batch = np.stack(g.apply(*pts.T), axis=-1)
        single = np.array([g.apply(*(float(v) for v in p)) for p in pts])
        assert np.array_equal(batch, single)
        assert np.allclose(psh_transform_curve(g, c).point(u), batch, rtol=0.0, atol=1e-12)

    def test_point_json_round_trip(self):
        # an initial point arrives as a JSON list
        p = H1Point(1.25, -2.5, 0.125)
        assert H1Point.from_array(json.loads(json.dumps([p.x, p.y, p.z]))) == p
