import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from h1curves import (
    H1Point,
    PshTransform,
    TangentVector,
    apply_J,
    group_inverse,
    left_translate,
    psh_apply,
    standard_frame,
)

COORD = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def points(draw_x, draw_y, draw_z):
    return H1Point(draw_x, draw_y, draw_z)


point_st = st.builds(H1Point, COORD, COORD, COORD)


class TestLeftTranslate:
    def test_identity_element(self):
        q = H1Point(2.0, -3.0, 0.5)
        assert left_translate(H1Point.origin(), q) == q

    def test_displayed_formula(self):
        # p=(1,0,0), q=(0,1,0): (a+x, b+y, c+z+ya-xb) = (1, 1, -1)
        assert left_translate(H1Point(1, 0, 0), H1Point(0, 1, 0)) == H1Point(1, 1, -1)

    def test_inverse_reaches_origin(self):
        p = H1Point(0.7, -1.2, 3.4)
        assert left_translate(p, group_inverse(p)) == H1Point.origin()

    @given(point_st, point_st)
    def test_inverse_property(self, p, q):
        assert left_translate(H1Point.origin(), q) == q
        o = left_translate(p, p.inverse())
        assert abs(o.x) < 1e-9 and abs(o.y) < 1e-9 and abs(o.z) < 1e-9

    @given(point_st, point_st, point_st)
    def test_associativity(self, p, q, r):
        left = left_translate(p, left_translate(q, r))
        right = left_translate(left_translate(p, q), r)
        assert np.allclose(left.as_array(), right.as_array(), rtol=1e-12, atol=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            H1Point(np.nan, 0.0, 0.0)


class TestStandardFrame:
    def test_at_origin(self):
        e1, e2, T = standard_frame(H1Point.origin())
        assert np.array_equal(e1.euclidean(), [1, 0, 0])
        assert np.array_equal(e2.euclidean(), [0, 1, 0])
        assert np.array_equal(T.euclidean(), [0, 0, 1])

    def test_at_generic_point(self):
        e1, e2, T = standard_frame(H1Point(2, 3, 7))
        assert np.array_equal(e1.euclidean(), [1, 0, 3])
        assert np.array_equal(e2.euclidean(), [0, 1, -2])
        assert np.array_equal(T.euclidean(), [0, 0, 1])

    def test_basis_components_are_unit_vectors(self):
        e1, e2, T = standard_frame(H1Point(-4, 9, 1))
        assert np.array_equal(e1.components(), [1, 0, 0])
        assert np.array_equal(e2.components(), [0, 1, 0])
        assert np.array_equal(T.components(), [0, 0, 1])

    @given(point_st)
    def test_contact_plane_membership(self, p):
        e1, e2, _ = standard_frame(p)
        assert e1.is_contact() and e2.is_contact()


class TestJ:
    def test_j_e1_is_e2(self):
        v = TangentVector(1, 0, 0, H1Point.origin())
        assert np.array_equal(apply_J(v).components(), [0, 1, 0])

    def test_j_annihilates_T(self):
        v = TangentVector(0, 0, 1, H1Point(1, 2, 3))
        assert np.array_equal(apply_J(v).components(), [0, 0, 0])

    @given(COORD, COORD)
    def test_j_squared_is_minus_identity_on_contact(self, a1, a2):
        v = TangentVector(a1, a2, 0.0, H1Point.origin())
        w = apply_J(apply_J(v))
        assert w.a1 == -a1 and w.a2 == -a2 and w.a3 == 0.0

    @given(COORD, COORD, COORD)
    def test_j_kills_vertical_component(self, a1, a2, a3):
        v = TangentVector(a1, a2, a3, H1Point.origin())
        assert apply_J(v).a3 == 0.0


class TestPshTransform:
    def test_identity(self):
        p = H1Point(1.5, -0.5, 2.0)
        assert PshTransform.identity().apply(p) == p

    def test_quarter_turn(self):
        g = PshTransform(np.pi / 2, H1Point.origin())
        q = g.apply(H1Point(1, 0, 5))
        assert np.allclose(q.as_array(), [0, 1, 5], atol=1e-15)

    def test_pure_shift_matches_left_translate(self):
        g = PshTransform(0.0, H1Point(1, 0, 0))
        assert g.apply(H1Point(0, 1, 0)) == H1Point(1, 1, -1)

    @given(st.floats(-3.14, 3.14), point_st, point_st)
    @example(1.0, H1Point(50.0, 92.0, 0.0), H1Point(0.0, 16.0, 0.0))
    def test_inverse_round_trip(self, angle, shift, p):
        g = PshTransform(angle, shift)
        back = g.inverse().apply(g.apply(p))
        # z passes through cross terms of size |shift| (|shift| + |p|) that
        # cancel on the way back, each rounded to eps of its size
        s, q = np.linalg.norm(shift.as_array()), np.linalg.norm(p.as_array())
        bound = 8.0 * np.finfo(float).eps * (1.0 + s) * (1.0 + s + q)
        assert np.allclose(back.as_array(), p.as_array(), rtol=0.0, atol=bound)

    @given(st.floats(-3, 3), point_st, st.floats(-3, 3), point_st, point_st)
    def test_composition(self, a1, p1, a2, p2, q):
        g1, g2 = PshTransform(a1, p1), PshTransform(a2, p2)
        via_compose = g2.compose(g1).apply(q)
        via_apply = g2.apply(g1.apply(q))
        assert np.allclose(
            via_compose.as_array(), via_apply.as_array(), rtol=1e-10, atol=1e-9
        )

    def test_apply_array_matches_apply(self, rng):
        g = PshTransform(0.8, H1Point(0.3, -0.7, 1.1))
        pts = rng.uniform(-2, 2, size=(10, 3))
        batch = g.apply_array(pts)
        single = np.array([g.apply(H1Point.from_array(p)).as_array() for p in pts])
        assert np.allclose(batch, single, atol=1e-14)

    def test_point_json_round_trip(self):
        p = H1Point(1.25, -2.5, 0.125)
        assert H1Point.from_array(p.to_json()) == p
