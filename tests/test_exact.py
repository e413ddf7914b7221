import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from syslab import eplane
from syslab.exact import ExactScalar, PlanePoint, cross, norm_sq, orient

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def es(p, q=0):
    return ExactScalar(Fraction(p)) + ExactScalar(0, 1) * ExactScalar(Fraction(q))


def test_basic_arithmetic():
    a = es(Fraction(1, 2), 1)     # 1/2 + sqrt3
    b = es(2, Fraction(-1, 3))    # 2 - sqrt3/3
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a - a).is_zero()
    assert float(a) == pytest.approx(0.5 + 3 ** 0.5)


def test_division_inverts_multiplication():
    a = es(Fraction(3, 4), Fraction(-2, 5))
    b = es(1, 1)
    assert (a * b) / b == a
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / es(0, 0)


def test_sign_mixed_terms():
    # 2 - sqrt3 > 0, 3 - 2 sqrt3 < 0, sqrt3 - 1 > 0
    assert es(2, -1).sign() == 1
    assert es(3, -2).sign() == -1
    assert es(-1, 1).sign() == 1
    assert es(0, 0).sign() == 0
    assert es(-2, 1).sign() == -1  # sqrt3 - 2 < 0


def test_comparisons_and_hash():
    assert es(1, 1) > es(2, 0)            # 1 + sqrt3 > 2
    assert es(Fraction(12, 7)) < es(0, 1)  # 12/7 < sqrt3 < 7/4
    assert es(Fraction(7, 4)) > es(0, 1)
    assert hash(ExactScalar(2, 4, 2)) == hash(ExactScalar(1, 2, 1))
    assert ExactScalar(2, 4, 2) == ExactScalar(1, 2, 1)


@given(rationals, rationals, rationals, rationals, rationals, rationals)
@settings(max_examples=80, deadline=None)
def test_field_axioms(p1, q1, p2, q2, p3, q3):
    a, b, c = es(p1, q1), es(p2, q2), es(p3, q3)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(rationals, rationals)
@settings(max_examples=80, deadline=None)
def test_sign_matches_float(p, q):
    a = es(p, q)
    f = float(p) + float(q) * 3 ** 0.5
    if abs(f) > 1e-6:
        assert a.sign() == (1 if f > 0 else -1)


def test_orientation_predicates():
    o = PlanePoint(0, 0)
    a = eplane.embed((1, 0))
    assert orient(o, a, eplane.embed((0, 1))) == 1
    assert orient(o, a, eplane.embed((1, -1))) == -1
    assert orient(o, a, eplane.embed((2, 0))) == 0
    assert orient(o, a, PlanePoint(1, 0)) == 0          # the midpoint of the edge


axial = st.integers(min_value=-40, max_value=40)


@given(axial, axial, axial, axial, axial, axial)
@settings(max_examples=300, deadline=None)
def test_orient_agrees_with_q_sqrt3_oracle(p0, q0, p1, q1, p2, q2):
    """The integer axial cross product has the sign of the Euclidean one."""
    pts = [PlanePoint(p0, q0), PlanePoint(p1, q1), PlanePoint(p2, q2)]
    assert orient(*pts) == oracles.orient(*(oracles.exact_point(p) for p in pts))


def test_orient_agrees_with_oracle_on_small_grid():
    rng = random.Random(3)
    coords = [PlanePoint(p, q) for p in range(-3, 4) for q in range(-3, 4)]
    signs = set()
    for _ in range(2000):
        pts = rng.sample(coords, 3)
        expected = oracles.orient(*(oracles.exact_point(p) for p in pts))
        assert orient(*pts) == expected
        signs.add(expected)
    assert signs == {-1, 0, 1}


def test_point_arithmetic_and_equality():
    a, b = PlanePoint(3, -1), PlanePoint(-2, 5)
    assert a + b == PlanePoint(1, 4)
    assert a - b == PlanePoint(5, -6)
    assert a != (3, -1)
    assert len({a, PlanePoint(3, -1), b}) == 2


def test_to_floats_matches_oracle():
    """Embedded vertices convert exactly as the Q[sqrt(3)] points did; half-way
    points agree to within an ulp."""
    for v in [(0, 0), (1, 0), (0, 1), (-3, 7), (12, -5), (1000, 333)]:
        a, b = v
        old = oracles.ExactPoint(ExactScalar(2 * a + b, 0, 2), ExactScalar(0, b, 2))
        assert eplane.embed(v).to_floats() == old.to_floats()
    for p in range(-9, 10):
        for q in range(-9, 10):
            x, y = PlanePoint(p, q).to_floats()
            ox, oy = oracles.exact_point(p, q).to_floats()
            assert x == ox
            assert abs(y - oy) <= 1e-15 * max(1.0, abs(oy))


def test_segment_helpers():
    es0, es4 = oracles.ExactPoint(es(0), es(0)), oracles.ExactPoint(es(4), es(0))
    m = oracles.midpoint(es0, es4)
    assert m == oracles.ExactPoint(es(2), es(0))
    assert oracles.on_segment(m, es0, es4)
    assert not oracles.on_segment(oracles.ExactPoint(es(5), es(0)), es0, es4)
    assert oracles.lerp(es0, es4, Fraction(1, 4)) == oracles.ExactPoint(es(1), es(0))
    assert oracles.dist_sq(es0, es4) == es(16)


def test_cross_on_lattice_vectors():
    """The identities behind every integer predicate: for lattice vectors
    u, v, cross(embed u, embed v) = (sqrt3/2) * cross(u, v), and the
    squared length of embed u is norm_sq(u)."""
    origin = oracles.exact_point(0, 0)
    for u, v in [((1, 1), (1, 0)), ((2, -1), (3, 4)), ((-5, 2), (1, -7))]:
        eu, ev = (oracles.exact_point(eplane.embed(w)) for w in (u, v))
        assert oracles.cross(eu, ev) == es(0, Fraction(cross(u, v), 2))
        assert oracles.dist_sq(origin, eu) == es(norm_sq(u))
    # the unit rhombus of embed(1,1) and embed(1,0) has area sqrt3/2
    assert oracles.cross(oracles.exact_point(eplane.embed((1, 1))),
                         oracles.exact_point(eplane.embed((1, 0)))) == es(0, Fraction(-1, 2))
