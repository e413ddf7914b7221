from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syslab.exact import (ExactScalar, PlanePoint, cross, dist_sq, lerp,
                          midpoint, on_segment, orient)

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
    o = PlanePoint(es(0), es(0))
    a = PlanePoint(es(1), es(0))
    left = PlanePoint(es(1), es(0, 1))
    right = PlanePoint(es(1), es(0, -1))
    straight = PlanePoint(es(2), es(0))
    assert orient(o, a, left) == 1
    assert orient(o, a, right) == -1
    assert orient(o, a, straight) == 0


def test_segment_helpers():
    a = PlanePoint(es(0), es(0))
    b = PlanePoint(es(4), es(0))
    m = midpoint(a, b)
    assert m == PlanePoint(es(2), es(0))
    assert on_segment(m, a, b)
    assert not on_segment(PlanePoint(es(5), es(0)), a, b)
    assert lerp(a, b, Fraction(1, 4)) == PlanePoint(es(1), es(0))
    assert dist_sq(a, b) == es(16)


def test_cross_on_lattice_vectors():
    u = PlanePoint(es(Fraction(3, 2)), es(0, Fraction(1, 2)))  # embed(1,1)
    v = PlanePoint(es(1), es(0))                               # embed(1,0)
    # area form of the unit rhombus: |cross| = sqrt3/2
    assert cross(u, v) == es(0, Fraction(-1, 2))
