"""Exact arithmetic in the field Q[sqrt(3)] and planar predicates built on it.

Every coordinate produced by embedding the triangular lattice lies in
Q[sqrt(3)], so incidence and side-of-line decisions can be made exactly.
A scalar is stored as (a + b*sqrt(3)) / den with integer a, b and den > 0;
the representation is not kept reduced (comparisons cross-multiply), which
keeps the hot paths on plain integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, sqrt

_REDUCE_LIMIT = 1 << 128


class ExactScalar:
    __slots__ = ("a", "b", "den")

    def __init__(self, a=0, b=0, den=1):
        if isinstance(a, ExactScalar):
            a, b, den = a.a, a.b, a.den
        elif isinstance(a, Fraction):
            a, den = a.numerator, a.denominator * den
        if isinstance(b, Fraction):
            a, b, den = a * b.denominator, b.numerator, den * b.denominator
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            a, b, den = -a, -b, -den
        if den > _REDUCE_LIMIT or abs(a) > _REDUCE_LIMIT or abs(b) > _REDUCE_LIMIT:
            g = gcd(gcd(abs(a), abs(b)), den)
            if g > 1:
                a, b, den = a // g, b // g, den // g
        self.a = a
        self.b = b
        self.den = den

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.a * o.den + o.a * self.den,
                           self.b * o.den + o.b * self.den,
                           self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(-self.a, -self.b, self.den)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return ExactScalar(self.a * o.a + 3 * self.b * o.b,
                           self.a * o.b + self.b * o.a,
                           self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        norm = o.a * o.a - 3 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        # 1 / ((a + b*s)/d) = d * (a - b*s) / (a^2 - 3 b^2)
        return ExactScalar((self.a * o.a - 3 * self.b * o.b) * o.den,
                           (self.b * o.a - self.a * o.b) * o.den,
                           self.den * norm)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- order and equality -------------------------------------------------

    def sign(self):
        """Exact sign of a + b*sqrt(3); denominator is positive by invariant."""
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: compare a^2 against 3 b^2 on the dominant term
        d = a * a - 3 * b * b
        if a > 0:  # b < 0
            return 1 if d > 0 else (-1 if d < 0 else 0)
        return -1 if d > 0 else (1 if d < 0 else 0)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.a * o.den == o.a * self.den and self.b * o.den == o.b * self.den

    def __hash__(self):
        g = gcd(gcd(abs(self.a), abs(self.b)), self.den)
        return hash((self.a // g, self.b // g, self.den // g)) if g else hash((0, 0, 1))

    def __lt__(self, other):
        return (self - _require(other)).sign() < 0

    def __le__(self, other):
        return (self - _require(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _require(other)).sign() > 0

    def __ge__(self, other):
        return (self - _require(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- conversions ---------------------------------------------------------

    def __float__(self):
        return (self.a + self.b * sqrt(3.0)) / self.den

    def as_fractions(self):
        """Return (p, q) with value p + q*sqrt(3), both Fractions."""
        return Fraction(self.a, self.den), Fraction(self.b, self.den)

    def __repr__(self):
        p, q = self.as_fractions()
        if q == 0:
            return f"ES({p})"
        return f"ES({p} + {q}*sqrt3)"


def _coerce(value):
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, int):
        return ExactScalar(value)
    if isinstance(value, Fraction):
        return ExactScalar(value)
    return None


def _require(value):
    o = _coerce(value)
    if o is None:
        raise TypeError(f"cannot coerce {value!r} to ExactScalar")
    return o


HALF = ExactScalar(1, 0, 2)


class PlanePoint:
    """A point (or vector) of the plane with ExactScalar coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = _require(x)
        self.y = _require(y)

    def __add__(self, other):
        return PlanePoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return PlanePoint(self.x - other.x, self.y - other.y)

    def scale(self, factor):
        return PlanePoint(self.x * factor, self.y * factor)

    def __eq__(self, other):
        return isinstance(other, PlanePoint) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __iter__(self):
        return iter((self.x, self.y))

    def to_floats(self):
        return float(self.x), float(self.y)

    def __repr__(self):
        return f"P({self.x!r}, {self.y!r})"


def cross(u: PlanePoint, v: PlanePoint) -> ExactScalar:
    return u.x * v.y - u.y * v.x


def dot(u: PlanePoint, v: PlanePoint) -> ExactScalar:
    return u.x * v.x + u.y * v.y


def orient(o: PlanePoint, a: PlanePoint, b: PlanePoint) -> int:
    """Sign of the turn o->a->b: +1 left, -1 right, 0 collinear. Exact."""
    return cross(a - o, b - o).sign()


def dist_sq(a: PlanePoint, b: PlanePoint) -> ExactScalar:
    d = b - a
    return dot(d, d)


def midpoint(a: PlanePoint, b: PlanePoint) -> PlanePoint:
    return PlanePoint((a.x + b.x) * HALF, (a.y + b.y) * HALF)


def lerp(a: PlanePoint, b: PlanePoint, t) -> PlanePoint:
    """a + t*(b - a) with t rational or ExactScalar."""
    t = _require(t)
    return PlanePoint(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)


def on_segment(p: PlanePoint, a: PlanePoint, b: PlanePoint) -> bool:
    """Whether p lies on the closed segment [a, b]. Exact."""
    if orient(a, b, p) != 0:
        return False
    d = b - a
    t = dot(p - a, d)
    return t.sign() >= 0 and (t - dot(d, d)).sign() <= 0

