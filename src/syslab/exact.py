"""Integer plane points and the exact orientation predicate on them.

A lattice vertex (a, b) sits at (a + b/2, b*sqrt(3)/2). Every point the
CAT(0) stages build is an embedded vertex or a modified-disk corner half an
edge away from one, so its axial coordinates are half-integers and it is
stored as the integer pair (p, q) = 2*(a, b), doubled axial coordinates.
The embedding is linear with positive determinant, so the sign of a turn is
the sign of the integer axial cross product (``cross``): no decision needs
sqrt(3). ``cross`` and the embedded squared length ``norm_sq`` serve every
module that works in axial coordinates. Floats are produced only for
drawing and for path lengths.

``ExactScalar``, a number (a + b*sqrt(3))/den of Q[sqrt(3)], is not used by
the pipeline; the independent Q[sqrt(3)] oracles of the test suite build on
it. It is stored with integer a, b and den > 0, not kept reduced
(comparisons cross-multiply).
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


class PlanePoint:
    """A plane point (or vector) in doubled axial coordinates: integers (p, q)
    standing for the axial position (p/2, q/2)."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q

    def __add__(self, other):
        return PlanePoint(self.p + other.p, self.q + other.q)

    def __sub__(self, other):
        return PlanePoint(self.p - other.p, self.q - other.q)

    def __eq__(self, other):
        return isinstance(other, PlanePoint) and self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    def to_floats(self):
        """Cartesian (x, y) = ((2p + q)/4, q*sqrt(3)/4) in floats."""
        return (2 * self.p + self.q) / 4, self.q * sqrt(3.0) / 4

    def __repr__(self):
        return f"P({self.p}, {self.q})"


def cross(u, v) -> int:
    """Axial cross product of two integer pairs (axial or doubled axial
    vectors); the Euclidean cross product of their embeddings is
    sqrt(3)/2 times it, so the two have the same sign."""
    return u[0] * v[1] - u[1] * v[0]


def norm_sq(d) -> int:
    """Squared Euclidean length of the embedding of the axial vector d."""
    return d[0] * d[0] + d[0] * d[1] + d[1] * d[1]


def orient(o: PlanePoint, a: PlanePoint, b: PlanePoint) -> int:
    """Sign of the turn o->a->b: +1 left, -1 right, 0 collinear. Exact."""
    c = cross((a.p - o.p, a.q - o.q), (b.p - o.p, b.q - o.q))
    return (c > 0) - (c < 0)
