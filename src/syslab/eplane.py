"""The equilateral triangulation of the Euclidean plane in axial coordinates.

Vertices are integer pairs (a, b); the six neighbors of every vertex are the
fixed offset set below, and embedding (a, b) at (a + b/2, b*sqrt(3)/2) makes
every edge have unit length; ``embed`` returns that point as the integer
pair 2*(a, b) (see ``syslab.exact``). The simplicial automorphisms form the
lattice-affine group: the order-12 hexagonal point group plus translations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Tuple

from . import complexes
from .errors import PreconditionViolated, ScenarioParseError
from .exact import PlanePoint

Axial = Tuple[int, int]

OFFSETS: Tuple[Axial, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
_OFFSET_SET = frozenset(OFFSETS)


def neighbors(v: Axial) -> Tuple[Axial, ...]:
    a, b = v
    return tuple((a + da, b + db) for da, db in OFFSETS)


def _lattice_clique(verts) -> bool:
    """Whether the points of verts are pairwise lattice neighbours, which on
    a ball of the lattice makes them a simplex of its window; a repeated
    point is not a neighbour of itself."""
    for (p, q), (r, s) in combinations(verts, 2):
        if (r - p, s - q) not in _OFFSET_SET:
            return False
    return True


def lattice_distance(u: Axial, v: Axial) -> int:
    """Closed-form edge-path distance on the triangular lattice.

    With (p, q) = v - u: |p + q| when p and q do not have strictly opposite
    signs, max(|p|, |q|) otherwise. Agrees with BFS in the lattice graph.
    """
    p = v[0] - u[0]
    q = v[1] - u[1]
    if p >= 0:
        if q >= 0:
            return p + q
        return p if p >= -q else -q
    if q <= 0:
        return -p - q
    return q if q >= -p else -p


def ball_margins(center: Axial, radius: int) -> dict:
    """The radius-ball around center as {v: radius - lattice_distance(center, v)},
    row by row: with (p, q) = v - center the distance is max(|p|, |q|, |p + q|),
    so row q runs over p from max(-r, -r - q) to min(r, r - q). The case split
    of ``lattice_distance`` is inlined, as every plane window build runs it."""
    if radius < 0:
        raise PreconditionViolated("radius must be >= 0")
    a, b = center
    margins = {}
    for q in range(-radius, radius + 1):
        for p in range(max(-radius, -radius - q), min(radius, radius - q) + 1):
            if p >= 0:
                d = p + q if q >= 0 else (p if p >= -q else -q)
            else:
                d = -p - q if q <= 0 else (q if q >= -p else -p)
            margins[(a + p, b + q)] = radius - d
    return margins


def embed(v: Axial) -> PlanePoint:
    """The vertex as a plane point, in doubled axial coordinates."""
    return PlanePoint(2 * v[0], 2 * v[1])


def _box(x: Axial, y: Axial) -> Tuple[Axial, int, Axial, int]:
    """The interval box of x and y as (d1, a, d2, b), with d1 and d2 unit
    offsets 60 degrees apart: its corners are x, x + a*d1, x + b*d2 and y.
    The box's one sign case split; the other plane functions read it here."""
    p = y[0] - x[0]
    q = y[1] - x[1]
    if p * q >= 0:
        return (1 if p > 0 else -1, 0), abs(p), (0, 1 if q > 0 else -1), abs(q)
    if abs(p) >= abs(q):
        s = 1 if p > 0 else -1
        return (s, 0), abs(p + q), (s, -s), abs(q)
    s = 1 if q > 0 else -1
    return (0, s), abs(p + q), (-s, s), abs(p)


def corner_geodesic(x: Axial, y: Axial) -> Tuple[Axial, ...]:
    """The extreme monotone geodesic: along one side of the interval box,
    then the other (d1 first when d2 is the vertical offset, d2 first
    otherwise).

    The farthest geodesic from the straight segment between the endpoints;
    useful as the empirical contrast to pipeline-selected geodesics.
    """
    d1, a, d2, b = _box(x, y)
    steps = [d1] * a + [d2] * b if d2[0] == 0 else [d2] * b + [d1] * a
    out = [x]
    for da, db in steps:
        out.append((out[-1][0] + da, out[-1][1] + db))
    return tuple(out)


def interval_corners(x: Axial, y: Axial) -> Tuple[Axial, Axial, Axial, Axial]:
    """The four corners of the interval box of x and y, in the order x,
    x + a*d1, x + b*d2, y of ``_box``.

    The lattice vertices on geodesics from x to y are the lattice points of
    the parallelogram these corners span (flat when x and y share a lattice
    line), so a convex function of the vertex, such as the distance from a
    fixed vertex, takes its largest value on the interval at a corner.
    """
    (e, f), a, (g, h), b = _box(x, y)
    return (x, (x[0] + a * e, x[1] + a * f), (x[0] + b * g, x[1] + b * h), y)


def directed_simplices(x: Axial, y: Axial) -> Tuple[Tuple[Axial, ...], ...]:
    """The simplices of the directed geodesic from x to y, as sorted vertex
    tuples from (x,) to (y,).

    Write the interval box (``_box``) as x, x + a*d1, x + b*d2
    and y, with d1 and d2 unit offsets 60 degrees apart. For k < min(a, b),
    sigma_2k = x + k(d1 + d2) and sigma_2k+1 = {sigma_2k + d1, sigma_2k + d2};
    after that, single vertices run along the longer side to y. Each step
    is the projection of ``directed._project``: the common neighbours of
    sigma_i one level nearer to y are the two vertices one offset further
    on while the box has width in both directions, and one vertex after.
    """
    d1, a, d2, b = _box(x, y)
    u, v = x
    out = []
    for _ in range(min(a, b)):
        out.append(((u, v),))
        e, f = (u + d1[0], v + d1[1]), (u + d2[0], v + d2[1])
        out.append((e, f) if e < f else (f, e))
        u += d1[0] + d2[0]
        v += d1[1] + d2[1]
    du, dv = d1 if a > b else d2
    for _ in range(abs(a - b)):
        out.append(((u, v),))
        u += du
        v += dv
    out.append(((u, v),))
    return tuple(out)


def segment(a: Axial, b: Axial) -> Tuple[Axial, ...]:
    """The lattice points from a to b in order, for b - a a multiple of a
    unit offset: the vertices of the straight lattice segment [a, b]."""
    t = lattice_distance(a, b)
    if t == 0:
        return (a,)
    da, db = (b[0] - a[0]) // t, (b[1] - a[1]) // t
    return tuple((a[0] + da * m, a[1] + db * m) for m in range(t + 1))


def window(center: Axial = (0, 0), radius: int = 1) -> complexes.FlagComplex:
    """The radius-ball around center as a FlagComplex generated from
    ``plane_ball = (center, radius)`` alone: the vertices of ``ball_margins``,
    each joined to its lattice neighbours in the ball; distances by
    ``lattice_distance``."""
    return complexes.FlagComplex(plane_ball=(center, radius),
                                 name=f"eplane:r{radius}@{center[0]},{center[1]}")


# -- isometries ---------------------------------------------------------------

_ROT60 = ((0, -1), (1, 1))     # columns: images of (1,0) and (0,1)
_MIRROR = ((0, 1), (1, 0))     # swap reflection, fixes the a=b direction
_IDENT = ((1, 0), (0, 1))


def _mat_apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _mat_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def _mat_inv(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det not in (1, -1):
        raise PreconditionViolated(f"matrix not unimodular: {m}")
    return ((m[1][1] * det, -m[0][1] * det), (-m[1][0] * det, m[0][0] * det))


@dataclass(frozen=True)
class PlaneIsometry:
    """Simplicial automorphism of the lattice: v -> matrix*v + shift."""

    matrix: Tuple[Tuple[int, int], Tuple[int, int]]
    shift: Axial

    def __post_init__(self):
        images = {_mat_apply(self.matrix, o) for o in OFFSETS}
        if images != _OFFSET_SET:
            raise PreconditionViolated(
                f"matrix {self.matrix} does not preserve the neighbor offsets")

    def apply(self, v: Axial) -> Axial:
        w = _mat_apply(self.matrix, v)
        return (w[0] + self.shift[0], w[1] + self.shift[1])

    __call__ = apply

    def displacement(self, v: Axial) -> int:
        """d(v, h(v)) under the closed-form lattice metric: with (p, q) =
        h(v) - v = (M - I)v + t, the case split of ``lattice_distance``
        inlined, as in ``ball_margins``."""
        (m00, m01), (m10, m11) = self.matrix
        a, b = v
        p = (m00 - 1) * a + m01 * b + self.shift[0]
        q = m10 * a + (m11 - 1) * b + self.shift[1]
        if p >= 0:
            if q >= 0:
                return p + q
            return p if p >= -q else -q
        if q <= 0:
            return -p - q
        return q if q >= -p else -p

    def compose(self, other: "PlaneIsometry") -> "PlaneIsometry":
        """self after other: (self.compose(other))(v) == self(other(v))."""
        m = _mat_mul(self.matrix, other.matrix)
        t = _mat_apply(self.matrix, other.shift)
        return PlaneIsometry(m, (t[0] + self.shift[0], t[1] + self.shift[1]))

    def inverse(self) -> "PlaneIsometry":
        inv = _mat_inv(self.matrix)
        t = _mat_apply(inv, self.shift)
        return PlaneIsometry(inv, (-t[0], -t[1]))

    def power(self, n: int) -> "PlaneIsometry":
        if n < 0:
            return self.inverse().power(-n)
        result = identity()
        base = self
        while n:
            if n & 1:
                result = base.compose(result)
            base = base.compose(base)
            n >>= 1
        return result

    @property
    def is_translation(self) -> bool:
        return self.matrix == _IDENT

    def matrix_order(self) -> int:
        m, k = self.matrix, 1
        while m != _IDENT:
            m = _mat_mul(m, self.matrix)
            k += 1
        return k

    def translation_part_of_power(self) -> Axial:
        """Shift of self**order(matrix); zero iff some power fixes a plane point."""
        return self.power(self.matrix_order()).shift

    def __repr__(self):
        return f"PlaneIsometry({self.matrix}, shift={self.shift})"


def identity() -> PlaneIsometry:
    return PlaneIsometry(_IDENT, (0, 0))


def translation(a: int, b: int) -> PlaneIsometry:
    return PlaneIsometry(_IDENT, (a, b))


def glide(a: int, b: int) -> PlaneIsometry:
    """(u, v) -> (v + a, u + b): swap reflection composed with a translation."""
    return PlaneIsometry(_MIRROR, (a, b))


def rotation60(k: int, about: Axial = (0, 0)) -> PlaneIsometry:
    """Rotation by k*60 degrees about the given lattice vertex."""
    m = _IDENT
    for _ in range(k % 6):
        m = _mat_mul(_ROT60, m)
    w = _mat_apply(m, about)
    return PlaneIsometry(m, (about[0] - w[0], about[1] - w[1]))


def parse_isometry(text: str) -> PlaneIsometry:
    """Parse the literal syntax: translate(a,b) | glide(a,b) | rot60^k @ (a,b)."""
    s = text.strip().replace(" ", "")
    try:
        if s.startswith("translate(") and s.endswith(")"):
            a, b = (int(t) for t in s[len("translate("):-1].split(","))
            return translation(a, b)
        if s.startswith("glide(") and s.endswith(")"):
            a, b = (int(t) for t in s[len("glide("):-1].split(","))
            return glide(a, b)
        if s.startswith("rot60^"):
            head, _, tail = s.partition("@")
            k = int(head[len("rot60^"):])
            if tail:
                if not (tail.startswith("(") and tail.endswith(")")):
                    raise ValueError(tail)
                a, b = (int(t) for t in tail[1:-1].split(","))
            else:
                a = b = 0
            return rotation60(k, (a, b))
    except (ValueError, TypeError) as exc:
        raise ScenarioParseError(f"bad isometry literal {text!r}") from exc
    raise ScenarioParseError(f"bad isometry literal {text!r}")
