"""The modified characteristic disk and exact shortest paths inside it.

The disk polygon is shrunk by half an edge along every layer segment; the
resulting domain carries the intrinsic (CAT(0)) path metric. Its shrunken
layer segments are portals, and shortest paths are funnel shortest paths
through the layer portals, decided by exact side-of-line predicates alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import eplane
from .chardisk import CharDisk
from .complexes import Simplex
from .directed import ThickInterval
from .errors import DegenerateDomain, NoCrossing, PreconditionViolated
from .exact import ExactScalar, PlanePoint, cross, dist_sq, dot, lerp, orient


@dataclass(frozen=True)
class ModifiedDisk:
    """Polygonal domain obtained by shrinking each layer segment by 1/2.

    ``polygon`` walks the boundary loop without repeating the start point;
    the two shrunken endpoints coincide pairwise at the thin brackets, so
    the loop has 2*(k-j) - 2 corners. A degenerate domain (all corners
    collinear) is flagged and handled by reading paths off the segment.
    """

    disk: Optional[CharDisk]
    interval: ThickInterval
    polygon: Tuple[PlanePoint, ...]
    start: PlanePoint
    goal: PlanePoint
    v_prime: Tuple[PlanePoint, ...]   # per layer j..k
    w_prime: Tuple[PlanePoint, ...]
    degenerate: bool


@dataclass(frozen=True)
class PolyPath:
    """A polyline with exact vertices; its length is reported in floats."""

    points: Tuple[PlanePoint, ...]

    def length(self) -> float:
        total = 0.0
        for a, b in zip(self.points, self.points[1:]):
            total += math.sqrt(float(dist_sq(a, b)))
        return total

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class Diagonal:
    """Per-layer nearest simplices to the CAT(0) geodesic, in disk coordinates."""

    interval: ThickInterval
    simplices: Tuple[Simplex, ...]   # indices j+1 .. k-1

    def simplex_at(self, i: int) -> Simplex:
        return self.simplices[i - self.interval.j - 1]


def modified_disk(disk: CharDisk) -> ModifiedDisk:
    """Shrink every layer segment of the disk by 1/2 at both ends.

    End layers have unit segments, so their two shrunken points coincide at
    the midpoint, closing the polygon. All coordinates stay in Q[sqrt(3)].
    """
    j, k = disk.interval.j, disk.interval.k
    v_prime: List[PlanePoint] = []
    w_prime: List[PlanePoint] = []
    for i in range(j, k + 1):
        v, w = disk.layer_segment(i)
        t = eplane.lattice_distance(v, w)
        pv, pw = eplane.embed(v), eplane.embed(w)
        v_prime.append(lerp(pv, pw, Fraction(1, 2 * t)))
        w_prime.append(lerp(pw, pv, Fraction(1, 2 * t)))
    if v_prime[0] != w_prime[0] or v_prime[-1] != w_prime[-1]:
        raise PreconditionViolated("bracket layers of the interval are not unit edges")
    polygon = tuple(v_prime[:-1] + [v_prime[-1]] + list(reversed(w_prime[1:-1])))
    degenerate = _all_collinear(polygon)
    return ModifiedDisk(disk, disk.interval, polygon, v_prime[0], v_prime[-1],
                        tuple(v_prime), tuple(w_prime), degenerate)


def _all_collinear(points) -> bool:
    if len(points) < 3:
        return True
    a, b = points[0], points[1]
    return all(orient(a, b, p) == 0 for p in points[2:])


# -- shortest paths --------------------------------------------------------------


def shortest_path(m: ModifiedDisk) -> PolyPath:
    """Shortest path from start to goal in the intrinsic metric of the domain.

    The domain is a strip of trapezoids between parallel layer lines, so the
    path is the string pulled taut through the portals [v'_i, w'_i] of the
    inner layers: the funnel algorithm (Lee-Preparata 1984), with exact
    orientation tests only. A portal point on a side of the funnel tightens
    the funnel instead of bending the path, so no interior vertex of the
    result is collinear with its neighbours.
    """
    start, goal = m.start, m.goal
    if m.degenerate:
        # collapsed domain: the path is forced along the segment, provided
        # every corner lies between the endpoints
        d = goal - start
        for p in m.polygon:
            t = dot(p - start, d)
            if t.sign() < 0 or (t - dot(d, d)).sign() > 0:
                raise DegenerateDomain(
                    "domain collapsed to a segment extending beyond the endpoints")
        return PolyPath((start, goal))
    # (left, right) as seen walking from start; portals are parallel to the
    # start's layer line, so the sign below is 0 only for a one-point portal
    portals = [(start, start)]
    for v, w in zip(m.v_prime[1:-1], m.w_prime[1:-1]):
        portals.append((w, v) if orient(start, v, w) > 0 else (v, w))
    portals.append((goal, goal))
    points = [start]
    apex = left = right = start
    left_i = right_i = 0
    i = 1
    while i < len(portals):
        lp, rp = portals[i]
        if orient(apex, right, rp) >= 0:          # rp narrows the right side
            if orient(apex, left, rp) > 0:        # ... past the left side
                points.append(left)
                apex = right = left
                right_i, i = left_i, left_i + 1
                continue
            right, right_i = rp, i
        if orient(apex, left, lp) <= 0:           # lp narrows the left side
            if orient(apex, right, lp) < 0:       # ... past the right side
                points.append(right)
                apex = left = right
                left_i, i = right_i, right_i + 1
                continue
            left, left_i = lp, i
        i += 1
    points.append(goal)
    return PolyPath(tuple(points))


# -- the Euclidean diagonal --------------------------------------------------------


def euclidean_diagonal(disk: CharDisk, alpha: PolyPath) -> Diagonal:
    """Nearest disk simplex to the crossing of alpha with every inner layer.

    The crossing point is intersected exactly; the nearest lattice vertex on
    the layer segment is chosen, or the edge itself when the crossing sits
    exactly on an edge barycenter (decidable in Q[sqrt(3)]). The defining
    span conditions of the diagonal are re-verified before returning.
    """
    j, k = disk.interval.j, disk.interval.k
    sims: List[Simplex] = []
    for i in range(j + 1, k):
        v, w = disk.layer_segment(i)
        pv, pw = eplane.embed(v), eplane.embed(w)
        t = eplane.lattice_distance(v, w)
        point = _line_crossing(alpha, pv, pw, i)
        u = dot(point - pv, pw - pv) / ExactScalar(t)  # arc position in [0, t]
        if u.sign() < 0 or (u - t).sign() > 0:
            raise NoCrossing(f"crossing with layer {i} lies outside its segment")
        step = ((w[0] - v[0]) // t, (w[1] - v[1]) // t)
        best = nearest_simplex_on_segment(u, t)
        verts = tuple((v[0] + step[0] * mpos, v[1] + step[1] * mpos) for mpos in best)
        sims.append(Simplex.of(verts))
    diag = Diagonal(disk.interval, tuple(sims))
    _verify_diagonal(disk, diag)
    return diag


def _line_crossing(alpha: PolyPath, pv: PlanePoint, pw: PlanePoint, i: int) -> PlanePoint:
    """The unique point where alpha crosses the line through pv and pw."""
    direction = pw - pv
    sides = [cross(direction, p - pv).sign() for p in alpha.points]
    hits: List[PlanePoint] = []
    for a in range(len(alpha.points) - 1):
        s0, s1 = sides[a], sides[a + 1]
        if s0 == 0 and s1 == 0:
            continue  # sliding along the line handled by vertex hits
        if s0 == 0:
            if a == 0 or sides[a - 1] != 0:
                hits.append(alpha.points[a])
            continue
        if s1 == 0:
            if a + 1 == len(alpha.points) - 1:
                hits.append(alpha.points[a + 1])
            continue
        if s0 * s1 < 0:
            p, q = alpha.points[a], alpha.points[a + 1]
            d1 = q - p
            s = cross(p - pv, direction) / cross(direction, d1)
            hits.append(lerp(p, q, s))
    uniq: List[PlanePoint] = []
    for h in hits:
        if not any(h == u for u in uniq):
            uniq.append(h)
    if len(uniq) != 1:
        raise NoCrossing(f"path crosses layer {i} line {len(uniq)} times")
    return uniq[0]


def _verify_diagonal(disk: CharDisk, diag: Diagonal):
    sims = diag.simplices
    if not sims:
        return
    for a, b in zip(sims, sims[1:]):
        union = set(a.verts) | set(b.verts)
        if not _disk_clique(disk, union):
            raise NoCrossing(f"diagonal simplices {a} and {b} do not span a simplex")
    j, k = disk.interval.j, disk.interval.k
    if len(sims[0]) != 1 or len(sims[-1]) != 1:
        raise NoCrossing("diagonal simplices at the interval ends must be vertices")
    vj, wj = disk.layer_segment(j)
    vk, wk = disk.layer_segment(k)
    if not _disk_clique(disk, {vj, wj, sims[0].verts[0]}):
        raise NoCrossing("first diagonal vertex does not span with the start edge")
    if not _disk_clique(disk, {vk, wk, sims[-1].verts[0]}):
        raise NoCrossing("last diagonal vertex does not span with the end edge")


def _disk_clique(disk: CharDisk, verts) -> bool:
    verts = list(verts)
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            if verts[a] != verts[b] and not disk.disk_adjacent(verts[a], verts[b]):
                return False
    return True


def nearest_simplex_on_segment(u, segment_length: int):
    """Decision rule for a crossing at exact arc position u along a segment.

    Returns a 1-tuple (vertex index) or 2-tuple (edge) of integer positions;
    the edge is returned only on an exact barycenter hit.
    """
    u = u if isinstance(u, ExactScalar) else ExactScalar(Fraction(u))
    double = u * 2
    for mpos in range(segment_length + 1):
        diff = double - (2 * mpos)
        if diff.sign() == 0:
            return (mpos,)
        if abs(diff) == ExactScalar(1):
            lo = mpos if diff.sign() > 0 else mpos - 1
            return (lo, lo + 1)
        if diff.sign() < 0:
            prev_gap = double - (2 * mpos - 1)
            return (mpos,) if prev_gap.sign() > 0 else (mpos - 1,)
    return (segment_length,)
