"""The modified characteristic disk and exact shortest paths inside it.

The disk polygon is shrunk by half an edge along every layer segment; the
resulting domain carries the intrinsic (CAT(0)) path metric. Its shrunken
layer segments are portals, and shortest paths are funnel shortest paths
through the layer portals. Every point lives in integer doubled axial
coordinates (``syslab.exact``), so each decision is an integer cross
product and the diagonal's arc positions are ratios of them.

On a plane window no disk is built: ``_straight_segment`` takes the layer
segments of a thick interval, certifies that the straight segment between
the bracket midpoints crosses every portal, which makes it the funnel's
path, and reads the diagonal off its crossings with the same tie rule
(``nearest_simplex_on_segment``). Its one caller is ``euclid``'s plane
construction, which feeds it the segments of its lattice pass. The
modified disk and the funnel still run off the plane, and on the plane
when a Euclidean geodesic's ``disks`` are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import eplane
from .chardisk import CharDisk
from .complexes import Simplex
from .directed import ThickInterval
from .errors import ConditionViolated, DegenerateDomain, NoCrossing, PreconditionViolated
from .exact import PlanePoint, cross, norm_sq, orient


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
    """A polyline with exact vertices; its length is reported in floats.

    A funnel path also records, per inner layer i = j+1..k-1 of its
    interval, the index a of the segment points[a] -> points[a+1] that
    crosses the layer line (at points[a] when the path bends on that
    portal): ``crossings[i - j - 1]``.
    """

    points: Tuple[PlanePoint, ...]
    crossings: Tuple[int, ...] = ()

    def length(self) -> float:
        total = 0.0
        for a, b in zip(self.points, self.points[1:]):
            total += math.sqrt(norm_sq((b.p - a.p, b.q - a.q)) / 4)
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
    the midpoint, closing the polygon. A corner half a unit step from a
    vertex v is 2v + step in doubled axial coordinates.
    """
    j, k = disk.interval.j, disk.interval.k
    v_prime: List[PlanePoint] = []
    w_prime: List[PlanePoint] = []
    for i in range(j, k + 1):
        v, w = disk.layer_segment(i)
        _, (sp, sq) = disk.layer_step(i)
        v_prime.append(PlanePoint(2 * v[0] + sp, 2 * v[1] + sq))
        w_prime.append(PlanePoint(2 * w[0] - sp, 2 * w[1] - sq))
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
    result is collinear with its neighbours. Each path vertex is an end of
    a later portal than the one before it, so the segment between two
    vertices crosses exactly the portals between theirs; the result records
    that segment per inner portal (Hershberger-Snoeyink 1994).
    """
    start, goal = m.start, m.goal
    if m.degenerate:
        # collapsed domain: the path is forced along the segment, provided
        # every corner lies between the endpoints (all corners are collinear,
        # so any inner product orders them)
        dp, dq = goal.p - start.p, goal.q - start.q
        span = dp * dp + dq * dq
        for c in m.polygon:
            t = (c.p - start.p) * dp + (c.q - start.q) * dq
            if t < 0 or t > span:
                raise DegenerateDomain(
                    "domain collapsed to a segment extending beyond the endpoints")
        return PolyPath((start, goal), (0,) * (m.interval.k - m.interval.j - 1))
    # (left, right) as seen walking from start; portals are parallel to the
    # start's layer line, so the sign below is 0 only for a one-point portal
    portals = [(start, start)]
    for v, w in zip(m.v_prime[1:-1], m.w_prime[1:-1]):
        portals.append((w, v) if orient(start, v, w) > 0 else (v, w))
    portals.append((goal, goal))
    points = [start]
    portal_of = [0]                               # portal index of each path vertex
    apex = left = right = start
    left_i = right_i = 0
    i = 1
    while i < len(portals):
        lp, rp = portals[i]
        if orient(apex, right, rp) >= 0:          # rp narrows the right side
            if orient(apex, left, rp) > 0:        # ... past the left side
                points.append(left)
                portal_of.append(left_i)
                apex = right = left
                right_i, i = left_i, left_i + 1
                continue
            right, right_i = rp, i
        if orient(apex, left, lp) <= 0:           # lp narrows the left side
            if orient(apex, right, lp) < 0:       # ... past the right side
                points.append(right)
                portal_of.append(right_i)
                apex = left = right
                left_i, i = right_i, right_i + 1
                continue
            left, left_i = lp, i
        i += 1
    points.append(goal)
    portal_of.append(len(portals) - 1)
    crossings = []
    for a in range(len(points) - 1):
        crossings += [a] * (portal_of[a + 1] - portal_of[a])
    return PolyPath(tuple(points), tuple(crossings[1:]))


# -- the Euclidean diagonal --------------------------------------------------------


def euclidean_diagonal(disk: CharDisk, alpha: PolyPath) -> Diagonal:
    """Nearest disk simplex to the crossing of alpha with every inner layer.

    The crossing is read off the segment of alpha that the funnel recorded
    for the layer; its arc position along the layer segment is an exact
    ratio of integer cross products. The nearest lattice vertex on the
    layer segment is chosen, or the edge itself when the crossing sits
    exactly on an edge barycenter. The defining span conditions of the
    diagonal are re-verified before returning.
    """
    j, k = disk.interval.j, disk.interval.k
    if len(alpha.crossings) != k - j - 1:
        raise NoCrossing(f"path records {len(alpha.crossings)} layer crossings "
                         f"for {k - j - 1} inner layers")
    sims: List[Simplex] = []
    for i, a in zip(range(j + 1, k), alpha.crossings):
        v, _ = disk.layer_segment(i)
        t, step = disk.layer_step(i)
        num, den = _crossing_arc(alpha, a, v, step, i)
        if num < 0 or num > t * den:
            raise NoCrossing(f"crossing with layer {i} lies outside its segment")
        best = nearest_simplex_on_segment(num, den, t)
        verts = tuple((v[0] + step[0] * mpos, v[1] + step[1] * mpos) for mpos in best)
        sims.append(Simplex.of(verts))
    _verify_diagonal([s.verts for s in sims], disk.layer_segment(j),
                     disk.layer_segment(k))
    return Diagonal(disk.interval, tuple(sims))


def _straight_segment(j: int, segments) -> List[tuple]:
    """The Euclidean simplices, as sorted lattice tuples, of the inner
    layers j+1..k-1 of a plane thick interval whose layers j..k have the
    segments ``(v_i, w_i, thickness_i)``, from lattice arithmetic alone: no
    boundary cycle, disk, modified disk or funnel is built.

    Layer i is the lattice segment [v_i, w_i], the hull of sigma_i and
    tau_i on the layer's level line. The two brackets are unit edges, and
    the start S and goal G of the modified disk are their midpoints. The
    segment S -> G meets each inner layer line at an exact arc position
    u = num / den (``_line_crossing``). When every u lies in the shrunk
    portal 1/2 <= u <= t - 1/2 of its layer, each piece of S -> G between
    two consecutive layer lines has its ends in their two portals, so it
    lies in the convex trapezoid they bound (a triangle at either end). The
    segment then lies in the modified disk, so it is the disk's shortest
    path: the funnel of ``shortest_path`` could only return it. The
    simplices are chosen by ``nearest_simplex_on_segment`` and checked by
    the span conditions of ``euclidean_diagonal``.

    Certified in O(k - j): each segment's lattice length is its layer's
    thickness (1 at the brackets), the segments are parallel lattice
    segments on consecutive lattice lines, as the layers of a ``CharDisk``
    stack, and every crossing lies in its shrunk portal. A failure raises
    ConditionViolated naming the layer, and for a crossing its num / den
    and the portal's ends in doubled axial coordinates.
    """
    k = j + len(segments) - 1
    distance = eplane.lattice_distance
    steps = []
    for i, (v, w, thickness) in enumerate(segments, j):
        t = distance(v, w)
        if t != thickness:
            raise ConditionViolated(
                f"layer {i} segment {v}-{w} has length {t}, thickness {thickness}")
        if t != 1 and i in (j, k):
            raise ConditionViolated(f"bracket layer {i} segment {v}-{w} is not a unit edge")
        dp, dq = w[0] - v[0], w[1] - v[1]
        if dp % t or dq % t:
            raise ConditionViolated(f"layer {i} segment {v}-{w} is not a lattice segment")
        steps.append((dp // t, dq // t))
    first = steps[0]
    back = (-first[0], -first[1])
    lines = [first[0] * v[1] - first[1] * v[0] for v, _, _ in segments]
    rise = lines[1] - lines[0]
    for i, (v, w, _), step, line in zip(range(j, k + 1), segments, steps, lines):
        if step != first and step != back:
            raise ConditionViolated(f"layer {i} segment {v}-{w} is not parallel to layer {j}")
        if i > j and (rise not in (1, -1) or line != lines[0] + rise * (i - j)):
            raise ConditionViolated(
                f"layer {i} segment {v}-{w} is not on the lattice line after layer {i - 1}")
    (vj, wj, _), (vk, wk, _) = segments[0], segments[-1]
    start = (vj[0] + wj[0], vj[1] + wj[1])
    goal = (vk[0] + wk[0], vk[1] + wk[1])
    sims = []
    for i, (v, w, t), step in zip(range(j + 1, k), segments[1:-1], steps[1:-1]):
        arc = _line_crossing(start, goal, v, step)
        if arc is None:
            raise ConditionViolated(f"segment {start}->{goal} does not cross layer {i}")
        num, den = arc
        if not den <= 2 * num <= (2 * t - 1) * den:
            raise ConditionViolated(
                f"segment {start}->{goal} meets layer {i} at u = {num}/{den}, outside "
                f"the portal {(2 * v[0] + step[0], 2 * v[1] + step[1])}-"
                f"{(2 * w[0] - step[0], 2 * w[1] - step[1])}")
        m = nearest_simplex_on_segment(num, den, t)
        a = (v[0] + step[0] * m[0], v[1] + step[1] * m[0])
        if len(m) == 1:
            sims.append((a,))
        else:
            b = (a[0] + step[0], a[1] + step[1])
            sims.append((a, b) if a < b else (b, a))
    _verify_diagonal(sims, (vj, wj), (vk, wk))
    return sims


def _crossing_arc(alpha: PolyPath, a: int, v, step, i: int) -> Tuple[int, int]:
    """Arc position (``_line_crossing``) where segment a of alpha meets the
    line of layer i through v along step."""
    A, B = alpha.points[a], alpha.points[a + 1]
    arc = _line_crossing((A.p, A.q), (B.p, B.q), v, step)
    if arc is None:
        raise NoCrossing(f"path segment {a} does not cross the layer {i} line")
    return arc


def _line_crossing(a, b, v, step) -> Optional[Tuple[int, int]]:
    """Arc position u = num / den (den > 0), in unit steps from v, where the
    segment from a to b (doubled axial pairs) meets the lattice line through
    v along step; None when the segment does not cross that line.

    With A, B the ends relative to 2v and s the step, the meeting point is
    2u*s, and crossing both sides with B - A gives
    2u = cross(A, B) / (cross(s, B) - cross(s, A)).
    """
    A = (a[0] - 2 * v[0], a[1] - 2 * v[1])
    B = (b[0] - 2 * v[0], b[1] - 2 * v[1])
    side_a, side_b = cross(step, A), cross(step, B)
    if side_a == side_b or side_a * side_b > 0:
        return None
    num, den = cross(A, B), 2 * (side_b - side_a)
    return (num, den) if den > 0 else (-num, -den)


def _verify_diagonal(sims, start, end):
    """The span conditions of a diagonal given as vertex tuples, in lattice
    coordinates: consecutive simplices span a simplex, and the end
    simplices are vertices that span with the bracket edges ``start`` and
    ``end``."""
    if not sims:
        return
    for a, b in zip(sims, sims[1:]):
        if not eplane._lattice_clique(a + b):
            raise NoCrossing(
                f"diagonal simplices {Simplex(a)} and {Simplex(b)} do not span a simplex")
    if len(sims[0]) != 1 or len(sims[-1]) != 1:
        raise NoCrossing("diagonal simplices at the interval ends must be vertices")
    if not eplane._lattice_clique((*start, sims[0][0])):
        raise NoCrossing("first diagonal vertex does not span with the start edge")
    if not eplane._lattice_clique((*end, sims[-1][0])):
        raise NoCrossing("last diagonal vertex does not span with the end edge")


def nearest_simplex_on_segment(num: int, den: int, segment_length: int):
    """Decision rule for a crossing at exact arc position u = num / den
    (den > 0) along a segment.

    Returns a 1-tuple (vertex index) or 2-tuple (edge) of integer positions;
    the edge is returned only on an exact barycenter hit, where 2u is an odd
    integer. Otherwise the vertex is the integer nearest to u, the floor of
    u + 1/2, clamped to the segment.
    """
    double, rem = divmod(2 * num, den)
    if rem == 0 and double % 2:
        lo = (double - 1) // 2
        return (lo, lo + 1)
    nearest = (2 * num + den) // (2 * den)
    return (min(max(nearest, 0), segment_length),)
