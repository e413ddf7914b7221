"""Independent brute-force oracles used to validate the library.

Everything here is deliberately written against raw adjacency and floats,
not against the library's own metric or exact predicates, so each check is
a genuine second route to the same answer. The Q[sqrt(3)] plane geometry
below (``ExactPoint`` and its predicates, built on ``syslab.exact``'s
``ExactScalar``) is the library's former point arithmetic; it checks the
integer doubled-axial predicates that replaced it. There are three
exceptions. ``visibility_shortest_path`` and ``line_crossing_point`` take the
library's ``ModifiedDisk`` and ``PolyPath`` values, because they check the
portal funnel of ``syslab.cat0`` point for point; they convert every point
to Q[sqrt(3)] first. ``dense_is_convex`` and ``streamed_is_convex`` (the
library's former convexity kernel) read the complex's own distance matrix,
because they check the local criterion of ``complexes.is_convex`` against
the all-pairs definition of convexity.
``uncached_goodness_constant`` builds every sub-pair's Euclidean geodesic
with the library, because it checks the translation memo of
``euclid.goodness_constant`` against one construction per sub-pair.
``two_bfs_interval_levels``, ``pairwise_check_isometric`` and
``bounded_check_isometric`` are the library's former interval walk and its
two former disk isometry checks, kept on the
complex's own ``true_distance`` and ``bfs_distances``, because they check
that the searches which replaced them give the same levels and name the
same failing pair. ``sample_safe_pair`` is the runner's former pair
sampler, run with the library's ``require_pair_safe``, because it checks
that the sampler which replaced it makes the same draws and decisions.
``window_adjacency`` is the former window cut of
``complexes.materialize_window``. ``interval_box`` (the closed-form
interval of two lattice vertices) and ``brute_force_min_disk`` (an
exhaustive search for the least number of triangles filling a short cycle)
were library functions that only tests called. ``box_interval_levels``,
``scan_safe_levels`` (with ``scan_require_pair_safe`` and ``area_interval``)
and ``area_extract_flat_disk`` are the library's former area-bound plane
forms: the interval box split into levels, the margin scan over every level,
and the flat disk built from its whole region. They run on the complex's own
margins and on the library's hexagon, development and triangle-count
kernels, because they check that the plane's distance predicates, corner
margin check and boundary certificate give the same levels, refusals and
disks. The certificate kernels at the end
(``verify_conditions``, ``flat_at``, ``pairwise_triangle_count``,
``fraction_diagonal`` and the pieces they call) are the library's former
pair-loop and ``Fraction`` certificates, run on the complex's own adjacency
and on the library's disks, because they check that the frozenset and
integer kernels which replaced them accept and reject the same inputs.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from typing import List

import numpy as np

from syslab import cat0, chardisk, complexes, eplane
from syslab.cat0 import PolyPath
from syslab.directed import require_pair_safe
from syslab.errors import (BoundaryUnsafe, ConditionViolated, DegenerateDomain,
                           NoCrossing, NotFlat, PreconditionViolated, SyslabError,
                           TaskFailed)
from syslab.euclid import GoodnessReport, euclidean_geodesic
from syslab.exact import ExactScalar, _require
from syslab.exact import cross as exact_cross


def bfs_distance(c, x, y, cap=10 ** 9):
    """Plain BFS over c.neighbors, independent of any metric hint."""
    if x == y:
        return 0
    dist = {x: 0}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        if dist[v] >= cap:
            continue
        for u in c.neighbors(v):
            if u == y:
                return dist[v] + 1
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return None


def bfs_map(c, x, cap=10 ** 9):
    dist = {x: 0}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        if dist[v] >= cap:
            continue
        for u in c.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def pairs_within(c, radius):
    """Every ordered vertex pair of c at distance at most radius, found by
    plain BFS. On a book (vertices (a, b, page), page 0 the spine) only one
    pair per orbit of the page permutations, which are automorphisms of a
    book window: the one whose pages, read x then y and spine aside, run
    1, 2, ... in order of first appearance."""
    book = c.name.startswith("book-")
    for x in sorted(c.vertices()):
        near = bfs_map(c, x, cap=radius)
        for y in sorted(near):
            if book:
                pages = list(dict.fromkeys(p for p in (x[2], y[2]) if p))
                if pages != list(range(1, len(pages) + 1)):
                    continue
            yield x, y


def interval_scan(c, x, y):
    """Exhaustive interval: vertices whose distances to x and y add up."""
    d = bfs_distance(c, x, y)
    dx = bfs_map(c, x, cap=d)
    dy = bfs_map(c, y, cap=d)
    return {v for v in dx if v in dy and dx[v] + dy[v] == d}


def is_geodesic(c, vertices):
    vs = list(vertices)
    return all(bfs_distance(c, vs[i], vs[j]) == j - i
               for i in range(len(vs)) for j in range(i + 1, len(vs)))


# -- directed geodesic enumeration ------------------------------------------------


def enumerate_directed_geodesics(c, x, y, limit=50):
    """All simplex sequences satisfying the two defining conditions.

    Enumerates cliques of each successive common neighborhood; sequences
    whose members could not reach the target in the remaining steps are
    pruned (a logical consequence of the definition, not an assumption).
    Returns a list of tuples of frozensets.
    """
    n = bfs_distance(c, x, y)
    dist_to_y = bfs_map(c, y, cap=n + 1)
    results = []

    def residue_set(simplex):
        common = None
        for v in simplex:
            nbrs = set(c.neighbors(v))
            common = nbrs if common is None else common & nbrs
        return set(simplex) | common

    def ball_set(simplex):
        out = set(simplex)
        for v in simplex:
            out |= set(c.neighbors(v))
        return out

    def condition_two(prev, mid, nxt):
        return residue_set(prev) & ball_set(nxt) == set(mid)

    def cliques_of(cands):
        cands = sorted(cands)
        out = []

        def grow(base, rest):
            for i, v in enumerate(rest):
                new = base + (v,)
                out.append(new)
                grow(new, [u for u in rest[i + 1:] if all(c.adjacent(u, w) for w in new)])

        grow((), cands)
        return out

    def extend(seq):
        if len(results) >= limit:
            return
        i = len(seq) - 1
        if i == n:
            if set(seq[-1]) == {y}:
                ok = all(condition_two(seq[t - 1], seq[t], seq[t + 1])
                         for t in range(1, n))
                if ok:
                    results.append(tuple(frozenset(s) for s in seq))
            return
        current = seq[-1]
        common = None
        for v in current:
            nbrs = set(c.neighbors(v))
            common = nbrs if common is None else common & nbrs
        common -= set(current)
        usable = [v for v in common if dist_to_y.get(v, n + 2) <= n - i - 1]
        for cand in cliques_of(usable):
            if max(dist_to_y.get(v, n + 2) for v in cand) > n - i - 1:
                continue
            if i >= 1 and not condition_two(seq[i - 1], seq[i], cand):
                continue
            extend(seq + [tuple(cand)])

    extend([(x,)])
    return results


# -- induced-cycle search (independent of the library's subset scan) -----------------


def find_induced_cycle(c, center, lengths=(4, 5)):
    """First induced cycle of one of the given lengths in a vertex link."""
    link = sorted(c.neighbors(center))
    for size in lengths:
        for subset in combinations(link, size):
            edges = {(u, v) for u, v in combinations(subset, 2) if c.adjacent(u, v)}
            if len(edges) != size:
                continue
            # try to order the subset into a single closed walk
            adj = {u: [v for v in subset if (min(u, v), max(u, v)) in
                       {(min(a, b), max(a, b)) for a, b in edges}] for u in subset}
            if any(len(a) != 2 for a in adj.values()):
                continue
            walk = [subset[0]]
            prev = None
            while len(walk) < size:
                nxt = [u for u in adj[walk[-1]] if u != prev]
                prev = walk[-1]
                walk.append(nxt[0])
            if walk[0] in adj[walk[-1]]:
                return tuple(walk)
    return None


# -- Q[sqrt(3)] plane geometry ----------------------------------------------------------
#
# The former syslab.exact point class (renamed ExactPoint) and its predicates,
# and the former cat0._line_crossing, kept verbatim as oracles.

HALF = ExactScalar(1, 0, 2)


class ExactPoint:
    """A point (or vector) of the plane with ExactScalar coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = _require(x)
        self.y = _require(y)

    def __add__(self, other):
        return ExactPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return ExactPoint(self.x - other.x, self.y - other.y)

    def scale(self, factor):
        return ExactPoint(self.x * factor, self.y * factor)

    def __eq__(self, other):
        return isinstance(other, ExactPoint) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __iter__(self):
        return iter((self.x, self.y))

    def to_floats(self):
        return float(self.x), float(self.y)

    def __repr__(self):
        return f"P({self.x!r}, {self.y!r})"


def cross(u: ExactPoint, v: ExactPoint) -> ExactScalar:
    return u.x * v.y - u.y * v.x


def dot(u: ExactPoint, v: ExactPoint) -> ExactScalar:
    return u.x * v.x + u.y * v.y


def orient(o: ExactPoint, a: ExactPoint, b: ExactPoint) -> int:
    """Sign of the turn o->a->b: +1 left, -1 right, 0 collinear. Exact."""
    return cross(a - o, b - o).sign()


def dist_sq(a: ExactPoint, b: ExactPoint) -> ExactScalar:
    d = b - a
    return dot(d, d)


def midpoint(a: ExactPoint, b: ExactPoint) -> ExactPoint:
    return ExactPoint((a.x + b.x) * HALF, (a.y + b.y) * HALF)


def lerp(a: ExactPoint, b: ExactPoint, t) -> ExactPoint:
    """a + t*(b - a) with t rational or ExactScalar."""
    t = _require(t)
    return ExactPoint(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)


def on_segment(p: ExactPoint, a: ExactPoint, b: ExactPoint) -> bool:
    """Whether p lies on the closed segment [a, b]. Exact."""
    if orient(a, b, p) != 0:
        return False
    d = b - a
    t = dot(p - a, d)
    return t.sign() >= 0 and (t - dot(d, d)).sign() <= 0


def _line_crossing(alpha: PolyPath, pv: ExactPoint, pw: ExactPoint, i: int) -> ExactPoint:
    """The unique point where alpha crosses the line through pv and pw."""
    direction = pw - pv
    sides = [cross(direction, p - pv).sign() for p in alpha.points]
    hits: List[ExactPoint] = []
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
    uniq: List[ExactPoint] = []
    for h in hits:
        if not any(h == u for u in uniq):
            uniq.append(h)
    if len(uniq) != 1:
        raise NoCrossing(f"path crosses layer {i} line {len(uniq)} times")
    return uniq[0]


def exact_point(p, q=None) -> ExactPoint:
    """The Q[sqrt(3)] point of doubled axial coordinates (p, q), given as a
    syslab.exact.PlanePoint or as two rationals: ((2p + q)/4, q*sqrt(3)/4)."""
    if q is None:
        p, q = p.p, p.q
    return ExactPoint(ExactScalar(Fraction(2 * p + q, 4)), ExactScalar(0, Fraction(q, 4)))


def portal_crossing_mismatches(m, alpha):
    """Inner portals of the modified disk m, of positive length, where the
    segment that ``cat0.shortest_path`` recorded meets the portal's line
    elsewhere than the whole path does (``_line_crossing`` both times), as
    (portal index, segment point, path point); empty when all agree."""
    path = PolyPath(tuple(exact_point(p) for p in alpha.points))
    bad = []
    for i, a in enumerate(alpha.crossings, start=1):
        v, w = m.v_prime[i], m.w_prime[i]
        if v == w:
            continue
        pv, pw = exact_point(v), exact_point(w)
        segment = PolyPath(path.points[a:a + 2])
        try:
            found = _line_crossing(segment, pv, pw, i)
        except NoCrossing:
            found = None
        expected = _line_crossing(path, pv, pw, i)
        if found != expected:
            bad.append((i, found, expected))
    return bad


def crossing_mismatches(disk, alpha):
    """Inner layers i of the disk where the crossing that ``cat0`` reads off
    the funnel's recorded segment differs from ``_line_crossing`` over the
    whole path, as (i, library point, oracle point); empty when all agree."""
    path = PolyPath(tuple(exact_point(p) for p in alpha.points))
    j, k = disk.interval.j, disk.interval.k
    bad = []
    for i, a in zip(range(j + 1, k), alpha.crossings):
        v, w = disk.layer_segment(i)
        _, step = cat0._layer_step(v, w, i)
        u = Fraction(*cat0._crossing_arc(alpha, a, v, step, i))
        library = exact_point(2 * v[0] + 2 * u * step[0], 2 * v[1] + 2 * u * step[1])
        oracle = _line_crossing(path, exact_point(eplane.embed(v)),
                                exact_point(eplane.embed(w)), i)
        if library != oracle:
            bad.append((i, library, oracle))
    if len(alpha.crossings) != k - j - 1:
        bad.append(("count", len(alpha.crossings), k - j - 1))
    return bad


# -- float shortest-path oracle --------------------------------------------------------


def _poly_floats(polygon):
    return [p.to_floats() for p in polygon]


def _inside_float(poly, x, y, eps=1e-9):
    # boundary counts as inside
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if abs(cross) < eps * 10:
            if min(x1, x2) - eps <= x <= max(x1, x2) + eps and \
               min(y1, y2) - eps <= y <= max(y1, y2) + eps:
                return True
    crossings = 0
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if xi > x:
                crossings += 1
    return crossings % 2 == 1


def _visible_float(poly, a, b, samples=33, eps=1e-7):
    for i in range(1, samples):
        t = i / samples
        x = a[0] + t * (b[0] - a[0])
        y = a[1] + t * (b[1] - a[1])
        if not _inside_float(poly, x, y, eps=eps):
            return False
    return True


def grid_dijkstra_path_length(polygon, start, goal, pitch=0.02):
    """Float Dijkstra over polygon corners plus a dense interior grid.

    Corner-to-corner edges use sampled visibility, so the optimum through
    reflex corners is reachable; the grid supplies an independent mesh of
    fallback routes. Entirely float-based.
    """
    poly = _poly_floats(polygon)
    s = start.to_floats()
    g = goal.to_floats()
    corners = [s, g] + [p for p in poly if p != s and p != g]

    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    grid = []
    nx = int((max(xs) - min(xs)) / pitch) + 1
    ny = int((max(ys) - min(ys)) / pitch) + 1
    index = {}
    for i in range(nx + 1):
        for j in range(ny + 1):
            x = min(xs) + i * pitch
            y = min(ys) + j * pitch
            if _inside_float(poly, x, y):
                index[(i, j)] = len(corners) + len(grid)
                grid.append((x, y))

    nodes = corners + grid
    edges = {i: [] for i in range(len(nodes))}

    def connect(i, j):
        d = math.hypot(nodes[i][0] - nodes[j][0], nodes[i][1] - nodes[j][1])
        edges[i].append((j, d))
        edges[j].append((i, d))

    for i in range(len(corners)):
        for j in range(i + 1, len(corners)):
            if _visible_float(poly, nodes[i], nodes[j]):
                connect(i, j)
    for (gi, gj), node in index.items():
        for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
            other = index.get((gi + di, gj + dj))
            if other is not None:
                connect(node, other)
    for i in range(len(corners)):
        cx, cy = nodes[i]
        gi = round((cx - min(xs)) / pitch)
        gj = round((cy - min(ys)) / pitch)
        for di in range(-2, 3):
            for dj in range(-2, 3):
                other = index.get((gi + di, gj + dj))
                if other is not None and _visible_float(poly, nodes[i], nodes[other]):
                    connect(i, other)

    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        dv, v = heapq.heappop(heap)
        if v == 1:
            return dv
        if dv > dist.get(v, math.inf):
            continue
        for u, w in edges[v]:
            nd = dv + w
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return None


# -- visibility-graph shortest-path oracle -------------------------------------------
#
# The former library implementation, kept as the oracle for the portal funnel.
# Unlike the float oracles above it is exact: visibility is decided with the
# Q[sqrt(3)] predicates over the whole polygon, and Dijkstra compares float
# lengths at VISIBILITY_TOLERANCE.

VISIBILITY_TOLERANCE = 1e-9


def _on_boundary(m, p):
    poly = m.polygon
    return any(on_segment(p, poly[i], poly[(i + 1) % len(poly)])
               for i in range(len(poly)))


def _inside_or_on(m, p):
    if _on_boundary(m, p):
        return True
    if m.degenerate:
        return False
    poly = m.polygon
    crossings = 0
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        ay, by = a.y - p.y, b.y - p.y
        if (ay.sign() > 0) == (by.sign() > 0):
            continue
        # x coordinate of the crossing with the horizontal through p,
        # compared without division: sign of (x_int - p.x) * (b.y - a.y)^2
        dy = b.y - a.y
        xi_num = a.x * dy + (p.y - a.y) * (b.x - a.x) - p.x * dy
        if (xi_num * dy).sign() > 0:
            crossings += 1
    return crossings % 2 == 1


def _segment_inside(m, p, q):
    """Whether the closed segment pq stays inside the closed domain. Exact."""
    if p == q:
        return _inside_or_on(m, p)
    poly = m.polygon
    npoly = len(poly)
    for i in range(npoly):
        a, b = poly[i], poly[(i + 1) % npoly]
        o1, o2 = orient(p, q, a), orient(p, q, b)
        o3, o4 = orient(a, b, p), orient(a, b, q)
        if o1 * o2 < 0 and o3 * o4 < 0:
            return False  # proper crossing
    # collect split points: polygon vertices on pq and pq endpoints on edges
    d = q - p
    params = {ExactScalar(0), dot(d, d)}
    for i in range(npoly):
        a = poly[i]
        if on_segment(a, p, q):
            params.add(dot(a - p, d))
        b = poly[(i + 1) % npoly]
        inter = _proper_line_hit(p, q, a, b)
        if inter is not None:
            params.add(dot(inter - p, d))
    ordered = sorted(params)
    for t0, t1 in zip(ordered, ordered[1:]):
        tm = (t0 + t1) / (dot(d, d) * 2)
        mid = lerp(p, q, tm)
        if not _inside_or_on(m, mid):
            return False
    return True


def _proper_line_hit(p, q, a, b):
    """Intersection point of segment pq with segment ab when they touch."""
    d1 = q - p
    d2 = b - a
    denom = cross(d1, d2)
    if denom.is_zero():
        return None
    s = cross(a - p, d2) / denom
    t = cross(a - p, d1) / denom
    if s.sign() < 0 or (s - 1).sign() > 0 or t.sign() < 0 or (t - 1).sign() > 0:
        return None
    return lerp(p, q, s)


def visibility_shortest_path(m):
    """Shortest path from m.start to m.goal in the polygon of a modified disk.

    Dijkstra over the visibility graph on the polygon corners plus the two
    endpoints, in Q[sqrt(3)] coordinates; returns a cat0.PolyPath of the
    disk's own points. A degenerate domain is read off the segment exactly
    as the library did.
    """
    library = {exact_point(p): p for p in m.polygon + (m.start, m.goal)}
    exact_m = replace(m, polygon=tuple(exact_point(p) for p in m.polygon),
                      start=exact_point(m.start), goal=exact_point(m.goal))
    path = _exact_visibility_path(exact_m)
    return PolyPath(tuple(library[p] for p in path.points))


def _exact_visibility_path(m):
    start, goal = m.start, m.goal
    if m.degenerate:
        d = goal - start
        for p in m.polygon:
            t = dot(p - start, d)
            if t.sign() < 0 or (t - dot(d, d)).sign() > 0:
                raise DegenerateDomain(
                    "domain collapsed to a segment extending beyond the endpoints")
        return PolyPath((start, goal))
    if _segment_inside(m, start, goal):
        return PolyPath((start, goal))
    nodes = [start, goal] + [p for p in m.polygon if p not in (start, goal)]
    edges = {i: [] for i in range(len(nodes))}
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if _segment_inside(m, nodes[i], nodes[j]):
                wlen = math.sqrt(float(dist_sq(nodes[i], nodes[j])))
                edges[i].append((j, wlen))
                edges[j].append((i, wlen))
    dist = {0: 0.0}
    prev = {}
    heap = [(0.0, 0)]
    while heap:
        dv, v = heapq.heappop(heap)
        if v == 1:
            break
        if dv > dist.get(v, math.inf) + VISIBILITY_TOLERANCE:
            continue
        for u, w in edges[v]:
            nd = dv + w
            if nd < dist.get(u, math.inf) - VISIBILITY_TOLERANCE:
                dist[u] = nd
                prev[u] = v
                heapq.heappush(heap, (nd, u))
    if 1 not in dist:
        raise ValueError("endpoints are not connected inside the domain")
    path = [1]
    while path[-1] != 0:
        path.append(prev[path[-1]])
    return PolyPath(tuple(nodes[i] for i in reversed(path)))


def dense_is_convex(c, vertices, radius_cap):
    """The dense |A| x |A| x |V| convexity test that the streamed kernel
    (``streamed_is_convex``) replaced; kept verbatim as its oracle."""
    A = sorted(set(vertices))
    if len(A) <= 1:
        return True
    order, pos = c._vertex_index()
    mat = c.distance_matrix()
    idx = np.array([pos[v] for v in A])
    sub = mat[np.ix_(idx, idx)]
    if sub.max() > radius_cap:
        raise PreconditionViolated(
            f"pairs exceed radius_cap={radius_cap} (max {int(sub.max())})")
    inside = np.zeros(len(order), dtype=bool)
    inside[idx] = True
    # v lies on a geodesic a->b iff d(a,v) + d(v,b) == d(a,b)
    da = mat[idx]                                     # |A| x V
    through = da[:, None, :] + da[None, :, :]         # |A| x |A| x V
    on_geo = (through == sub[:, :, None]).any(axis=(0, 1))
    return not bool((on_geo & ~inside).any())


def streamed_is_convex(c, vertices, radius_cap):
    """The streamed |A| x |V| convexity test that ``complexes.is_convex``
    replaced with the local criterion; kept verbatim as its oracle."""
    A = sorted(set(vertices))
    if len(A) <= 1:
        return True
    order, pos = c._vertex_index()
    mat = c.distance_matrix()
    idx = np.array([pos[v] for v in A])
    sub = mat[np.ix_(idx, idx)]
    if sub.max() > radius_cap:
        raise PreconditionViolated(
            f"pairs exceed radius_cap={radius_cap} (max {int(sub.max())})")
    outside = np.ones(len(order), dtype=bool)
    outside[idx] = False
    da = mat[np.ix_(idx, outside)]                    # |A| x |V - A|
    # v lies on a geodesic a->b iff d(a,v) + d(v,b) == d(a,b); one source a
    # at a time keeps memory at |A| x |V|
    for row, to_targets in zip(da, sub):
        if ((row[None, :] + da) == to_targets[:, None]).any():
            return False
    return True


def uncached_goodness_constant(c, geodesic):
    """The one-construction-per-sub-pair loop that ``euclid.goodness_constant``
    replaced with a translation memo on plane windows; kept verbatim as its
    oracle."""
    verts = tuple(geodesic)
    best = 0
    witness = None
    pairs = 0
    for j in range(len(verts)):
        for k in range(j + 1, len(verts)):
            pairs += 1
            sub = euclidean_geodesic(c, verts[j], verts[k], check_reversal=False)
            for i in range(j, k + 1):
                for u in sub[i - j]:
                    d = c.true_distance(verts[i], u)
                    if d > best:
                        best = d
                        witness = (j, k, i, u, d)
    return GoodnessReport(verts, best, witness, pairs)


def two_bfs_interval_levels(c, x, y):
    """The former non-plane ``FlagComplex.interval_levels``: ``true_distance``,
    then one BFS from y, then the walk out from x along edges that step one
    closer to y."""
    n = c.true_distance(x, y)
    to_y = c.bfs_distances(y, budget=n)
    level = frozenset([x])
    levels = [level]
    for d in range(n - 1, -1, -1):
        level = frozenset(u for v in level for u in c.neighbors(v) if to_y.get(u) == d)
        levels.append(level)
    return tuple(levels)


def bounded_check_isometric(c, region, coords):
    """The former ``chardisk._check_isometric``: one BFS per vertex out to
    the farthest lattice distance of its later partners, run to the end."""
    verts = sorted(region)
    for i, a in enumerate(verts[:-1]):
        later = verts[i + 1:]
        want = [eplane.lattice_distance(coords[a], coords[b]) for b in later]
        dist = c.bfs_distances(a, budget=max(want))
        for b, d in zip(later, want):
            if dist.get(b) != d:
                raise NotFlat(f"development is not isometric on pair ({a}, {b})")


def pairwise_check_isometric(c, region, coords):
    """The former ``chardisk._check_isometric``: one ``true_distance`` per pair."""
    verts = sorted(region)
    for a, b in combinations(verts, 2):
        if eplane.lattice_distance(coords[a], coords[b]) != c.true_distance(a, b):
            raise NotFlat(f"development is not isometric on pair ({a}, {b})")


def sample_safe_pair(c, rng, max_distance: int, predicate=None, max_tries: int = 5000):
    """The former ``runner._sample_safe_pair``: it sorts the margin-1 sample
    space on every call and runs ``require_pair_safe`` on every draw."""
    verts = sorted(v for v in c.vertices()
                   if c.is_complete or c.margin(v) >= 1)
    for _ in range(max_tries):
        x = verts[rng.randrange(len(verts))]
        y = verts[rng.randrange(len(verts))]
        if x == y:
            continue
        if predicate is not None and not (predicate(x) and predicate(y)):
            continue
        try:
            d = require_pair_safe(c, x, y)
        except BoundaryUnsafe:
            continue
        if 1 <= d <= max_distance:
            return x, y, d
    raise TaskFailed("could not sample a margin-safe pair")


def window_adjacency(center, neighbors_fn, radius):
    """The former adjacency of ``complexes.materialize_window``: one BFS to
    the radius, then every vertex's neighbours asked for again and filtered."""
    depth = {center: 0}
    queue = deque([center])
    while queue:
        v = queue.popleft()
        if depth[v] == radius:
            continue
        for u in neighbors_fn(v):
            if u not in depth:
                depth[u] = depth[v] + 1
                queue.append(u)
    return {v: [u for u in neighbors_fn(v) if u in depth] for v in depth}


# -- area-based plane forms ---------------------------------------------------------
#
# The former plane branch of FlagComplex.interval_levels, the former margin
# scan of syslab.directed and the former area-based flat disk of
# syslab.chardisk, which the plane pipeline replaced by distance predicates,
# a check on the interval's corners and a certificate on the disk boundary.


def interval_box(x, y):
    """All lattice vertices on geodesics from x to y (closed form), the
    former ``eplane.interval_box``.

    For a same-sign difference (p, q) the interval is the full staircase box
    {x + (s, t)}; in the mixed-sign regime it is a parallelogram swept along
    the dominant direction.
    """
    p = y[0] - x[0]
    q = y[1] - x[1]
    if p < 0 or (p == 0 and q < 0):
        yield from interval_box(y, x)
        return
    if q >= 0:
        for s in range(p + 1):
            for t in range(q + 1):
                yield (x[0] + s, x[1] + t)
        return
    q = -q  # difference is (p, -q) with p, q > 0
    if p >= q:
        for s in range(p - q + 1):
            for t in range(q + 1):
                yield (x[0] + s + t, x[1] - t)
    else:
        for s in range(q - p + 1):
            for t in range(p + 1):
                yield (x[0] + t, x[1] - s - t)


def box_interval_levels(c, x, y):
    """The former plane branch of ``FlagComplex.interval_levels``: the closed-form
    interval box, split by ``lattice_distance`` from x, members of c only, as
    c's own vertex objects."""
    levels = [set() for _ in range(eplane.lattice_distance(x, y) + 1)]
    for v in interval_box(x, y):
        if v in c:
            levels[eplane.lattice_distance(x, v)].add(c.vertex(v))
    return tuple(map(frozenset, levels))


def scan_safe_levels(c, x, y):
    """The former ``directed._safe_levels``: every level of the interval is
    scanned for a vertex of margin below 1 (box levels on plane-backed
    complexes, ``interval_levels`` elsewhere)."""
    if x not in c or y not in c:
        raise PreconditionViolated(f"vertex not in complex: {x if x not in c else y}")
    if not c.trusts_metric:
        raise BoundaryUnsafe(
            "window metric is not trusted; materialize a convex window instead")
    levels = box_interval_levels(c, x, y) if c.plane_backed else c.interval_levels(x, y)
    if not c.is_complete:
        for level in levels:
            unsafe = [v for v in level if c.margin(v) < 1]
            if unsafe:
                raise BoundaryUnsafe(
                    f"interval vertex {min(unsafe)} touches the window boundary "
                    f"(pair {x}, {y})")
    return levels


def scan_require_pair_safe(c, x, y):
    """The former ``directed.require_pair_safe``."""
    return len(scan_safe_levels(c, x, y)) - 1


def area_interval(c, x, y):
    """The former ``complexes.interval``: the union of the levels, box levels on
    plane windows."""
    complexes._require_members(c, x, y)
    levels = box_interval_levels(c, x, y) if c.plane_backed else c.interval_levels(x, y)
    complexes._certify(c, x, y, len(levels) - 1)
    return frozenset().union(*levels)


def area_extract_flat_disk(c, cycle):
    """The former ``chardisk.extract_flat_disk``: the region as the union of the
    layer intervals, the hexagon test on every interior vertex, the
    development and, off the plane, its isometry check, the layer geometry,
    and the Euler count of the region's triangles."""
    if len(cycle) < 6:
        raise PreconditionViolated(
            f"boundary cycle of a thick interval has at least 6 vertices, got {len(cycle)}")
    region = set()
    for s, t in zip(cycle.s, cycle.t):
        region |= area_interval(c, s, t)
    boundary = set(cycle.cycle)
    interior = region - boundary
    for v in sorted(interior):
        if not chardisk._is_hexagon(c, c.neighbors(v) & region):
            raise NotFlat(f"interior vertex {v} is not surrounded by 6 triangles")
    coords = chardisk._develop(c, cycle, region)
    if not c.plane_backed:
        chardisk._check_isometric(c, region, coords)
    v_labels = tuple(coords[s] for s in cycle.s)
    w_labels = tuple(coords[t] for t in cycle.t)
    chardisk._check_layer_geometry(v_labels, w_labels)
    triangles = chardisk._triangle_count(c, region, interior)
    interior_count = len(interior)
    boundary_count = len(region) - interior_count
    if triangles != 2 * interior_count + boundary_count - 2:
        raise NotFlat("triangle count does not match a disk Euler characteristic")
    surface = {coords[v]: v for v in region}
    return chardisk.CharDisk(cycle.interval, frozenset(region), coords,
                             v_labels, w_labels, surface, triangles)


# -- certificate kernels ------------------------------------------------------------
#
# The former pair-loop and Fraction kernels of syslab.complexes,
# syslab.directed, syslab.chardisk and syslab.cat0, kept verbatim except that
# verify_conditions calls the kernels here (pairwise_is_clique, residue,
# ball_of_simplex, a set-intersection disjointness test) instead of the
# frozenset ones that replaced them.


def pairwise_is_clique(c, vertices):
    """The former ``FlagComplex.is_clique``: one adjacency test per pair."""
    vs = list(vertices)
    return all(c.adjacent(u, v) for u, v in combinations(vs, 2))


def residue(c, s):
    """The former ``complexes.residue``."""
    c.validate_simplex(s)
    common = None
    for v in s:
        nbrs = c.neighbors(v)
        common = nbrs if common is None else common & nbrs
    return frozenset(s.verts) | (common or frozenset())


def ball_of_simplex(c, s):
    """The former ``complexes.ball_of_simplex``."""
    out = set(s.verts)
    for v in s:
        out |= c.neighbors(v)
    return frozenset(out)


def verify_conditions(c, geo):
    """The former ``directed._verify_conditions``: disjointness, then the
    span, per consecutive pair, then residue meet ball per interior index."""
    sims = geo.simplices
    for i in range(len(sims) - 1):
        a, b = sims[i], sims[i + 1]
        if set(a.verts) & set(b.verts):
            raise ConditionViolated(f"simplices {a} and {b} are not disjoint")
        if not pairwise_is_clique(c, a.verts + b.verts):
            raise ConditionViolated(f"simplices {a} and {b} do not span a simplex")
    for i in range(1, len(sims) - 1):
        res = residue(c, sims[i - 1])
        ball = ball_of_simplex(c, sims[i + 1])
        if res & ball != frozenset(sims[i].verts):
            raise ConditionViolated(
                f"residue/ball condition fails at index {i} "
                f"between {geo.source} and {geo.target}")


def is_region_hexagon(c, inside):
    """The former flat test of ``chardisk.extract_flat_disk`` for the sorted
    region neighbours of a vertex (it also required six of them): every one
    has two neighbours among them, and they are connected."""
    deg = {u: sum(1 for w in inside if w != u and c.adjacent(u, w)) for u in inside}
    return all(d == 2 for d in deg.values()) and _connected(c, inside)


def _connected(c, verts):
    verts = set(verts)
    seen = {next(iter(verts))}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for u in c.neighbors(v):
            if u in verts and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen == verts


def flat_at(c, v, region):
    """Whether the former flat test accepts vertex v of the region."""
    inside = sorted(u for u in c.neighbors(v) if u in region)
    return len(inside) == 6 and is_region_hexagon(c, inside)


def pairwise_triangle_count(c, region):
    """The former triangle count of ``chardisk.extract_flat_disk``."""
    return sum(1 for tri in _region_triangles(c, region))


def _region_triangles(c, region):
    for v in region:
        for u, w in combinations(sorted(x for x in c.neighbors(v) if x in region and x > v), 2):
            if c.adjacent(u, w):
                yield (v, u, w)


def crossing_arc(alpha, a, v, step, i):
    """The former ``cat0._crossing_arc``: the arc position as a Fraction."""
    A, B = alpha.points[a], alpha.points[a + 1]
    A = (A.p - 2 * v[0], A.q - 2 * v[1])
    B = (B.p - 2 * v[0], B.q - 2 * v[1])
    side_a, side_b = exact_cross(step, A), exact_cross(step, B)
    if side_a == side_b or side_a * side_b > 0:
        raise NoCrossing(f"path segment {a} does not cross the layer {i} line")
    return Fraction(exact_cross(A, B), 2 * (side_b - side_a))


def nearest_simplex_on_segment(u, segment_length: int):
    """The former ``cat0.nearest_simplex_on_segment`` on a Fraction u."""
    double = 2 * Fraction(u)
    if double.denominator == 1 and double.numerator % 2:
        lo = (double.numerator - 1) // 2
        return (lo, lo + 1)
    nearest = math.floor((double + 1) / 2)
    return (min(max(nearest, 0), segment_length),)


def fraction_diagonal(disk, alpha):
    """The simplex vertex tuples the former ``cat0.euclidean_diagonal``
    chose per inner layer, with its Fraction range test and rule, before
    its span check."""
    j, k = disk.interval.j, disk.interval.k
    if len(alpha.crossings) != k - j - 1:
        raise NoCrossing(f"path records {len(alpha.crossings)} layer crossings "
                         f"for {k - j - 1} inner layers")
    sims = []
    for i, a in zip(range(j + 1, k), alpha.crossings):
        v, w = disk.layer_segment(i)
        t, step = cat0._layer_step(v, w, i)
        u = crossing_arc(alpha, a, v, step, i)
        if u < 0 or u > t:
            raise NoCrossing(f"crossing with layer {i} lies outside its segment")
        best = nearest_simplex_on_segment(u, t)
        sims.append(tuple(sorted((v[0] + step[0] * m, v[1] + step[1] * m) for m in best)))
    return sims


# -- minimality oracle (formerly syslab.chardisk) -----------------------------


class MinDiskTimeout(SyslabError):
    """Exhaustive disk-filling search ran out of its triangle budget."""


class NoFilling(SyslabError):
    """No simplicial disk fills the cycle; the input is not null-homotopic here."""


def brute_force_min_disk(c, cycle, max_triangles: int) -> int:
    """Exhaustive minimal number of triangles filling the cycle.

    Enumerates reduced disk fillings by clipping one triangle per step off
    the first boundary edge; spur backtracks collapse for free. Intended
    for |cycle| <= 8 and small budgets only.
    """
    cyc = tuple(cycle)
    if len(cyc) > 8:
        raise PreconditionViolated("oracle limited to cycles of length <= 8")
    if max_triangles > 12:
        raise PreconditionViolated("oracle limited to max_triangles <= 12")
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if not c.adjacent(a, b):
            raise PreconditionViolated(f"cycle vertices {a}, {b} not adjacent")
    state = {"budget_hit": False}
    memo: dict = {}

    def fill(walk, budget):
        walk = _despur(walk)
        m = len(walk)
        if m == 0:
            return 0
        if m == 3:
            return 1 if budget >= 1 else _budget_miss(state)
        if budget < max(1, m - 2):
            return _budget_miss(state)
        key = (_canon(walk), budget)
        if key in memo:
            return memo[key]
        memo[key] = None  # cycle guard
        best = None
        a, b = walk[0], walk[1]
        rest = walk[1:]
        for w in sorted(c.neighbors(a) & c.neighbors(b)):
            if w == a or w == b:
                continue
            sub = fill((w,) + rest + (a,), budget - 1)
            if sub is not None:
                total = sub + 1
                if best is None or total < best:
                    best = total
        memo[key] = best
        return best

    result = fill(cyc, max_triangles)
    if result is None:
        if state["budget_hit"]:
            raise MinDiskTimeout(
                f"no filling with at most {max_triangles} triangles found")
        raise NoFilling("cycle bounds no disk in this complex")
    return result


def _budget_miss(state):
    state["budget_hit"] = True
    return None


def _despur(walk):
    walk = list(walk)
    changed = True
    while changed and len(walk) > 2:
        changed = False
        m = len(walk)
        for i in range(m):
            if walk[(i - 1) % m] == walk[(i + 1) % m]:
                hi, lo = max(i, (i + 1) % m), min(i, (i + 1) % m)
                del walk[hi]
                del walk[lo]
                changed = True
                break
    if len(walk) == 2:
        return ()
    return tuple(walk)


def _canon(walk):
    m = len(walk)
    variants = []
    for seq in (walk, tuple(reversed(walk))):
        for r in range(m):
            variants.append(seq[r:] + seq[:r])
    return min(variants)
