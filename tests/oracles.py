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
with the library and measures with ``true_distance``, because it checks
the translation memo and the inlined lattice distances of
``euclid.goodness_constant`` against one construction per sub-pair; off
the plane the tests run it on the uncached bodies below, in a scope of
its own per sub-pair, to check the per-call caches.
``recursive_select_vertex_geodesic`` (with ``recursive_thread``) is the
library's former selection, whose search recursed once per layer, because
it checks that the explicit-stack search which replaced it picks the same
vertices.
``early_exit_bfs`` is the library's former search, which stopped as soon
as the vertices it was asked for were discovered; ``early_exit_distance``,
``early_exit_interval_levels`` and ``early_exit_check_isometric`` are the
former ``true_distance``, ``interval_levels`` and disk isometry check on
it, because they check the resumable search rows that replaced it.
``two_bfs_interval_levels`` and ``pairwise_check_isometric`` are the
library's former interval walk and its first disk isometry check, kept on
the complex's own ``true_distance`` and ``bfs_distances``, because they check
that the searches which replaced them give the same levels and name the
same failing pair. ``sample_safe_pair`` is the runner's former pair
sampler, run with the library's ``require_pair_safe``, because it checks
that the sampler which replaced it makes the same draws and decisions.
``window_adjacency`` is the former window cut of
``complexes.materialize_window``. ``interval_box`` (the closed-form
interval of two lattice vertices) and ``brute_force_min_disk`` (an
exhaustive search for the least number of triangles filling a short cycle)
were library functions that only tests called. ``corner_geodesic`` is the
library's former corner walk, with its own sign case split, because it
checks the walk that now reads the interval box. ``box_interval_levels``,
``scan_safe_levels`` (with ``scan_require_pair_safe`` and ``area_interval``)
and ``area_extract_flat_disk`` are the library's former area-bound plane
forms: the interval box split into levels, the margin scan over every level,
and the flat disk built from its whole region. They run on the complex's own
margins and on the library's hexagon, development and triangle-count
kernels, because they check that the plane's distance predicates and
corner margin check give the same levels and refusals, and that the flat
disk, which takes the area path on the plane too, gives the same disks.
``chain_diagonal`` is the former plane path of a thick interval, the
library's whole stage chain from boundary cycle to characteristic map,
because it checks the straight segment that replaced it on the plane.
``layered_euclidean_geodesic`` is the former plane construction that the
one-pass lattice construction of ``euclid`` replaced, kept verbatim with
the pieces it ran: the closed-form directed geodesics on the window's own
vertices with their neighbour-set certificate (``closed_form``,
``certify_chain``, also the oracle of the lattice certificate
``directed._check_chain``), ``directed.layers`` (``layered_layers``), the
profile walk (``layered_thick_intervals``), ``euclid._assemble``
(``layered_assemble``, whose layer membership, the former
``Layers.holds``, is now the lattice predicate ``in_plane_layer``) and the
former ``cat0.straight_diagonal`` on the ``Layers``
(``layered_straight_diagonal``, with its ``Simplex`` span check
``simplex_verify_diagonal`` on its lattice clique test
``lenient_lattice_clique``), also the oracle of ``cat0._straight_segment``
fed the layers' ``recorded_segments``.
It runs on the library's unchanged kernels (``eplane.directed_simplices``,
``directed._check_spans``, ``directed._thickness``,
``cat0._line_crossing``), because it checks that the pass gives the same
simplices, provenance, layers and refusals.
``area_extract_flat_disk`` returns an ``AreaDisk``, the library's
former seven-field disk, whose membership is its surface dict, because it
checks the layer-segment reads of ``chardisk.CharDisk``. The certificate
kernels at the end (``verify_conditions``, ``flat_at``,
``pairwise_triangle_count``, ``fraction_diagonal``, ``layer_step`` and the
pieces they call) are the library's former
pair-loop and ``Fraction`` certificates, run on the complex's own adjacency
and on the library's disks, because they check that the frozenset and
integer kernels which replaced them accept and reject the same inputs.
The scenario arithmetic at the end holds the library's former generic
forms: ``apply_displacement`` (the image, then the lattice metric),
``power_invariant_geodesic`` (each period read through ``h.power(q)``) and
``fraction_verify_contracting`` (every inequality and slack a
``Fraction``), because they check the integer closed forms that replaced
them. ``recursive_boundary_cycle`` (with ``recursive_extend_chain``) is
the former boundary cycle, whose chain search recursed once per layer,
because it checks that the explicit-stack search which replaced it picks
the same realizing pairs. ``scan_displacement_set`` (with
``three_scan_displacement_sets``, the displacement study's former three
calls) is the former one-scan-per-K displacement set, and
``simplex_check_min_proximity`` the former min-set proximity check on
``euclidean_geodesic``'s ``Simplex`` sequence, because they check the
one-scan ``isodyn.displacement_sets`` and the plane read of
``euclid._plane_simplices``' lattice tuples that replaced them.
``uncached_project``, ``uncached_verify_conditions`` and
``uncached_extract_flat_disk`` (with ``scan_develop``, whose injectivity
test scans every placed point) are the former ``directed._project``,
``_verify_conditions``, ``chardisk.extract_flat_disk`` and ``_develop``,
which computed every simplex's common neighbours and closed ball and every
cycle's development on each use, because they check the per-scope link,
ball and disk caches of ``complexes._SharedRows`` and the placed-point
set of the development that replaced them. The closed ball is the former
``ball_of_simplex`` above, so no cache is read.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

import numpy as np

from syslab import cat0, chardisk, complexes, directed, eplane, isodyn
from syslab.cat0 import PolyPath
from syslab.complexes import Simplex
from syslab.directed import (DirectedGeodesic, Layer, Layers, ThickInterval,
                             require_pair_safe)
from syslab.errors import (BoundaryUnsafe, ConditionViolated, ConstructionFailed,
                           DegenerateDomain, MalformedProfile, NoCrossing, NoRealizingChain, NoSelection,
                           NotFlat, NotTranslationLike, PreconditionViolated,
                           SyslabError, TaskFailed, Unreachable)
from syslab.euclid import (EuclideanGeodesic, GoodnessConstants, GoodnessReport,
                           euclidean_geodesic)
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
        _, step = layer_step(v, w, i)
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
    (``streamed_is_convex``) replaced; kept as its oracle, with the same
    broadcast formula evaluated over blocks of 16 sources, so the tensor is
    at most 16 x |A| x |V|."""
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
    on_geo = np.zeros(len(order), dtype=bool)
    for lo in range(0, len(A), 16):
        through = da[lo:lo + 16, None, :] + da[None, :, :]   # 16 x |A| x V
        on_geo |= (through == sub[lo:lo + 16, :, None]).any(axis=(0, 1))
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


def early_exit_bfs(c, source, budget=None, until=()):
    """The former ``complexes._bfs``: distances from source, no vertex at
    distance ``budget`` or more expanded, stopping once every vertex of
    ``until`` is discovered."""
    pending = set(until)
    pending.discard(source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        if budget is not None and dv >= budget:
            continue
        for u in c.neighbors(v):
            if u not in dist:
                dist[u] = dv + 1
                if pending and u in pending:
                    pending.discard(u)
                    if not pending:
                        return dist
                queue.append(u)
    return dist


def early_exit_distance(c, x, y, budget=None):
    """The former ``FlagComplex.true_distance`` of a complex without a
    closed-form metric: one early-exit search per call."""
    dist = early_exit_bfs(c, x, budget, (y,))
    if y in dist:
        return dist[y]
    raise Unreachable(f"no path {x} -> {y}"
                      + (f" within budget {budget}" if budget is not None else ""))


def early_exit_interval_levels(c, x, y):
    """The former ``FlagComplex.interval_levels``: one early-exit search
    from x, then the walk back from y along edges one step closer to x."""
    if x == y:
        return (frozenset([x]),)
    from_x = early_exit_bfs(c, x, None, (y,))
    if y not in from_x:
        raise Unreachable(f"no path {x} -> {y}")
    level = frozenset([y])
    levels = [level]
    for d in range(from_x[y] - 1, -1, -1):
        level = frozenset(u for v in level for u in c.neighbors(v) if from_x.get(u) == d)
        levels.append(level)
    return tuple(levels[::-1])


def early_exit_check_isometric(c, region, coords):
    """The former ``chardisk._check_isometric``: one early-exit search per
    vertex, stopping once its later partners are discovered."""
    verts = sorted(region)
    for i, a in enumerate(verts[:-1]):
        later = verts[i + 1:]
        want = [eplane.lattice_distance(coords[a], coords[b]) for b in later]
        dist = early_exit_bfs(c, a, max(want), later)
        for b, d in zip(later, want):
            if dist.get(b) != d:
                raise NotFlat(f"development is not isometric on pair ({a}, {b})")


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


def recursive_select_vertex_geodesic(e):
    """The former ``euclid.select_vertex_geodesic``, whose depth-first
    search (``recursive_thread``) recursed once per layer; kept verbatim as
    the oracle of the explicit-stack search that replaced it."""
    choices = [sorted(s.verts, reverse=True) for s in e.simplices]
    picked = []
    if not recursive_thread(e.complex, choices, picked, 0):
        raise NoSelection(
            f"no vertex geodesic through the euclidean geodesic of "
            f"({e.x}, {e.y}); simplices: {[s.verts for s in e.simplices]}")
    return tuple(picked)


def recursive_thread(c, choices, picked, pos):
    """The former ``euclid._thread``: depth-first search for an adjacent
    chain through choices[pos:]."""
    if pos == len(choices):
        return True
    for v in choices[pos]:
        if picked and not c.adjacent(picked[-1], v) and picked[-1] != v:
            continue
        picked.append(v)
        if recursive_thread(c, choices, picked, pos + 1):
            return True
        picked.pop()
    return False


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


def corner_geodesic(x, y):
    """The former ``eplane.corner_geodesic``, with its own sign case split:
    the extreme monotone geodesic, one lattice direction, then the other."""
    p, q = y[0] - x[0], y[1] - x[1]
    if p * q >= 0:
        sa = 1 if p > 0 else -1
        sb = 1 if q > 0 else -1
        steps = [(sa, 0)] * abs(p) + [(0, sb)] * abs(q)
    elif abs(p) >= abs(q):
        sa = 1 if p > 0 else -1
        steps = [(sa, -sa)] * abs(q) + [(sa, 0)] * (abs(p) - abs(q))
    else:
        sb = 1 if q > 0 else -1
        steps = [(-sb, sb)] * abs(p) + [(0, sb)] * (abs(q) - abs(p))
    out = [x]
    for da, db in steps:
        out.append((out[-1][0] + da, out[-1][1] + db))
    return tuple(out)


def box_interval_levels(c, x, y):
    """The former plane branch of ``FlagComplex.interval_levels``: the closed-form
    interval box, split by ``lattice_distance`` from x, members of c only, as
    c's own vertex objects."""
    levels = [set() for _ in range(eplane.lattice_distance(x, y) + 1)]
    for v in interval_box(x, y):
        if v in c:
            levels[eplane.lattice_distance(x, v)].add(c.vertex(v))
    return tuple(map(frozenset, levels))


def box_level_offsets(boxes, x, y):
    """The levels of the interval box of x and y as offsets from x, split by
    ``lattice_distance``: the box is x plus the box of (0, 0) and y - x, so
    its levels are computed once per difference and kept in boxes."""
    d = (y[0] - x[0], y[1] - x[1])
    if d not in boxes:
        levels = [[] for _ in range(eplane.lattice_distance((0, 0), d) + 1)]
        for v in interval_box((0, 0), d):
            levels[eplane.lattice_distance((0, 0), v)].append(v)
        boxes[d] = levels
    return boxes[d]


def scan_safe_levels(c, x, y, boxes=None):
    """The former ``directed._safe_levels``: every level of the interval is
    scanned for a vertex of margin below 1 (box levels on plane-backed
    complexes, ``interval_levels`` elsewhere). A dict passed as boxes keeps
    each difference's box level offsets (``box_level_offsets``); the levels
    are then those offsets translated to x, the window's members among
    them, which the scan reads alike."""
    if x not in c or y not in c:
        raise PreconditionViolated(f"vertex not in complex: {x if x not in c else y}")
    if not c.trusts_metric:
        raise BoundaryUnsafe(
            "window metric is not trusted; materialize a convex window instead")
    if c.plane_backed and boxes is not None:
        a, b = x
        members = c.vertices()
        levels = [[v for p, q in level if (v := (a + p, b + q)) in members]
                  for level in box_level_offsets(boxes, x, y)]
    elif c.plane_backed:
        levels = box_interval_levels(c, x, y)
    else:
        levels = c.interval_levels(x, y)
    if not c.is_complete:
        for level in levels:
            unsafe = [v for v in level if c.margin(v) < 1]
            if unsafe:
                raise BoundaryUnsafe(
                    f"interval vertex {min(unsafe)} touches the window boundary "
                    f"(pair {x}, {y})")
    return levels


def scan_require_pair_safe(c, x, y, boxes=None):
    """The former ``directed.require_pair_safe``."""
    return len(scan_safe_levels(c, x, y, boxes)) - 1


def area_interval(c, x, y):
    """The former ``complexes.interval``: the union of the levels, box levels on
    plane windows."""
    complexes._require_members(c, x, y)
    levels = box_interval_levels(c, x, y) if c.plane_backed else c.interval_levels(x, y)
    complexes._certify(c, x, y, len(levels) - 1)
    return frozenset().union(*levels)


@dataclass(frozen=True)
class AreaDisk:
    """The former ``chardisk.CharDisk``: a flat disk with its development
    into the lattice and surface map.

    ``coords`` develops every region vertex of the ambient complex onto
    axial coordinates; ``surface`` is the inverse direction, disk -> X, so
    its keys are the vertices of the disk.
    Boundary labels v_i/w_i live in disk coordinates, one per layer of the
    interval.
    """

    interval: ThickInterval
    region: frozenset                      # ambient vertices
    coords: Dict[object, eplane.Axial]     # ambient -> disk development
    v_labels: Tuple[eplane.Axial, ...]     # per layer j..k
    w_labels: Tuple[eplane.Axial, ...]
    surface: Dict[eplane.Axial, object]
    triangle_count: int

    def layer_segment(self, i: int) -> Tuple[eplane.Axial, eplane.Axial]:
        return self.v_labels[i - self.interval.j], self.w_labels[i - self.interval.j]

    def disk_adjacent(self, a: eplane.Axial, b: eplane.Axial) -> bool:
        return (b[0] - a[0], b[1] - a[1]) in eplane._OFFSET_SET

    def holds(self, v: eplane.Axial) -> bool:
        """Whether v is a vertex of the disk."""
        return v in self.surface

    def image(self, v: eplane.Axial):
        """The ambient vertex the surface map sends disk vertex v to."""
        return self.surface[v]


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
    return AreaDisk(cycle.interval, frozenset(region), coords,
                    v_labels, w_labels, surface, triangles)


def chain_diagonal(c, layer_seq, interval):
    """The former plane path of ``euclid._assemble`` for one thick interval:
    the boundary cycle, flat disk, modified disk, funnel path, diagonal and
    characteristic map of the library's stage chain. Returns the simplices
    of the inner layers and the funnel path."""
    cycle = chardisk.boundary_cycle(c, interval, layer_seq)
    disk = chardisk.extract_flat_disk(c, cycle)
    alpha = cat0.shortest_path(cat0.modified_disk(disk))
    diagonal = cat0.euclidean_diagonal(disk, alpha)
    return [chardisk.characteristic_map(c, disk, rho) for rho in diagonal.simplices], alpha


# -- the layered plane construction ---------------------------------------------------
#
# The former plane path of euclid.euclidean_geodesic, verbatim but for the
# names: library functions are called through their modules, and the
# off-plane branches of the functions it ran are left out.


def layered_euclidean_geodesic(c, x, y, *, check_reversal=True):
    """The former ``euclid.euclidean_geodesic`` on a plane window: the
    layers, the assembly, and the assembly from the reversed layers."""
    with c._shared_rows:
        layer_seq = layered_layers(c, x, y)
        geo = layered_assemble(c, layer_seq)
        if check_reversal:
            back = layered_assemble(c, layer_seq.reversed())
            forward = [frozenset(s.verts) for s in geo.simplices]
            reverse = [frozenset(s.verts) for s in reversed(back.simplices)]
            if forward != reverse:
                raise ConditionViolated(
                    f"euclidean geodesic between {x} and {y} is not reversal-symmetric")
    return geo


def layered_layers(c, x, y):
    """The former ``directed.layers`` on a plane window."""
    levels = directed._safe_levels(c, x, y)
    sigma_geo = closed_form(c, x, y)
    tau_geo = closed_form(c, y, x)
    items = [Layer(i, sigma, tau, directed._thickness(c, sigma, tau))
             for i, (sigma, tau) in enumerate(zip(sigma_geo, tau_geo.simplices[::-1]))]
    return Layers(c, x, y, items, sigma_geo, tau_geo, levels)


def closed_form(c, x, y):
    """The former ``directed._closed_form``: the closed form on the
    window's own vertex objects, certified by ``certify_chain``."""
    own = c.vertex
    geo = DirectedGeodesic(x, y, tuple(Simplex(tuple(map(own, verts)))
                                       for verts in eplane.directed_simplices(x, y)))
    certify_chain(c, geo)
    return geo


def certify_chain(c, geo):
    """The former ``directed._certify_chain``, on the window's neighbour
    sets: the spans of ``directed._check_spans``, then the ends."""
    sims = geo.simplices
    directed._check_spans(c, sims)
    if sims[0].verts != (geo.source,) or sims[-1].verts != (geo.target,):
        raise ConditionViolated(
            f"simplices do not run from {geo.source} to {geo.target}")


def layered_thick_intervals(layer_seq):
    """The former ``directed.thick_intervals``, on the layers themselves."""
    n = len(layer_seq) - 1
    if n < 0:
        return []
    if n >= 2 and (layer_seq[1].thick or layer_seq[n - 1].thick):
        raise MalformedProfile("thick layer adjacent to an endpoint")
    out = []
    i = 1
    while i < n:
        if layer_seq[i].thick:
            j = i - 1
            k = i + 1
            while k < n and layer_seq[k].thick:
                k += 1
            if not (layer_seq[j].thin and layer_seq[k].thin):
                raise MalformedProfile(f"thick run {j + 1}..{k - 1} lacks thin brackets")
            out.append(ThickInterval(j, k))
            i = k + 1
        else:
            i += 1
    return out


def layered_assemble(c, layer_seq):
    """The former ``euclid._assemble`` on a plane window."""
    x, y, n = layer_seq.x, layer_seq.y, layer_seq.n
    if n == 0:
        return EuclideanGeodesic(c, x, y, (Simplex.of([x]),), ("endpoint",), layer_seq)
    sims = [None] * (n + 1)
    tags = [""] * (n + 1)
    sims[0], tags[0] = Simplex.of([x]), "endpoint"
    sims[n], tags[n] = Simplex.of([y]), "endpoint"
    for i in range(1, n):
        layer = layer_seq[i]
        if layer.thin:
            union = set(layer.sigma.verts) | set(layer.tau.verts)
            if not c.is_clique(union):
                raise ConditionViolated(
                    f"thin layer {i} of ({x}, {y}) does not span a simplex")
            sims[i], tags[i] = Simplex.of(union), "thin"
    for interval in layered_thick_intervals(layer_seq):
        images = layered_straight_diagonal(c, layer_seq, interval)
        for i, image in zip(interval.interior(), images):
            sims[i], tags[i] = image, "disk"
    for i in range(n + 1):
        if sims[i] is None:
            raise ConditionViolated(f"layer {i} of ({x}, {y}) was never assigned")
        if not all(in_plane_layer(layer_seq, i, v) for v in sims[i].verts):
            raise ConditionViolated(
                f"delta_{i} of ({x}, {y}) leaves its layer: {sims[i]}")
    return EuclideanGeodesic(c, x, y, tuple(sims), tuple(tags), layer_seq)


def in_plane_layer(layer_seq, i, v):
    """Whether v lies in layer i of a plane pair: in the window, at lattice
    distance i from x and n - i from y, as ``euclid._plane_pass`` tests it.
    It stands for the former ``Layers.holds`` on a plane window, which read
    the same distances off ``FlagComplex.true_distance``."""
    x, y, n = layer_seq.x, layer_seq.y, layer_seq.n
    return (v in layer_seq.complex and eplane.lattice_distance(x, v) == i
            and eplane.lattice_distance(v, y) == n - i)


def recorded_segments(layer_seq, interval):
    """The segments (v_i, w_i, thickness_i) of the layers j..k of a plane
    thick interval, as the former ``cat0.straight_diagonal`` handed them to
    ``cat0._straight_segment``: read off the layers' simplices by
    ``directed._layer_segments``, with each layer's recorded thickness."""
    inner = layer_seq[interval.j:interval.k + 1]
    scanned = directed._layer_segments([layer.sigma.verts for layer in inner],
                                       [layer.tau.verts for layer in inner])
    return [(v, w, layer.thickness) for (v, w, _), layer in zip(scanned, inner)]


def layered_straight_diagonal(c, layer_seq, interval):
    """The former ``cat0.straight_diagonal``: the segment of each layer
    read off its two simplices and checked against its thickness, then the
    straight segment between the brackets through every portal."""
    j, k = interval.j, interval.k
    distance = eplane.lattice_distance
    segments = []
    for i in range(j, k + 1):
        layer = layer_seq[i]
        t = -1
        for s in layer.sigma.verts:
            for u in layer.tau.verts:
                d = distance(s, u)
                if d > t:
                    t, v, w = d, s, u
        if t != layer.thickness:
            raise ConditionViolated(
                f"layer {i} segment {v}-{w} has length {t}, thickness {layer.thickness}")
        if t != 1 and i in (j, k):
            raise ConditionViolated(f"bracket layer {i} segment {v}-{w} is not a unit edge")
        dp, dq = w[0] - v[0], w[1] - v[1]
        if dp % t or dq % t:
            raise ConditionViolated(f"layer {i} segment {v}-{w} is not a lattice segment")
        segments.append((v, w, t, (dp // t, dq // t)))
    first = segments[0][3]
    back = (-first[0], -first[1])
    lines = [first[0] * v[1] - first[1] * v[0] for v, _, _, _ in segments]
    rise = lines[1] - lines[0]
    for i, (v, w, _, step), line in zip(range(j, k + 1), segments, lines):
        if step != first and step != back:
            raise ConditionViolated(f"layer {i} segment {v}-{w} is not parallel to layer {j}")
        if i > j and (rise not in (1, -1) or line != lines[0] + rise * (i - j)):
            raise ConditionViolated(
                f"layer {i} segment {v}-{w} is not on the lattice line after layer {i - 1}")
    (vj, wj, _, _), (vk, wk, _, _) = segments[0], segments[-1]
    start = (vj[0] + wj[0], vj[1] + wj[1])
    goal = (vk[0] + wk[0], vk[1] + wk[1])
    sims = []
    for i, (v, w, t, step) in zip(interval.interior(), segments[1:-1]):
        arc = cat0._line_crossing(start, goal, v, step)
        if arc is None:
            raise ConditionViolated(f"segment {start}->{goal} does not cross layer {i}")
        num, den = arc
        if not den <= 2 * num <= (2 * t - 1) * den:
            raise ConditionViolated(
                f"segment {start}->{goal} meets layer {i} at u = {num}/{den}, outside "
                f"the portal {(2 * v[0] + step[0], 2 * v[1] + step[1])}-"
                f"{(2 * w[0] - step[0], 2 * w[1] - step[1])}")
        m = cat0.nearest_simplex_on_segment(num, den, t)
        a = (v[0] + step[0] * m[0], v[1] + step[1] * m[0])
        if len(m) == 1:
            sims.append(Simplex((a,)))
        else:
            b = (a[0] + step[0], a[1] + step[1])
            sims.append(Simplex((a, b) if a < b else (b, a)))
    simplex_verify_diagonal(sims, (vj, wj), (vk, wk))
    own = c.vertex
    return [Simplex(tuple(map(own, c.validate_simplex(s).verts))) for s in sims]


def simplex_verify_diagonal(sims, start, end):
    """The former ``cat0._verify_diagonal``, on ``Simplex`` values."""
    if not sims:
        return
    for a, b in zip(sims, sims[1:]):
        if not lenient_lattice_clique(a.verts + b.verts):
            raise NoCrossing(f"diagonal simplices {a} and {b} do not span a simplex")
    if len(sims[0]) != 1 or len(sims[-1]) != 1:
        raise NoCrossing("diagonal simplices at the interval ends must be vertices")
    if not lenient_lattice_clique((*start, sims[0].verts[0])):
        raise NoCrossing("first diagonal vertex does not span with the start edge")
    if not lenient_lattice_clique((*end, sims[-1].verts[0])):
        raise NoCrossing("last diagonal vertex does not span with the end edge")


def lenient_lattice_clique(verts):
    """The former ``cat0._lattice_clique``, which passed repeated points."""
    offsets = eplane._OFFSET_SET
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            if a != b and (b[0] - a[0], b[1] - a[1]) not in offsets:
                return False
    return True


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


def layer_step(v, w, i: int) -> Tuple[int, Tuple[int, int]]:
    """The former ``cat0._layer_step``: length t of the straight layer
    segment i from v to w, and the unit lattice step from v toward w."""
    t = eplane.lattice_distance(v, w)
    dp, dq = w[0] - v[0], w[1] - v[1]
    if t == 0 or dp % t or dq % t:
        raise PreconditionViolated(f"layer {i} segment {v}-{w} is not a lattice segment")
    return t, (dp // t, dq // t)


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
        t, step = layer_step(v, w, i)
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


# -- scenario arithmetic ------------------------------------------------------------
#
# The former generic forms of the isometry and contraction arithmetic that the
# scenario tasks run, replaced by integer closed forms.


def apply_displacement(h, v):
    """The former ``eplane.PlaneIsometry.displacement``: the image through
    ``apply``, then ``lattice_distance``."""
    return eplane.lattice_distance(v, h.apply(v))


def power_invariant_geodesic(h, x, length):
    """The former ``isodyn.invariant_geodesic_on_plane``, which read each
    vertex after the first period through ``h.power(q)``; kept verbatim on
    the library's checks."""
    if not h.is_translation or h.shift == (0, 0):
        raise NotTranslationLike(f"{h} does not act as a nonzero translation")
    target = h.apply(x)
    axis_dir = isodyn._diff(target, x)
    period = [x]
    current = x
    while current != target:
        remaining = eplane.lattice_distance(current, target)
        options = []
        for nb in eplane.neighbors(current):
            if eplane.lattice_distance(nb, target) != remaining - 1:
                continue
            offset = exact_cross(axis_dir, isodyn._diff(nb, x))
            options.append(((offset * offset, (offset > 0) - (offset < 0)), nb))
        if not options:
            raise PreconditionViolated("no distance-reducing neighbor; bad metric")
        options.sort(key=lambda t: t[0])
        period.append(options[0][1])
        current = options[0][1]
    step_count = len(period) - 1
    vertices = []
    for i in range(length + 1):
        q, r = divmod(i, step_count)
        vertices.append(h.power(q).apply(period[r]))
    isodyn._assert_geodesic(vertices)
    isodyn._assert_line_distance(vertices, x, axis_dir)
    return tuple(vertices)


@dataclass(frozen=True)
class FractionContractingCheck:
    """The former ``euclid.ContractingCheck``, whose bound and slack were
    stored ``Fraction`` values."""

    kind: str
    c: object
    index: Tuple
    lhs: int
    rhs_base: int
    bound: Fraction
    slack: Fraction

    @property
    def holds(self) -> bool:
        return Fraction(self.lhs) <= self.bound


@dataclass(frozen=True)
class FractionContractingReport:
    checks: Tuple
    violations: Tuple
    max_slack: Fraction


def fraction_verify_contracting(c, g1, g2, cs, *, constants=None, doubling_bound=None):
    """The former ``euclid.verify_contracting``, every inequality in
    ``Fraction`` arithmetic; kept verbatim."""
    constants = constants or GoodnessConstants()
    v = tuple(g1)
    w = tuple(g2)
    checks = []
    if doubling_bound is None:
        if v[0] != w[0]:
            raise PreconditionViolated("ratio form needs a shared origin")
        n, m = len(v) - 1, len(w) - 1
        endpoint = c.true_distance(v[n], w[m])
        for ratio in cs:
            ratio = Fraction(ratio)
            if not 0 <= ratio <= 1:
                raise PreconditionViolated(f"c = {ratio} outside [0, 1]")
            i1 = int(ratio * n)
            i2 = int(ratio * m)
            lhs = c.true_distance(v[i1], w[i2])
            bound = ratio * endpoint + constants.D
            checks.append(FractionContractingCheck(
                "ratio", ratio, (i1, i2), lhs, endpoint, bound,
                Fraction(lhs) - ratio * endpoint))
    else:
        top = min(len(v), len(w)) - 1
        for i in range(top + 1):
            if c.true_distance(v[i], w[i]) > doubling_bound:
                raise PreconditionViolated(
                    f"pair is not asymptotic within the supplied bound {doubling_bound}")
        d0 = c.true_distance(v[0], w[0])
        for i in range(top + 1):
            lhs = c.true_distance(v[i], w[i])
            bound = Fraction(d0 + 2 * constants.D + 1)
            checks.append(FractionContractingCheck(
                "doubling", None, (i,), lhs, d0, bound, Fraction(lhs - d0)))
    violations = tuple(ch for ch in checks if not ch.holds)
    max_slack = max((ch.slack for ch in checks), default=Fraction(0))
    return FractionContractingReport(tuple(checks), violations, max_slack)


def recursive_boundary_cycle(c, interval, layer_seq):
    """The former ``chardisk.boundary_cycle``, whose chain search
    (``recursive_extend_chain``) recursed once per layer; kept verbatim as
    the oracle of the explicit-stack search that replaced it."""
    j, k = interval.j, interval.k
    n = len(layer_seq) - 1
    if not (0 < j < k - 1 and k < n):
        raise PreconditionViolated(f"({j}, {k}) is not a thick interval shape")
    if not (layer_seq[j].thin and layer_seq[k].thin):
        raise PreconditionViolated(f"bracket layers of ({j}, {k}) are not thin")
    if any(not layer_seq[i].thick for i in range(j + 1, k)):
        raise PreconditionViolated(f"interval ({j}, {k}) contains a thin layer")

    options = []
    for i in range(j, k + 1):
        layer = layer_seq[i]
        pairs = sorted(
            ((s, t) for s in layer.sigma for t in layer.tau
             if c.true_distance(s, t) == layer.thickness),
            key=lambda p: (min(p), max(p)))
        if not pairs:
            raise NoRealizingChain(f"no realizing pair in layer {i}")
        options.append(pairs)

    chain: list = []
    if not recursive_extend_chain(c, options, chain, 0):
        raise NoRealizingChain(
            f"no adjacent embedded realizing chain for interval ({j}, {k})")
    s_side = tuple(p[0] for p in chain)
    t_side = tuple(p[1] for p in chain)
    cycle = s_side + tuple(reversed(t_side))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not c.adjacent(a, b):
            raise NoRealizingChain(f"cycle vertices {a}, {b} not adjacent")
    if len(set(cycle)) != len(cycle):
        raise NoRealizingChain("realizing cycle is not embedded")
    return chardisk.BoundaryCycle(interval, s_side, t_side, cycle)


def recursive_extend_chain(c, options, chain, pos):
    """The former ``chardisk._extend_chain``: backtracking search for one
    realizing pair per layer from pos on."""
    if pos == len(options):
        return True
    for s, t in options[pos]:
        if pos in (0, len(options) - 1) and s == t:
            continue  # embeddedness at the thin brackets
        if chain:
            ps, pt = chain[-1]
            if not (c.adjacent(ps, s) and c.adjacent(pt, t)):
                continue
        chain.append((s, t))
        if recursive_extend_chain(c, options, chain, pos + 1):
            return True
        chain.pop()
    return False


def scan_displacement_set(h, K, c):
    """The former ``isodyn.displacement_set``: one scan of the window per K,
    kept verbatim as the oracle of the one-scan ``isodyn.displacement_sets``."""
    if isinstance(h, isodyn.TableAction) and not h.complex.is_complete:
        raise BoundaryUnsafe("table displacement on a truncated window")
    isodyn._require_window(h, c)
    verts = frozenset(v for v in c.vertices() if h.displacement(v) <= K)
    return isodyn.DisplacementSet(K, verts, c.name or "window")


def three_scan_displacement_sets(h, L, c):
    """The displacement study's former three calls: the min set at L, and the
    sets at K = L + 1 and K + 2 * 2 of its neighbourhood check, each its own
    scan of the window."""
    return (scan_displacement_set(h, L, c), scan_displacement_set(h, L + 1, c),
            scan_displacement_set(h, L + 5, c))


def simplex_check_min_proximity(c, h, pairs, L=None):
    """The former ``isodyn.check_min_proximity``, which read every Euclidean
    geodesic as ``euclidean_geodesic``'s ``Simplex`` sequence on every
    complex; kept verbatim as the oracle of the plane read of
    ``euclid._plane_simplices``' lattice tuples."""
    isodyn._require_window(h, c)
    if L is None:
        L = isodyn.translation_length(h)
    bound = 9 * L + 6
    entries = []
    top = 0
    for x, y in pairs:
        for v in (x, y):
            if h.displacement(v) != L:
                raise PreconditionViolated(f"{v} is not minimally displaced")
        worst = 0
        witness = x
        for simplex in euclidean_geodesic(c, x, y, check_reversal=False):
            for v in simplex:
                d = h.displacement(v)
                if d > worst:
                    worst, witness = d, v
        entries.append(isodyn.MinProximityEntry((x, y), worst, witness))
        top = max(top, worst)
    return isodyn.MinProximityReport(bound, tuple(entries), top)


# -- uncached constructions -------------------------------------------------------------
#
# The former bodies, verbatim but for the names: library functions are called
# through their modules, and the oracle copies call one another.


def uncached_project(c, x, y, levels):
    """The former ``directed._project``: the common neighbours of each
    simplex intersected anew at every step."""
    n = len(levels) - 1
    if n == 0:
        return DirectedGeodesic(x, y, (Simplex.of([x]),))
    nbrs = c.neighbors
    simplices = [Simplex.of([x])]
    for i in range(n - 1):
        current = simplices[-1].verts
        candidates = sorted(nbrs(current[0]).intersection(*map(nbrs, current[1:]),
                                                          levels[i + 1]))
        if not candidates:
            raise ConstructionFailed(
                f"empty projection at step {i + 1} between {x} and {y}")
        if not c.is_clique(candidates):
            raise ConstructionFailed(
                f"projection at step {i + 1} between {x} and {y} "
                f"is not a simplex: {candidates}")
        simplices.append(Simplex(tuple(candidates)))
    simplices.append(Simplex.of([y]))
    geo = DirectedGeodesic(x, y, tuple(simplices))
    uncached_verify_conditions(c, geo)
    return geo


def uncached_verify_conditions(c, geo):
    """The former ``directed._verify_conditions``, on the former
    ``ball_of_simplex`` of this module."""
    sims = geo.simplices
    directed._check_spans(c, sims)
    nbrs = c.neighbors
    for i, (before, here, after) in enumerate(zip(sims, sims[1:], sims[2:]), 1):
        res = nbrs(before.verts[0]).intersection(*map(nbrs, before.verts[1:]))
        if res.union(before.verts) & ball_of_simplex(c, after) != frozenset(here.verts):
            raise ConditionViolated(
                f"residue/ball condition fails at index {i} "
                f"between {geo.source} and {geo.target}")


def uncached_extract_flat_disk(c, cycle):
    """The former ``chardisk.extract_flat_disk``: every check and the
    development run on every call, the development by ``scan_develop``."""
    if len(cycle) < 6:
        raise PreconditionViolated(
            f"boundary cycle of a thick interval has at least 6 vertices, got {len(cycle)}")
    region = set()
    for s, t in zip(cycle.s, cycle.t):
        region |= complexes.interval(c, s, t)
    boundary = set(cycle.cycle)
    interior = region - boundary

    for v in sorted(interior):
        if not chardisk._is_hexagon(c, c.neighbors(v) & region):
            raise NotFlat(f"interior vertex {v} is not surrounded by 6 triangles")

    coords = scan_develop(c, cycle, region)
    if not c.plane_backed:  # identity development under the lattice metric
        chardisk._check_isometric(c, region, coords)
    v_labels = tuple(coords[s] for s in cycle.s)
    w_labels = tuple(coords[t] for t in cycle.t)
    steps = chardisk._check_layer_geometry(v_labels, w_labels)
    triangles = chardisk._triangle_count(c, region, interior)
    interior_count = len(interior)
    boundary_count = len(region) - interior_count
    if triangles != 2 * interior_count + boundary_count - 2:
        raise NotFlat("triangle count does not match a disk Euler characteristic")
    surface = {coords[v]: v for v in region}
    return chardisk.CharDisk(cycle.interval, v_labels, w_labels, surface.__getitem__, steps)


def scan_develop(c, cycle, region):
    """The former ``chardisk._develop``, whose injectivity test scans the
    lattice points placed so far."""
    if c.plane_backed:
        return {v: v for v in region}
    triangles = list(_region_triangles(c, region))
    by_edge: Dict[tuple, list] = {}
    for tri in triangles:
        for a, b in combinations(tri, 2):
            by_edge.setdefault((min(a, b), max(a, b)), []).append(tri)

    s0, t0 = cycle.s[0], cycle.t[0]
    coords = {s0: (0, 0), t0: (1, 0)}
    seed_edge = (min(s0, t0), max(s0, t0))
    seed_tris = by_edge.get(seed_edge, [])
    if not seed_tris:
        raise NotFlat("boundary edge borders no region triangle")
    apex = next(v for v in seed_tris[0] if v not in (s0, t0))
    coords[apex] = (0, 1)

    placed = {tuple(sorted(seed_tris[0]))}
    queue = deque([seed_tris[0]])
    while queue:
        tri = queue.popleft()
        for a, b in combinations(tri, 2):
            edge = (min(a, b), max(a, b))
            third_here = next(v for v in tri if v not in (a, b))
            for other in by_edge[edge]:
                key = tuple(sorted(other))
                if key in placed:
                    continue
                w = next(v for v in other if v not in (a, b))
                completions = chardisk._edge_completions(coords[a], coords[b])
                if third_here in coords:
                    completions = [p for p in completions if p != coords[third_here]]
                if not completions:
                    raise NotFlat(f"cannot develop vertex {w}")
                target = completions[0]
                if w in coords:
                    if coords[w] != target:
                        raise NotFlat(f"inconsistent development at {w}")
                else:
                    if target in coords.values():
                        raise NotFlat(f"development is not injective at {w}")
                    coords[w] = target
                placed.add(key)
                queue.append(other)
    missing = region - set(coords)
    if missing:
        raise NotFlat(f"region is not triangle-connected; unreached: {sorted(missing)[:3]}")
    return coords
