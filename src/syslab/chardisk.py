"""Characteristic surfaces for thick intervals.

The boundary cycle of a thick interval is built from thickness-realizing
vertex pairs; the surface it spans is extracted as a flat region and
developed onto the triangular lattice. General minimal-surface search is
out of scope: a region that fails the flat interior test is rejected
loudly; the tests confirm minimality on small cycles with an exhaustive
filling oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, Tuple

from . import eplane
from .complexes import FlagComplex, Simplex, interval
from .directed import Layers, ThickInterval
from .errors import NoRealizingChain, NotASimplexOfDisk, NotFlat, PreconditionViolated


@dataclass(frozen=True)
class BoundaryCycle:
    """Embedded loop (s_j..s_k, t_k..t_j) through thickness-realizing pairs."""

    interval: ThickInterval
    s: Tuple[object, ...]      # s_j..s_k, one per layer
    t: Tuple[object, ...]      # t_j..t_k
    cycle: Tuple[object, ...]  # the loop, without the repeated closing vertex

    def __len__(self):
        return len(self.cycle)


def boundary_cycle(c: FlagComplex, interval: ThickInterval,
                   layer_seq: Layers) -> BoundaryCycle:
    """Select one thickness-realizing vertex pair per layer of the interval.

    Consecutive choices on each side are automatically adjacent (consecutive
    directed-geodesic simplices jointly span a simplex); ties between
    realizing pairs are broken on the sorted pair, which keeps the selection
    stable under swapping the roles of the two endpoints. A small backtrack
    over realizing pairs guards the embeddedness constraints at both ends.
    """
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
    if not _extend_chain(c, options, chain, 0):
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
    return BoundaryCycle(interval, s_side, t_side, cycle)


def _extend_chain(c: FlagComplex, options, chain: list, pos: int) -> bool:
    """Backtracking search for one realizing pair per layer from pos on.

    A module function rather than a nested one: a recursive closure refers
    to itself through its cell, and that cycle would keep the complex alive
    until the cyclic garbage collector runs.
    """
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
        if _extend_chain(c, options, chain, pos + 1):
            return True
        chain.pop()
    return False


@dataclass(frozen=True)
class CharDisk:
    """A flat disk with its development into the lattice and surface map.

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


class PlaneDisk(CharDisk):
    """A flat disk of a plane window, certified on its boundary cycle.

    It holds the layer segments [v_i, w_i] only (see ``extract_flat_disk``
    for why they bound a flat disk). Membership and images are read off the
    segments: v lies in the disk when it sits on the lattice line of some
    layer i of the interval, between v_i and w_i, and the development and
    the surface map are the identity. ``region``, ``coords``, ``surface``
    and ``triangle_count`` are computed when first read.
    """

    def __init__(self, c: FlagComplex, interval: ThickInterval,
                 v_labels: Tuple[eplane.Axial, ...], w_labels: Tuple[eplane.Axial, ...]):
        step = _unit_step(v_labels[0], w_labels[0])
        line0 = _line(step, v_labels[0])
        # the dataclass is frozen; its generated __setattr__ refuses writes
        self.__dict__.update(interval=interval, v_labels=v_labels, w_labels=w_labels,
                             _vertex=c.vertex, _step=step, _line0=line0,
                             _rise=_line(step, v_labels[1]) - line0)

    def image(self, v: eplane.Axial):
        return self._vertex(v)

    def holds(self, v: eplane.Axial) -> bool:
        m = (_line(self._step, v) - self._line0) * self._rise
        if not 0 <= m < len(self.v_labels):
            return False
        a, b = self.v_labels[m], self.w_labels[m]
        axis = 0 if self._step[0] else 1
        lo, hi = sorted((a[axis], b[axis]))
        return lo <= v[axis] <= hi

    @cached_property
    def region(self) -> frozenset:
        return frozenset(self.image(v) for a, b in zip(self.v_labels, self.w_labels)
                         for v in eplane.segment(a, b))

    @cached_property
    def coords(self) -> Dict[object, eplane.Axial]:
        return {v: v for v in self.region}

    @cached_property
    def surface(self) -> Dict[eplane.Axial, object]:
        return {v: v for v in self.region}

    @cached_property
    def triangle_count(self) -> int:
        """2I + B - 2 for I interior and B = 2(k - j + 1) boundary vertices."""
        boundary = 2 * len(self.v_labels)
        return 2 * (len(self.region) - boundary) + boundary - 2


def _unit_step(v: eplane.Axial, w: eplane.Axial) -> eplane.Axial:
    t = eplane.lattice_distance(v, w)
    return ((w[0] - v[0]) // t, (w[1] - v[1]) // t)


def _line(step: eplane.Axial, v: eplane.Axial) -> int:
    """Index of the lattice line along step through v: the cross product of
    step and v, which two vertices share exactly when v - u is a multiple of
    step, and which changes by at most 1 along an edge."""
    return step[0] * v[1] - step[1] * v[0]


def extract_flat_disk(c: FlagComplex, cycle: BoundaryCycle) -> CharDisk:
    """Fill the boundary cycle with the enclosed flat region.

    On a plane window (``plane_backed``) the disk is first certified on
    its boundary, in O(k - j): the cycle is s_j..s_k followed by t_k..t_j,
    its vertices are distinct members of the window and consecutive ones
    adjacent, the segments [s_i, t_i] are parallel lattice segments
    (``_check_layer_geometry``), and they lie on consecutive lattice lines,
    each layer's line one further on, in one direction, than the last.
    That is enough: an endpoint
    moves half a unit along the lines when it steps to the next line, so
    consecutive segments keep their orientation and bound a trapezoid (or
    a triangle) made of lattice triangles, and the trapezoids stack into a
    polygon P whose boundary is the cycle, the end segments being the unit
    closing edges. P is a disk; it meets each of its lattice lines in that
    layer's segment, and no lattice point lies strictly between two
    consecutive lines, so the lattice points of P are the points of the
    segments, the window (a convex ball) holds them, and every segment is
    the interval between its ends. A point of P off the cycle is interior
    to P, so its six triangles lie in P and its region link is a hexagon,
    and the triangles on region vertices are those of P, 2I + B - 2 of them
    by Euler's formula for a triangulated disk. So the checks below cannot
    fail, and the plane disk (``PlaneDisk``) reads what it needs off the
    segments. A cycle that fails the boundary certificate, and every cycle
    off the plane, takes the path below.

    The region is the union over layers of the combinatorial interval
    between the realizing pair; an interior vertex whose region link is not
    a 6-cycle fails the flat test and raises NotFlat. The region is then
    developed onto the lattice, which also certifies the embedding is
    isometric; that check costs one BFS per region vertex, each stopping
    once the vertex's later partners are found. Plane-backed complexes
    develop by identity, which is isometric by construction.
    """
    if len(cycle) < 6:
        raise PreconditionViolated(
            f"boundary cycle of a thick interval has at least 6 vertices, got {len(cycle)}")
    if c.plane_backed and _bounds_plane_disk(c, cycle):
        return PlaneDisk(c, cycle.interval, cycle.s, cycle.t)
    region = set()
    for s, t in zip(cycle.s, cycle.t):
        region |= interval(c, s, t)
    boundary = set(cycle.cycle)
    interior = region - boundary

    for v in sorted(interior):
        if not _is_hexagon(c, c.neighbors(v) & region):
            raise NotFlat(f"interior vertex {v} is not surrounded by 6 triangles")

    coords = _develop(c, cycle, region)
    if not c.plane_backed:  # identity development under the lattice metric
        _check_isometric(c, region, coords)
    v_labels = tuple(coords[s] for s in cycle.s)
    w_labels = tuple(coords[t] for t in cycle.t)
    _check_layer_geometry(v_labels, w_labels)
    triangles = _triangle_count(c, region, interior)
    interior_count = len(interior)
    boundary_count = len(region) - interior_count
    if triangles != 2 * interior_count + boundary_count - 2:
        raise NotFlat("triangle count does not match a disk Euler characteristic")
    surface = {coords[v]: v for v in region}
    return CharDisk(cycle.interval, frozenset(region), coords,
                    v_labels, w_labels, surface, triangles)


def _bounds_plane_disk(c: FlagComplex, cycle: BoundaryCycle) -> bool:
    """The boundary certificate of a plane disk (see ``extract_flat_disk``)."""
    s, t, loop = cycle.s, cycle.t, cycle.cycle
    if len(s) != len(t) or loop != s + tuple(reversed(t)) or len(set(loop)) != len(loop):
        return False
    if not all(v in c for v in loop):
        return False
    if not all(c.adjacent(a, b) for a, b in zip(loop, loop[1:] + loop[:1])):
        return False
    try:
        _check_layer_geometry(s, t)
    except NotFlat:
        return False
    step = _unit_step(s[0], t[0])
    rise = _line(step, s[1]) - _line(step, s[0])
    return rise in (1, -1) and all(_line(step, b) - _line(step, a) == rise
                                   for a, b in zip(s, s[1:]))


def _is_hexagon(c, ring) -> bool:
    """Whether a vertex's region link is a 6-cycle: six vertices with two
    ring neighbours each, where the two of one vertex are not adjacent
    (two triangles are the only other 2-regular graph on six vertices)."""
    if len(ring) != 6:
        return False
    for u in ring:
        pair = c.neighbors(u) & ring
        if len(pair) != 2:
            return False
    a, b = pair
    return not c.adjacent(a, b)


def _triangle_count(c, region, interior) -> int:
    """Triangles of the region, counted once at each of their three corners.

    An interior vertex, whose region link the flat test has certified as a
    hexagon, lies in six; a boundary vertex lies in one per edge of its
    region link, and each edge is seen from both of its ends."""
    corners = 6 * len(interior)
    for v in region - interior:
        ring = c.neighbors(v) & region
        corners += sum(len(c.neighbors(u) & ring) for u in ring) // 2
    return corners // 3


def _region_triangles(c, region):
    for v in region:
        for u, w in combinations(sorted(x for x in c.neighbors(v) if x in region and x > v), 2):
            if c.adjacent(u, w):
                yield (v, u, w)


def _develop(c, cycle, region):
    """Lay the region out on the lattice by flooding over its triangles."""
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
                completions = _edge_completions(coords[a], coords[b])
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


def _edge_completions(pa, pb):
    out = []
    for v in eplane.neighbors(pa):
        if (pb[0] - v[0], pb[1] - v[1]) in eplane._OFFSET_SET:
            out.append(v)
    return out


def _check_isometric(c, region, coords):
    """Compare every pair's lattice and ambient distances, in sorted pair
    order, with one BFS per vertex that stops once its later partners are
    all discovered or its farthest lattice distance is passed."""
    verts = sorted(region)
    for i, a in enumerate(verts[:-1]):
        later = verts[i + 1:]
        want = [eplane.lattice_distance(coords[a], coords[b]) for b in later]
        dist = c.bfs_distances(a, budget=max(want), until=later)
        for b, d in zip(later, want):
            if dist.get(b) != d:
                raise NotFlat(f"development is not isometric on pair ({a}, {b})")


def _check_layer_geometry(v_labels, w_labels):
    """Layer segments are collinear lattice lines, all mutually parallel."""
    directions = []
    for v, w in zip(v_labels, w_labels):
        d = (w[0] - v[0], w[1] - v[1])
        t = eplane.lattice_distance(v, w)
        if t == 0:
            raise NotFlat("zero-length layer segment")
        if d[0] % t or d[1] % t:
            raise NotFlat(f"layer segment {v}-{w} is not a lattice line segment")
        directions.append((d[0] // t, d[1] // t))
    first = directions[0]
    for d in directions[1:]:
        if d != first and d != (-first[0], -first[1]):
            raise NotFlat("layer segments are not parallel")


# -- the characteristic mapping -------------------------------------------------


def characteristic_map(c: FlagComplex, disk: CharDisk, rho: Simplex) -> Simplex:
    """Image of a disk simplex under the disk's surface map.

    rho is given in disk coordinates. The image is verified to be a simplex
    of the ambient complex, and the assignment respects inclusions by
    construction. A plane disk tests membership on the layer segments and
    maps by identity (``PlaneDisk``).
    """
    for v in rho:
        if not disk.holds(v):
            raise NotASimplexOfDisk(f"{v} is not a vertex of the disk")
    if not all(disk.disk_adjacent(a, b) for a, b in combinations(rho.verts, 2)):
        raise NotASimplexOfDisk(f"{rho} is not a simplex of the disk")
    out = Simplex.of(disk.image(v) for v in rho)
    c.validate_simplex(out)
    return out
