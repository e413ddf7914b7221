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
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Dict, Optional, Tuple

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

    chain = _extend_chain(c, options)
    if chain is None:
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


def _extend_chain(c: FlagComplex, options) -> Optional[list]:
    """Depth-first search for one realizing pair per layer, or None: one
    loop over a stack of candidate iterators, one per layer up to the one
    being filled, so no recursion limit bounds the interval's length. The
    pairs at the thin brackets must be two distinct vertices, and each
    side must step to an adjacent vertex."""
    last = len(options) - 1
    chain: list = []
    stack = [iter(options[0])]
    while stack:
        pos = len(chain)
        for s, t in stack[-1]:
            if pos in (0, last) and s == t:
                continue  # embeddedness at the thin brackets
            if chain:
                ps, pt = chain[-1]
                if not (c.adjacent(ps, s) and c.adjacent(pt, t)):
                    continue
            chain.append((s, t))
            break
        else:
            stack.pop()
            if chain:
                chain.pop()
            continue
        if len(chain) == len(options):
            return chain
        stack.append(iter(options[len(chain)]))
    return None


@dataclass(frozen=True)
class CharDisk:
    """A flat disk, held as its layer segments and its surface map.

    The layers [v_i, w_i], in disk coordinates, form a stack: parallel
    lattice segments of positive length on consecutive lattice lines, in
    one direction (``_layer_stack``, certified once at construction). Every
    read below comes from the segments: a disk vertex is a lattice point of
    one of them, and ``image`` sends it to its ambient vertex (the identity
    of a plane window, a developed surface elsewhere). ``steps`` passes the
    segments' lengths and unit steps when ``_check_layer_geometry`` has
    already returned them, so the stack does not check them again.
    """

    interval: ThickInterval
    v_labels: Tuple[eplane.Axial, ...]     # per layer j..k
    w_labels: Tuple[eplane.Axial, ...]
    image: Callable[[eplane.Axial], object] = field(compare=False, repr=False)
    steps: InitVar[Optional[list]] = None
    _stack: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self, steps):
        # certify the stack once; it raises NotFlat otherwise
        object.__setattr__(self, "_stack", _layer_stack(self.v_labels, self.w_labels, steps))

    def layer_segment(self, i: int) -> Tuple[eplane.Axial, eplane.Axial]:
        return self.v_labels[i - self.interval.j], self.w_labels[i - self.interval.j]

    def layer_step(self, i: int) -> Tuple[int, eplane.Axial]:
        """Length t of layer i's segment and the unit step from v_i toward w_i."""
        return self._stack[0][i - self.interval.j]

    def disk_adjacent(self, a: eplane.Axial, b: eplane.Axial) -> bool:
        return (b[0] - a[0], b[1] - a[1]) in eplane._OFFSET_SET

    def holds(self, v: eplane.Axial) -> bool:
        """Whether v is a vertex of the disk: it sits on the lattice line of
        some layer i, between v_i and w_i."""
        steps, line0, rise = self._stack
        step = steps[0][1]
        m = (step[0] * v[1] - step[1] * v[0] - line0) * rise
        if not 0 <= m < len(self.v_labels):
            return False
        a, b = self.v_labels[m], self.w_labels[m]
        axis = 0 if step[0] else 1
        lo, hi = sorted((a[axis], b[axis]))
        return lo <= v[axis] <= hi

    @cached_property
    def surface(self) -> Dict[eplane.Axial, object]:
        """disk -> X on every disk vertex."""
        return {v: self.image(v) for a, b in zip(self.v_labels, self.w_labels)
                for v in eplane.segment(a, b)}

    @cached_property
    def region(self) -> frozenset:
        """The ambient vertices of the disk."""
        return frozenset(self.surface.values())

    @cached_property
    def coords(self) -> Dict[object, eplane.Axial]:
        """The development X -> disk of the region."""
        return {x: v for v, x in self.surface.items()}

    @cached_property
    def triangle_count(self) -> int:
        """2I + B - 2 for I interior and B = 2(k - j + 1) boundary vertices."""
        boundary = 2 * len(self.v_labels)
        return 2 * (len(self.region) - boundary) + boundary - 2


def extract_flat_disk(c: FlagComplex, cycle: BoundaryCycle) -> CharDisk:
    """Fill the boundary cycle with the enclosed flat region.

    The region is the union over layers of the combinatorial interval
    between the realizing pair; an interior vertex whose region link is not
    a 6-cycle fails the flat test and raises NotFlat. The region is then
    developed onto the lattice, which also certifies the embedding is
    isometric; that check reads one search row per region vertex, grown
    to its farthest lattice distance. Plane-backed complexes
    develop by identity, which is isometric by construction. The layer
    geometry and the Euler count follow, and the disk, built last from the
    checked layer steps, adds the stack's consecutive-lines rule; its
    segment points are then the developed region, and its surface map the
    inverse development.

    Inside ``c._shared_rows`` that development, the labels, the surface
    map and the layer steps, is kept per cycle under ``(cycle.s,
    cycle.t)``, which determine the rest of a cycle ``boundary_cycle``
    built. A repeated cycle, which the sub-pairs of one goodness call keep
    meeting at other layer indices, is only wrapped in a new disk for its
    own interval, whose stack the disk certifies again. A refusal stores
    nothing, so a repeated failing cycle fails again with the same text.
    """
    disks = c._shared_rows.disks
    if disks is None:
        return CharDisk(cycle.interval, *_certified_development(c, cycle))
    key = (cycle.s, cycle.t)
    if (found := disks.get(key)) is None:
        found = disks[key] = _certified_development(c, cycle)
    return CharDisk(cycle.interval, *found)


def _certified_development(c: FlagComplex, cycle: BoundaryCycle) -> tuple:
    """The checks of ``extract_flat_disk`` on one cycle, in order, and what
    its disk is built from: the layer labels v and w, the surface map and
    the layer steps."""
    if len(cycle) < 6:
        raise PreconditionViolated(
            f"boundary cycle of a thick interval has at least 6 vertices, got {len(cycle)}")
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
    steps = _check_layer_geometry(v_labels, w_labels)
    triangles = _triangle_count(c, region, interior)
    interior_count = len(interior)
    boundary_count = len(region) - interior_count
    if triangles != 2 * interior_count + boundary_count - 2:
        raise NotFlat("triangle count does not match a disk Euler characteristic")
    surface = {coords[v]: v for v in region}
    return v_labels, w_labels, surface.__getitem__, steps


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
    """Lay the region out on the lattice by flooding over its triangles.
    The lattice points placed so far are kept as a set beside the
    development, so the injectivity test of each placement is one lookup."""
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
    taken = set(coords.values())

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
                    if target in taken:
                        raise NotFlat(f"development is not injective at {w}")
                    coords[w] = target
                    taken.add(target)
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
    order, reading each vertex's search row grown out to its farthest
    lattice distance. A later partner missing from the row, or found
    beyond that radius by a row grown further before, is farther away than
    its lattice distance."""
    verts = sorted(region)
    for i, a in enumerate(verts[:-1]):
        later = verts[i + 1:]
        want = [eplane.lattice_distance(coords[a], coords[b]) for b in later]
        dist = c._search(a, budget=max(want))
        for b, d in zip(later, want):
            if dist.get(b) != d:
                raise NotFlat(f"development is not isometric on pair ({a}, {b})")


def _check_layer_geometry(v_labels, w_labels):
    """Layer segments are collinear lattice lines, all mutually parallel;
    returns each one's length and unit step from v_i toward w_i."""
    steps = []
    for v, w in zip(v_labels, w_labels):
        d = (w[0] - v[0], w[1] - v[1])
        t = eplane.lattice_distance(v, w)
        if t == 0:
            raise NotFlat("zero-length layer segment")
        if d[0] % t or d[1] % t:
            raise NotFlat(f"layer segment {v}-{w} is not a lattice line segment")
        steps.append((t, (d[0] // t, d[1] // t)))
    first = steps[0][1]
    for _, d in steps[1:]:
        if d != first and d != (-first[0], -first[1]):
            raise NotFlat("layer segments are not parallel")
    return steps


def _layer_stack(v_labels, w_labels, steps):
    """The stack the layer segments form: each layer's (length, unit step),
    the index of layer j's lattice line along the first step, and the rise
    (1 or -1) of that index from each layer to the next.

    The index of v is the cross product of the step and v, which two
    vertices share exactly when their difference is a multiple of the step,
    and which changes by at most 1 along an edge. Raises NotFlat unless the
    segments pass ``_check_layer_geometry`` and lie on consecutive lattice
    lines in one direction. ``steps`` is what ``_check_layer_geometry``
    returned for these segments, or None when it has not run: the area path
    of ``extract_flat_disk`` runs it before its Euler count, and the lines
    rule after it, when it builds the disk.
    """
    if steps is None:
        steps = _check_layer_geometry(v_labels, w_labels)
    step = steps[0][1]
    lines = [step[0] * v[1] - step[1] * v[0] for v in v_labels]
    rise = lines[1] - lines[0]
    if rise not in (1, -1) or any(b - a != rise for a, b in zip(lines, lines[1:])):
        raise NotFlat("layer segments do not lie on consecutive lattice lines")
    return tuple(steps), lines[0], rise


# -- the characteristic mapping -------------------------------------------------


def characteristic_map(c: FlagComplex, disk: CharDisk, rho: Simplex) -> Simplex:
    """Image of a disk simplex under the disk's surface map.

    rho is given in disk coordinates. The image is verified to be a simplex
    of the ambient complex, and the assignment respects inclusions by
    construction. Membership is tested on the disk's layer segments
    (``CharDisk.holds``).
    """
    for v in rho:
        if not disk.holds(v):
            raise NotASimplexOfDisk(f"{v} is not a vertex of the disk")
    if not all(disk.disk_adjacent(a, b) for a, b in combinations(rho.verts, 2)):
        raise NotASimplexOfDisk(f"{rho} is not a simplex of the disk")
    out = Simplex.of(disk.image(v) for v in rho)
    c.validate_simplex(out)
    return out
