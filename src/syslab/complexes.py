"""Flag simplicial complexes stored as their 1-skeleton graphs.

A flag complex is determined by its graph: the simplices are exactly the
cliques, so nothing beyond the symmetric adjacency relation is ever stored.
Finite windows cut out of infinite complexes carry per-vertex margins (hop
distance to the truncation boundary); metric queries that truncation could
corrupt raise BoundaryUnsafe instead of returning a possibly wrong value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable, Mapping, Optional

import numpy as np

from . import eplane
from .errors import (BoundaryUnsafe, NotASimplex, PreconditionViolated,
                     ScenarioParseError, Unreachable)

VertexId = Hashable


@dataclass(frozen=True)
class Simplex:
    """A nonempty clique of the owning complex, kept as a sorted vertex tuple."""

    verts: tuple

    @staticmethod
    def of(vertices: Iterable[VertexId]) -> "Simplex":
        vs = tuple(sorted(set(vertices)))
        if not vs:
            raise NotASimplex("empty simplex")
        return Simplex(vs)

    def __iter__(self):
        return iter(self.verts)

    def __len__(self):
        return len(self.verts)

    def __contains__(self, v):
        return v in self.verts

    def isdisjoint(self, other: "Simplex") -> bool:
        return set(self.verts).isdisjoint(other.verts)

    def __repr__(self):
        inner = ",".join(map(str, self.verts))
        return f"<{inner}>"


class FlagComplex:
    """Uniformly locally finite graph; simplices are its cliques.

    The graph is immutable after construction and all queries are
    read-only.

    ``margin`` maps each vertex to its hop distance to the nearest vertex
    missing from a materialized window; ``None`` marks a complete complex.
    ``convex_window`` asserts the window is a combinatorial ball of a locally
    6-large complex, whose convexity makes every internal BFS distance true.
    ``systolic`` attests that the complex is systolic (connected, simply
    connected, locally 6-large), which ``is_convex`` needs; it is taken on
    trust, never verified, and only constructors that hold it by
    construction pass it.
    ``plane_ball = (center, radius)`` is the whole input of a ball window of
    the triangulated plane in axial coordinates: the complex generates its
    graph, each vertex of ``eplane.ball_margins`` joined to its lattice
    neighbours in the ball, and refuses ``adjacency`` or ``margin`` beside
    it. Balls of a systolic complex are convex (Januszkiewicz-Swiatkowski,
    Simplicial nonpositive curvature, 2006), so the ball settles every
    metric question: the window is a ``convex_window`` and ``systolic``
    (a convex subcomplex of the systolic plane), ``plane_backed`` is
    ``plane_ball is not None``, ``metric_hint`` is then
    ``eplane.lattice_distance`` (``None`` elsewhere) and the margin of v is
    radius - lattice_distance(center, v). A given graph is checked for
    self-loops and symmetry.

    ``translation_memo`` is the one mutable cache, and only plane windows
    have it (``None`` elsewhere): ``euclid.goodness_constant`` maps each
    difference y - x to ``(x0, simplex vertex tuples)`` of the Euclidean
    geodesic it built from x0 to x0 + (y - x), so every call on the window
    shares one construction per difference. It is bounded by the
    differences that fit in the window and lives as long as the window.
    """

    def __init__(self, adjacency: Optional[Mapping[VertexId, Iterable[VertexId]]] = None, *,
                 margin: Optional[Mapping[VertexId, int]] = None,
                 convex_window: bool = False,
                 systolic: bool = False,
                 plane_ball: Optional[tuple] = None,
                 name: str = ""):
        plane_backed = plane_ball is not None
        if plane_backed:
            if adjacency is not None or margin is not None:
                raise PreconditionViolated("a plane window is generated from plane_ball alone")
            margin = eplane.ball_margins(*plane_ball)
            # neighbour sets and interval levels hold the window's own vertex
            # objects: fresh tuples kept in them would pin allocator pools.
            # A lattice neighbour outside the ball maps to None.
            own = {v: v for v in margin}
            adj = {v: frozenset(filter(None, map(own.get, eplane.neighbors(v))))
                   for v in margin}
            convex_window = systolic = True
        else:
            own = None
            adj = {v: frozenset(nbrs) for v, nbrs in adjacency.items()}
            for v, nbrs in adj.items():
                for u in nbrs:
                    if u == v:
                        raise PreconditionViolated(f"self-loop at {v}")
                    if u not in adj or v not in adj[u]:
                        raise PreconditionViolated(f"asymmetric adjacency {v}-{u}")
        self._adj = adj
        self._own = own
        self._margin = dict(margin) if margin is not None else None
        self.metric_hint = eplane.lattice_distance if plane_backed else None
        self.convex_window = convex_window
        self.systolic = systolic
        self.plane_backed = plane_backed
        self.plane_ball = plane_ball
        self.translation_memo = {} if plane_backed else None
        self.name = name
        self._index = None
        self._dist_matrix = None

    # -- basic structure ------------------------------------------------------

    def vertices(self):
        return self._adj.keys()

    def __len__(self):
        return len(self._adj)

    def __contains__(self, v):
        return v in self._adj

    def neighbors(self, v) -> frozenset:
        return self._adj[v]

    def adjacent(self, u, v) -> bool:
        return v in self._adj[u]

    def vertex(self, v):
        """The plane window's own object for vertex v, which results keep
        instead of an equal fresh tuple (see ``interval_levels``)."""
        return self._own[v]

    @property
    def is_complete(self) -> bool:
        return self._margin is None

    @property
    def trusts_metric(self) -> bool:
        return self.is_complete or self.convex_window or self.plane_backed

    def margin(self, v) -> Optional[int]:
        """Hop distance from v to the window boundary; None means unbounded."""
        if self._margin is None:
            return None
        return self._margin[v]

    def is_clique(self, vertices: Iterable[VertexId]) -> bool:
        """Whether every vertex is adjacent to all of its later partners;
        a repeated vertex is not adjacent to itself."""
        vs = tuple(vertices)
        for i in range(1, len(vs)):
            if not self._adj[vs[i - 1]].issuperset(vs[i:]):
                return False
        return True

    def validate_simplex(self, s: Simplex) -> Simplex:
        for v in s:
            if v not in self._adj:
                raise NotASimplex(f"vertex {v} not in complex")
        if not self.is_clique(s):
            raise NotASimplex(f"{s} is not a clique")
        return s

    # -- internal metric -------------------------------------------------------

    def bfs_distances(self, source, *, budget: Optional[int] = None,
                      until: Iterable[VertexId] = ()) -> dict:
        """Distance map from source, truncated at the given radius.

        With ``until`` the search stops as soon as every vertex in it is
        discovered; each of them, and every vertex nearer to source than the
        last of them, then holds its exact distance.
        """
        return _bfs(self._adj, source, budget, until)

    def true_distance(self, x, y, budget: Optional[int] = None) -> int:
        """Distance trusted to equal the distance in the underlying complex.

        Valid on complete complexes, on convex windows (any geodesic between
        window vertices stays inside a ball window), and wherever an exact
        closed-form metric is attached. Adjacent vertices are answered
        without a search: most calls (thickness, goodness) ask for
        distances of at most 1.
        """
        if x == y:
            return 0
        if self.metric_hint is not None:
            d = self.metric_hint(x, y)
            if budget is not None and d > budget:
                raise Unreachable(f"distance {d} exceeds budget {budget}")
            return d
        if y in self._adj[x] and (budget is None or budget > 0):
            return 1
        dist = _bfs(self._adj, x, budget, (y,))
        if y in dist:
            return dist[y]
        raise Unreachable(f"no path {x} -> {y}"
                          + (f" within budget {budget}" if budget is not None else ""))

    def interval_levels(self, x, y) -> tuple:
        """The interval [x, y] as its d(x, y) + 1 level sets.

        Level i holds the vertices on x-y geodesics at distance i from x.
        On plane-backed complexes level i is the lattice segment between the
        i-th vertices of the two corner geodesics (``eplane.corner_geodesic``
        from x and from y), which bound the interval box; only its members
        of the complex are kept, as the complex's own vertex objects. The
        plane pipeline reads layers as distance predicates (``directed``)
        and calls this only to name a margin violation, or when a caller
        reads ``Layer.vertices``. Other complexes run one BFS from x that
        stops once y is discovered, and walk back from y along edges that
        step one closer to x.
        """
        if self.plane_backed:
            own = self._own
            return tuple(
                frozenset(own[v] for v in eplane.segment(a, b) if v in own)
                for a, b in zip(eplane.corner_geodesic(x, y),
                                reversed(eplane.corner_geodesic(y, x))))
        if x == y:
            return (frozenset([x]),)
        from_x = self.bfs_distances(x, until=(y,))
        if y not in from_x:
            raise Unreachable(f"no path {x} -> {y}")
        level = frozenset([y])
        levels = [level]
        for d in range(from_x[y] - 1, -1, -1):
            level = frozenset(u for v in level for u in self._adj[v] if from_x.get(u) == d)
            levels.append(level)
        return tuple(levels[::-1])

    def _vertex_index(self):
        """Sorted vertices and their positions, the index of ``distance_matrix``;
        only its readers use it."""
        if self._index is None:
            order = sorted(self._adj)
            self._index = (order, {v: i for i, v in enumerate(order)})
        return self._index

    def distance_matrix(self) -> np.ndarray:
        """All-pairs distance matrix (int32, -1 for unreachable); cached.

        No library code reads it: only the benchmark's ``BookMetric.setup``
        (which warms it) and the test oracles ``dense_is_convex`` and
        ``streamed_is_convex`` still do."""
        if self._dist_matrix is None:
            order, pos = self._vertex_index()
            n = len(order)
            mat = np.full((n, n), -1, dtype=np.int32)
            for i, v in enumerate(order):
                dmap = self.bfs_distances(v)
                for u, d in dmap.items():
                    mat[i, pos[u]] = d
            self._dist_matrix = mat
        return self._dist_matrix


def _bfs(adj, source, budget: Optional[int], until: Iterable[VertexId]) -> dict:
    """The breadth-first search behind ``bfs_distances`` and ``true_distance``:
    distances from source, no vertex at distance ``budget`` or more expanded,
    stopping once every vertex of ``until`` is discovered."""
    pending = set(until)
    pending.discard(source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        if budget is not None and dv >= budget:
            continue
        for u in adj[v]:
            if u not in dist:
                dist[u] = dv + 1
                if pending and u in pending:
                    pending.discard(u)
                    if not pending:
                        return dist
                queue.append(u)
    return dist


# -- public metric operations ----------------------------------------------


def distance(c: FlagComplex, x, y, budget: Optional[int] = None) -> int:
    """Edge-path distance between two vertices.

    On a materialized window the value is only certified when truncation
    cannot have affected it: the window is a convex ball, a closed-form
    metric backs it, or the distance fits inside one endpoint's margin.
    """
    _require_members(c, x, y)
    d = c.true_distance(x, y, budget)
    _certify(c, x, y, d)
    return d


def interval(c: FlagComplex, x, y) -> frozenset:
    """All vertices on geodesics from x to y: { v : d(x,v) + d(v,y) = d(x,y) }.

    The union of ``interval_levels``, certified like ``distance``."""
    _require_members(c, x, y)
    levels = c.interval_levels(x, y)
    _certify(c, x, y, len(levels) - 1)
    return frozenset().union(*levels)


def _require_members(c: FlagComplex, x, y):
    if x not in c or y not in c:
        raise PreconditionViolated(f"vertex not in complex: {x if x not in c else y}")


def _certify(c: FlagComplex, x, y, d: int):
    """The margin rule for a distance d(x, y) = d found inside the window."""
    if not c.trusts_metric:
        mx, my = c.margin(x), c.margin(y)
        if d > max(mx, my):
            raise BoundaryUnsafe(
                f"distance {d} between {x} and {y} exceeds both margins ({mx}, {my})")


def is_convex(c: FlagComplex, vertices: Iterable[VertexId],
              radius_cap: Optional[int] = None) -> bool:
    """Whether every geodesic between members stays inside the vertex set A.

    The local criterion, which reads only A and its neighbours: in a
    systolic complex A is convex exactly when it is connected and no vertex
    outside A is adjacent to two non-adjacent members. Necessity is plain:
    such a vertex is the middle of a geodesic between the two. Sufficiency
    is Januszkiewicz-Swiatkowski, Simplicial nonpositive curvature, Publ.
    IHES 104 (2006), Section 7: the criterion makes the full subcomplex
    spanned by A 3-convex, hence locally 3-convex, and a connected, locally
    3-convex subcomplex of a systolic complex is convex (the same section
    derives the convexity of balls from it; the lemma numbers are not
    cited here because they were not checked against the published text,
    and the criterion is tested against the all-pairs oracles). Elsewhere
    the criterion can be wrong: in a hexagon 0-1-2-3-4-5 the path 0-1-2-3
    passes it, yet 0-5-4-3 is a second geodesic. So a complex not attested
    ``systolic`` raises ``PreconditionViolated``. On a convex ball window no
    margin condition is needed: a common neighbour of two window vertices
    at distance 2 lies on a geodesic between them, so inside the window.

    ``radius_cap`` is unread. It bounded the memory of the former all-pairs
    kernel (now ``tests/oracles.streamed_is_convex``) and stays a third
    positional parameter while the benchmark's ``BookMetric.run`` passes it.
    """
    if not c.systolic:
        raise PreconditionViolated(
            f"convexity by the local criterion needs a systolic complex; "
            f"{c.name or 'this complex'} is not attested systolic")
    A = set()
    for v in vertices:
        if v not in c:
            raise PreconditionViolated(f"vertex not in complex: {v}")
        A.add(v)
    if len(A) <= 1:
        return True
    start = next(iter(A))
    reached = {start}
    stack = [start]
    ring = {}       # vertex outside A -> its members of A walked so far
    while stack:
        a = stack.pop()
        around = c.neighbors(a)
        for u in around:
            if u in A:
                if u not in reached:
                    reached.add(u)
                    stack.append(u)
            else:
                met = ring.setdefault(u, [])
                if not around.issuperset(met):
                    return False
                met.append(a)
    return len(reached) == len(A)


@dataclass(frozen=True)
class LargenessReport:
    ok: bool
    vertices_checked: int
    witness_vertex: Optional[VertexId] = None
    witness_cycle: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def check_local_6_large(c: FlagComplex) -> LargenessReport:
    """Search every vertex link for induced 4- and 5-cycles.

    Links of a clique complex are flag by construction, so flagness is not
    searched. A hit is returned with its witness cycle; links are small
    (degree-bounded), so subset enumeration is exact and cheap.
    """
    checked = 0
    for v in sorted(c.vertices()):
        checked += 1
        link = sorted(c.neighbors(v))
        for size in (4, 5):
            if len(link) < size:
                continue
            for subset in combinations(link, size):
                cyc = _induced_cycle(c, subset)
                if cyc is not None:
                    return LargenessReport(False, checked, v, cyc)
    return LargenessReport(True, checked)


def _induced_cycle(c, subset):
    """Return the subset ordered as a cycle when it induces one, else None."""
    deg = {}
    edges = 0
    for u, w in combinations(subset, 2):
        if c.adjacent(u, w):
            edges += 1
            deg[u] = deg.get(u, 0) + 1
            deg[w] = deg.get(w, 0) + 1
    n = len(subset)
    if edges != n or any(deg.get(u, 0) != 2 for u in subset):
        return None
    # walk the cycle to present a witness in order
    start = subset[0]
    walk = [start]
    prev = None
    while len(walk) < n:
        nxt = [u for u in subset if u != prev and u != walk[-1] and c.adjacent(walk[-1], u)]
        prev = walk[-1]
        walk.append(nxt[0])
    return tuple(walk)


def residue(c: FlagComplex, s: Simplex) -> frozenset:
    """Vertex set of Res(s): s plus every vertex adjacent to all of s."""
    c.validate_simplex(s)
    first, *rest = s.verts
    return c.neighbors(first).intersection(*map(c.neighbors, rest)).union(s.verts)


def ball_of_simplex(c: FlagComplex, s: Simplex) -> frozenset:
    """Vertices of B_1(s): s plus everything adjacent to at least one vertex."""
    return frozenset(s.verts).union(*map(c.neighbors, s.verts))


# -- materialization and file format ----------------------------------------


def materialize_window(center, neighbors_fn, radius: int, *,
                       convex=True, name="") -> FlagComplex:
    """Cut the radius-ball around center out of an implicit infinite complex,
    such as a book, given by its neighbour function: one BFS to the radius,
    each vertex tagged with its hop margin to the truncation boundary (radius
    minus its BFS depth), which the margin rule consults later. Plane windows
    are generated from their ball instead (``eplane.window``). ``convex``
    asserts that the ball is convex, which holds because the ambient complex
    is systolic; so a convex window is attested ``systolic`` too (a convex
    subcomplex of a systolic complex is systolic)."""
    if radius < 0:
        raise PreconditionViolated("radius must be >= 0")
    depth = {center: 0}
    inner = {}
    queue = deque([center])
    while queue:
        v = queue.popleft()
        if depth[v] == radius:
            continue
        inner[v] = around = neighbors_fn(v)
        for u in around:
            if u not in depth:
                depth[u] = depth[v] + 1
                queue.append(u)
    # every neighbour of a vertex inside the radius is in the window, so only
    # the rim's neighbour lists need filtering
    adjacency = {v: inner[v] if v in inner else [u for u in neighbors_fn(v) if u in depth]
                 for v in depth}
    margin = {v: radius - d for v, d in depth.items()}
    return FlagComplex(adjacency, margin=margin, convex_window=convex,
                       systolic=convex, name=name)


def parse_complex_text(text: str, name="") -> FlagComplex:
    """Load the ``flagcomplex v1`` edge-list format."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "flagcomplex v1":
        raise ScenarioParseError("missing 'flagcomplex v1' header")
    adjacency: dict = {}
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ScenarioParseError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ScenarioParseError(f"non-integer vertex in {ln!r}") from exc
        if u < 0 or v < 0:
            raise ScenarioParseError(f"negative vertex id in {ln!r}")
        if u == v:
            raise ScenarioParseError(f"self-loop {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ScenarioParseError(f"duplicate edge {u} {v}")
        seen.add(key)
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    return FlagComplex(adjacency, name=name)


def load_complex(path) -> FlagComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex_text(fh.read(), name=str(path))


def dump_complex(c: FlagComplex) -> str:
    lines = ["flagcomplex v1"]
    for v in sorted(c.vertices()):
        for u in sorted(c.neighbors(v)):
            if v < u:
                lines.append(f"{v} {u}")
    return "\n".join(lines) + "\n"
