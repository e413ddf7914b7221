"""Hyperbolic isometries: translation length, displacement sets, axes.

An isometry is either a closed-form lattice-affine map of the plane
(``eplane.PlaneIsometry``) or a vertex-permutation table on a finite
complex (``TableAction``, which keeps its complex). Both answer ``apply``,
``power`` and ``displacement(v)``, the distance d(v, hv): the lattice metric
for plane maps, the table's own complex for tables. Only hyperbolicity,
translation length and the window guards of ``displacement_set`` and
``check_min_proximity`` (a plane map needs a plane window, a table a
complete complex and a window whose every vertex it maps) tell the two
apart. Displacement sets are always
reported relative to an explicit window; the minimal set is the
displacement set at the translation length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Tuple

from . import eplane
from .complexes import FlagComplex
from .directed import require_pair_safe
from .errors import (BoundaryUnsafe, Inconclusive, NoStableSegment,
                     NotPlaneBacked, NotTranslationLike, PreconditionViolated,
                     ScenarioParseError)
from .euclid import euclidean_geodesic, select_vertex_geodesic
from .exact import cross, norm_sq


@dataclass(frozen=True)
class TableAction:
    """A vertex permutation of a finite complex, checked for adjacency; it
    measures displacement in that complex, which equality ignores."""

    mapping: Tuple[Tuple[object, object], ...]
    complex: FlagComplex = field(compare=False, repr=False)

    @staticmethod
    def from_dict(c: FlagComplex, mapping: Dict) -> "TableAction":
        if set(mapping) != set(c.vertices()) or set(mapping.values()) != set(c.vertices()):
            raise PreconditionViolated("table is not a vertex bijection of the complex")
        for u in c.vertices():
            for w in c.neighbors(u):
                if not c.adjacent(mapping[u], mapping[w]):
                    raise PreconditionViolated(
                        f"table does not preserve adjacency on edge ({u}, {w})")
        return TableAction(tuple(sorted(mapping.items())), c)

    @cached_property
    def _table(self) -> Dict:
        return dict(self.mapping)

    def apply(self, v):
        return self._table[v]

    def displacement(self, v) -> int:
        return self.complex.true_distance(v, self.apply(v))

    def power(self, n: int) -> "TableAction":
        """The n-th power by repeated squaring: O(|V| log |n|)."""
        m = self._table
        if n < 0:
            m = {v: u for u, v in m.items()}
            n = -n
        out = {u: u for u in m}
        while n:
            if n & 1:
                out = {u: m[w] for u, w in out.items()}
            m = {u: m[w] for u, w in m.items()}
            n >>= 1
        return TableAction(tuple(sorted(out.items())), self.complex)


def parse_permutation_text(text: str) -> Dict:
    """Load the ``perm v1`` format: one ``u -> v`` line per vertex."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "perm v1":
        raise ScenarioParseError("missing 'perm v1' header")
    mapping = {}
    for ln in lines[1:]:
        parts = [p.strip() for p in ln.split("->")]
        if len(parts) != 2:
            raise ScenarioParseError(f"bad permutation line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ScenarioParseError(f"non-integer vertex in {ln!r}") from exc
        if u in mapping:
            raise ScenarioParseError(f"duplicate source vertex {u}")
        mapping[u] = v
    return mapping


# -- hyperbolicity and translation length ------------------------------------


def is_hyperbolic(h: eplane.PlaneIsometry | TableAction) -> bool:
    """Whether h fixes no simplex.

    Closed-form case: some power of a lattice-affine map is a translation;
    the map fixes a simplex exactly when that translation is trivial. Table
    case: scan all cliques of the table's complex for a setwise-fixed one;
    on a window this cannot be certified and is reported as inconclusive.
    """
    if isinstance(h, eplane.PlaneIsometry):
        return h.translation_part_of_power() != (0, 0)
    c = h.complex
    if not c.is_complete:
        raise Inconclusive("cannot certify hyperbolicity on a truncated window")
    mapping = h._table
    for clique in _all_cliques(c):
        if {mapping[v] for v in clique} == set(clique):
            return False
    return True


def _all_cliques(c: FlagComplex):
    verts = sorted(c.vertices())
    stack = [((v,), [u for u in c.neighbors(v) if u > v]) for v in verts]
    while stack:
        clique, ext = stack.pop()
        yield clique
        for i, u in enumerate(ext):
            stack.append((clique + (u,),
                          [w for w in ext[i + 1:] if c.adjacent(u, w)]))


def translation_length(h: eplane.PlaneIsometry | TableAction) -> int:
    """Minimum of the displacement function (always attained).

    Closed-form case: the displacement is invariant under a finite-index
    translation sublattice, so scanning a ball whose radius dominates the
    shift, and confirming the scan has stabilized, is exact. Table case:
    the minimum over the vertices of the table's complex.
    """
    if isinstance(h, eplane.PlaneIsometry):
        if not is_hyperbolic(h):
            raise PreconditionViolated("translation length needs a hyperbolic isometry")
        shift = h.shift
        r = 2 * (abs(shift[0]) + abs(shift[1])) + 8
        best_r, best_r2 = (min(h.displacement(v) for v in eplane.ball_margins((0, 0), s))
                           for s in (r, r + 2))
        if best_r != best_r2:
            raise PreconditionViolated("displacement scan did not stabilize")
        return best_r
    if not h.complex.is_complete:
        raise BoundaryUnsafe("translation length on tables needs a complete complex")
    return min(h.displacement(v) for v in h.complex.vertices())


# -- displacement sets ----------------------------------------------------------


@dataclass(frozen=True)
class DisplacementSet:
    """Vertices moved at most K inside a stated window."""

    K: int
    vertices: frozenset
    window: str

    def __contains__(self, v):
        return v in self.vertices

    def __len__(self):
        return len(self.vertices)


def displacement_set(h: eplane.PlaneIsometry | TableAction, K: int,
                     c: FlagComplex) -> DisplacementSet:
    """Exact filter of the window by displacement at most K.

    Plane maps evaluate in closed form and need a plane window
    (``NotPlaneBacked`` elsewhere: a book vertex has no lattice image);
    tables measure in their own complex, which must be complete: on a
    truncated window a table's distances are not certified. A window with
    a vertex the table does not map is ``PreconditionViolated``.
    """
    if isinstance(h, TableAction) and not h.complex.is_complete:
        raise BoundaryUnsafe("table displacement on a truncated window")
    _require_window(h, c)
    verts = frozenset(v for v in c.vertices() if h.displacement(v) <= K)
    return DisplacementSet(K, verts, c.name or "window")


def _require_window(h: eplane.PlaneIsometry | TableAction, c: FlagComplex):
    """A plane map acts on the lattice, so only a plane window holds its
    images; a table maps only the vertices it lists, so every vertex of c
    must be one of them."""
    if isinstance(h, eplane.PlaneIsometry):
        if not c.plane_backed:
            raise NotPlaneBacked(f"plane isometry {h} on {c.name or 'a complex'}, "
                                 f"which is not a plane window")
        return
    table = h._table
    for v in c.vertices():
        if v not in table:
            raise PreconditionViolated(
                f"table of {h.complex.name or 'its complex'} has no image of "
                f"vertex {v} of {c.name or 'the complex'}")


def min_set(h: eplane.PlaneIsometry | TableAction, c: FlagComplex) -> DisplacementSet:
    return displacement_set(h, translation_length(h), c)


# -- Euclidean geodesics inside the minimal set ----------------------------------


@dataclass(frozen=True)
class MinProximityEntry:
    pair: Tuple
    max_displacement: int
    witness_vertex: object


@dataclass(frozen=True)
class MinProximityReport:
    bound: int
    entries: Tuple[MinProximityEntry, ...]
    empirical_max: int

    @property
    def ok(self) -> bool:
        return self.empirical_max <= self.bound


def check_min_proximity(c: FlagComplex, h: eplane.PlaneIsometry | TableAction,
                        pairs: Iterable[Tuple]) -> MinProximityReport:
    """Displacement of Euclidean geodesics between minimally-displaced pairs.

    Every vertex of every simplex of the Euclidean geodesic between two
    vertices of the minimal set must be displaced at most 9*L(h) + 6; the
    empirical maximum and its witness are recorded alongside the bound.
    """
    _require_window(h, c)
    L = translation_length(h)
    bound = 9 * L + 6
    entries: List[MinProximityEntry] = []
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
        entries.append(MinProximityEntry((x, y), worst, witness))
        top = max(top, worst)
    return MinProximityReport(bound, tuple(entries), top)


# -- invariant geodesics on the plane ----------------------------------------------


def invariant_geodesic_on_plane(h: eplane.PlaneIsometry, x: eplane.Axial,
                                length: int) -> Tuple[eplane.Axial, ...]:
    """An h-invariant combinatorial geodesic hugging the translation axis.

    h must act as a nonzero translation. One period is built from x to h(x)
    by nearest-lattice stepping along the straight line through their
    embeddings (ties broken toward the right of the line, which is stable
    under rotation conjugation), then repeated through powers of h. The
    result stays within CAT(0) distance 1 of the axis and is verified to be
    a geodesic. Distances to the axis line are compared through the axial
    cross product, which is sqrt(3)/2 times the Euclidean one.
    """
    if not h.is_translation or h.shift == (0, 0):
        raise NotTranslationLike(f"{h} does not act as a nonzero translation")
    target = h.apply(x)
    axis_dir = _diff(target, x)
    period = [x]
    current = x
    while current != target:
        remaining = eplane.lattice_distance(current, target)
        options = []
        for nb in eplane.neighbors(current):
            if eplane.lattice_distance(nb, target) != remaining - 1:
                continue
            offset = cross(axis_dir, _diff(nb, x))
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
    _assert_geodesic(vertices)
    _assert_line_distance(vertices, x, axis_dir)
    return tuple(vertices)


def _assert_geodesic(vertices):
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            if eplane.lattice_distance(vertices[i], vertices[j]) != j - i:
                raise PreconditionViolated(
                    f"constructed sequence is not a geodesic at ({i}, {j})")


def _diff(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _assert_line_distance(vertices, x, axis_dir):
    axis_sq = norm_sq(axis_dir)
    for v in vertices:
        off = cross(axis_dir, _diff(v, x))
        if 3 * off * off > 4 * axis_sq:  # distance > 1
            raise PreconditionViolated(f"vertex {v} strays beyond distance 1 of the axis")


def axis_line_max_distance_sq(vertices, h: eplane.PlaneIsometry, x) -> Fraction:
    """Exact squared CAT(0) distance from the farthest vertex to the axis
    line: (3/4) * cross^2 / |axis|^2 with the axial cross product."""
    axis_dir = _diff(h.apply(x), x)
    top = max((cross(axis_dir, _diff(v, x)) ** 2 for v in vertices), default=0)
    return Fraction(3 * top, 4 * norm_sq(axis_dir))


# -- central good geodesics across truncations ---------------------------------------


# how many of the longest truncations must agree on the central segment
_STABILITY_WINDOW = 3


@dataclass(frozen=True)
class AxisApprox:
    """A finite central segment stable across increasing truncations."""

    vertices: Tuple
    K: int
    truncation: int
    stride: int
    window: str


def central_good_geodesic(c: FlagComplex, h: eplane.PlaneIsometry | TableAction, x,
                          n: int, *, stride: int = 1) -> AxisApprox:
    """Finite shadow of the limit construction of a central good geodesic.

    Builds the selected vertex geodesic between h^-m(x) and h^m(x) for
    m = 1..n (times the stride), aligns them at their centers, and returns
    the longest contiguous run of offsets on which the last three
    truncations agree. The measured K is the maximal displacement along the
    segment.
    """
    if n < 1:
        raise PreconditionViolated("need n >= 1")
    geos: List[Tuple] = []
    for m in range(1, n + 1):
        lo = h.power(-m * stride).apply(x)
        hi = h.power(m * stride).apply(x)
        d = require_pair_safe(c, lo, hi)
        if d % 2:
            raise PreconditionViolated(
                f"d(h^-{m * stride} x, h^{m * stride} x) = {d} is odd; "
                "pass a stride that makes it even")
        geos.append(select_vertex_geodesic(euclidean_geodesic(c, lo, hi,
                                                              check_reversal=False)))
    centers = [len(g) // 2 for g in geos]
    tail = geos[max(0, n - _STABILITY_WINDOW):]
    tail_centers = centers[max(0, n - _STABILITY_WINDOW):]

    def agree(offset: int) -> bool:
        vals = [g[ctr + offset] for g, ctr in zip(tail, tail_centers)
                if 0 <= ctr + offset < len(g)]
        return len(vals) >= 1 and all(v == vals[0] for v in vals[1:])

    if not agree(0):
        raise NoStableSegment(
            f"truncations never agreed at the center; family: {geos}")
    lo_off = 0
    while agree(lo_off - 1):
        lo_off -= 1
    hi_off = 0
    while agree(hi_off + 1):
        hi_off += 1
    last, ctr = geos[-1], centers[-1]
    segment = tuple(last[ctr + o] for o in range(lo_off, hi_off + 1)
                    if 0 <= ctr + o < len(last))
    K = max(h.displacement(v) for v in segment)
    return AxisApprox(segment, K, n, stride, c.name or "window")


@dataclass(frozen=True)
class ConvergenceReport:
    distances: Tuple[int, ...]
    bound: int
    cocompactness_radius: int

    @property
    def ok(self) -> bool:
        return all(d <= self.bound for d in self.distances)


def convergence_diagnostic(c: FlagComplex, h: eplane.PlaneIsometry | TableAction, x,
                           axis: AxisApprox, n_max: int) -> ConvergenceReport:
    """Distances from the h-orbit of x to the central segment.

    Bounded by d(x, segment center) plus the measured cocompactness radius
    of the K-displacement set over the segment's window; every orbit point
    must stay inside the margin-safe part of the window.
    """
    gamma = axis.vertices
    disp = displacement_set(h, axis.K, c)
    radius = 0
    for v in disp.vertices:
        if not c.is_complete and c.margin(v) < 1:
            continue
        radius = max(radius, min(c.true_distance(v, g) for g in gamma))
    origin = gamma[len(gamma) // 2]
    bound = c.true_distance(x, origin) + radius
    distances = []
    for m in range(1, n_max + 1):
        pt = h.power(m).apply(x)
        if pt not in c:
            raise BoundaryUnsafe(f"orbit point h^{m}(x) = {pt} leaves the window")
        distances.append(min(c.true_distance(pt, g) for g in gamma))
    return ConvergenceReport(tuple(distances), bound, radius)
