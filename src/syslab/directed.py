"""Directed geodesics between vertices, layers, thickness, thick intervals.

A directed geodesic from x to y is the unique simplex sequence with
sigma_0 = x, sigma_n = y such that consecutive simplices are disjoint and
jointly span a simplex, and every interior sigma_i equals
Res(sigma_{i-1}) meet B_1(sigma_{i+1}). The constructive reading used here
is the iterated sphere projection
    sigma_{i+1} = span{ v in S_{n-i-1}(y) : v adjacent to all of sigma_i },
with both defining conditions re-verified as a mandatory postcondition, so
a non-systolic input or a truncation artifact fails loudly rather than
producing a quietly wrong sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Tuple

from . import eplane
from .complexes import FlagComplex, Simplex, ball_of_simplex
from .errors import (BoundaryUnsafe, ConditionViolated, ConstructionFailed,
                     MalformedProfile, PreconditionViolated)


@dataclass(frozen=True)
class DirectedGeodesic:
    """Simplices sigma_0..sigma_n read from source to target."""

    source: object
    target: object
    simplices: Tuple[Simplex, ...]

    def __len__(self):
        return len(self.simplices) - 1

    def __iter__(self):
        return iter(self.simplices)

    def __getitem__(self, i):
        return self.simplices[i]


class Layer:
    """Layer i between two vertices: the sphere intersection plus thickness.

    Thickness is defined relative to the two directed geodesics whose
    simplices the layer stores; thin means thickness at most 1.

    ``vertices`` is level i of the interval [x, y]. It is given either as a
    frozenset or as a callable that returns one; the callable runs when the
    level is first read. ``layers`` passes a callable on plane windows, whose
    construction tests layer membership with ``Layers.holds`` and never
    reads the level: only ``render`` and tests do.
    """

    __slots__ = ("index", "_vertices", "sigma", "tau", "thickness")

    def __init__(self, index: int, vertices, sigma: Optional[Simplex],
                 tau: Optional[Simplex], thickness: int):
        self.index = index
        self._vertices = vertices
        self.sigma = sigma
        self.tau = tau
        self.thickness = thickness

    @property
    def vertices(self) -> frozenset:
        if callable(self._vertices):
            self._vertices = self._vertices()
        return self._vertices

    def _key(self):
        return (self.index, self.vertices, self.sigma, self.tau, self.thickness)

    def __eq__(self, other):
        if not isinstance(other, Layer):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return (f"Layer(index={self.index}, sigma={self.sigma}, tau={self.tau}, "
                f"thickness={self.thickness})")

    @property
    def thin(self) -> bool:
        return self.thickness <= 1

    @property
    def thick(self) -> bool:
        return self.thickness > 1


class Layers(Sequence):
    """The full layer decomposition of a vertex pair, indexable by layer."""

    def __init__(self, c, x, y, items, sigma_geo, tau_geo):
        self.complex = c
        self.x = x
        self.y = y
        self.items = tuple(items)
        self.sigma_geo = sigma_geo
        self.tau_geo = tau_geo

    @property
    def n(self):
        return len(self.items) - 1

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def holds(self, i: int, v) -> bool:
        """Whether v lies in layer i. On a plane window this is the distance
        predicate d(x, v) == i and d(v, y) == n - i, and no level is built."""
        c = self.complex
        if c.plane_backed:
            dist = c.metric_hint
            return v in c and dist(self.x, v) == i and dist(v, self.y) == self.n - i
        return v in self.items[i].vertices

    def thickness_profile(self) -> Tuple[int, ...]:
        return tuple(layer.thickness for layer in self.items)

    def reversed(self) -> "Layers":
        """The decomposition of (y, x): layer i becomes layer n - i and the
        two directed geodesics swap roles."""
        items = [Layer(i, layer._vertices, layer.tau, layer.sigma, layer.thickness)
                 for i, layer in enumerate(self.items[::-1])]
        return Layers(self.complex, self.y, self.x, items, self.tau_geo, self.sigma_geo)


@dataclass(frozen=True)
class ThickInterval:
    """Indices (j, k) bracketing a maximal run of thick layers by thin ones."""

    j: int
    k: int

    def interior(self):
        return range(self.j + 1, self.k)


# -- safety -------------------------------------------------------------------


def require_pair_safe(c: FlagComplex, x, y) -> int:
    """Check the whole geodesic machinery between x and y is truncation-proof.

    Needs a trusted metric plus a margin of at least 1 on every vertex of
    the combinatorial interval, so links and residues there are complete.
    On a plane window the margin of v is the radius of ``plane_ball`` minus
    lattice_distance(center, v), and a norm is convex, so over the interval
    box the margin is least at one of the box's four corners
    (``eplane.interval_corners``): only the corners are checked, and the
    first failing one in that order is named. Every other complex scans
    each level of the interval and names the least vertex of margin below 1
    in the first level that has one. Returns d(x, y).
    """
    levels = _safe_levels(c, x, y)
    return c.metric_hint(x, y) if levels is None else len(levels) - 1


def _safe_levels(c: FlagComplex, x, y) -> Optional[tuple]:
    """The levels of the interval [x, y], once the margin rule allows them;
    None on a plane window, where the levels are read as distance
    predicates instead."""
    if x not in c or y not in c:
        raise PreconditionViolated(f"vertex not in complex: {x if x not in c else y}")
    if not c.trusts_metric:
        raise BoundaryUnsafe(
            "window metric is not trusted; materialize a convex window instead")
    if c.plane_backed:
        center, radius = c.plane_ball
        for v in eplane.interval_corners(x, y):
            if eplane.lattice_distance(center, v) >= radius:
                _refuse(v, x, y)
        return None
    levels = c.interval_levels(x, y)
    if not c.is_complete:
        for level in levels:
            unsafe = [v for v in level if c.margin(v) < 1]
            if unsafe:
                _refuse(min(unsafe), x, y)
    return levels


def _refuse(v, x, y):
    raise BoundaryUnsafe(f"interval vertex {v} touches the window boundary (pair {x}, {y})")


# -- construction ---------------------------------------------------------------


def directed_geodesic(c: FlagComplex, x, y) -> DirectedGeodesic:
    """The unique directed geodesic from x to y.

    Raises ConstructionFailed when a projection step is empty or not a
    clique, and ConditionViolated when the finished sequence fails either
    defining condition on re-verification.
    """
    return _project(c, x, y, _safe_levels(c, x, y))


def _project(c: FlagComplex, x, y, levels) -> DirectedGeodesic:
    """Project from x towards y through the interval levels read from x.

    With ``levels`` None (a plane window) a common neighbour lies in level
    i + 1 exactly when d(x, v) == i + 1 and d(v, y) == n - i - 1 under the
    closed-form metric, and that test replaces the level. Only its second
    half is evaluated: v is adjacent to sigma_i, which lies in level i, so
    d(x, v) <= i + 1, and d(v, y) == n - i - 1 forces d(x, v) >= i + 1."""
    dist = c.metric_hint
    n = dist(x, y) if levels is None else len(levels) - 1
    if n == 0:
        return DirectedGeodesic(x, y, (Simplex.of([x]),))
    nbrs = c.neighbors
    simplices = [Simplex.of([x])]
    for i in range(n - 1):
        current = simplices[-1].verts
        if levels is None:
            candidates = sorted(
                v for v in nbrs(current[0]).intersection(*map(nbrs, current[1:]))
                if dist(v, y) == n - i - 1)
        else:
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
    _verify_conditions(c, geo)
    return geo


def _verify_conditions(c: FlagComplex, geo: DirectedGeodesic):
    """Consecutive simplices are disjoint and span a simplex, and every
    interior sigma_i is Res(sigma_{i-1}) meet B_1(sigma_{i+1}).

    A repeated vertex is not adjacent to itself, so two simplices that
    jointly form a clique are disjoint; disjointness is only tested to name
    the failure. The spans make every simplex a clique of the complex, so
    the residue is read off as common neighbours without validating it
    again."""
    sims = geo.simplices
    for a, b in zip(sims, sims[1:]):
        if not c.is_clique(a.verts + b.verts):
            if not a.isdisjoint(b):
                raise ConditionViolated(f"simplices {a} and {b} are not disjoint")
            raise ConditionViolated(f"simplices {a} and {b} do not span a simplex")
    nbrs = c.neighbors
    for i, (before, here, after) in enumerate(zip(sims, sims[1:], sims[2:]), 1):
        res = nbrs(before.verts[0]).intersection(*map(nbrs, before.verts[1:]))
        if res.union(before.verts) & ball_of_simplex(c, after) != frozenset(here.verts):
            raise ConditionViolated(
                f"residue/ball condition fails at index {i} "
                f"between {geo.source} and {geo.target}")


# -- layers and thickness ---------------------------------------------------------


def layers(c: FlagComplex, x, y) -> Layers:
    """Layer decomposition with thickness from the two directed geodesics.

    The geodesic from y to x is reindexed to run in the same direction as
    the one from x to y, so layer i holds sigma_i and tau_i side by side.
    Thickness distances are measured in the ambient complex; layers are
    convex, so the value is realized inside the layer. On plane windows the
    levels are not built: each layer's vertices are computed when first read
    (see ``Layer``).
    """
    levels = _safe_levels(c, x, y)
    sigma_geo = _project(c, x, y, levels)
    tau_geo = _project(c, y, x, None if levels is None else levels[::-1])
    if levels is None:
        read = _LevelReader(c, x, y)
        levels = [partial(read, i) for i in range(len(sigma_geo) + 1)]
    n = len(levels) - 1
    items = []
    for i, level in enumerate(levels):
        sigma = sigma_geo[i]
        tau = tau_geo[n - i]
        items.append(Layer(i, level, sigma, tau, _thickness(c, sigma, tau)))
    return Layers(c, x, y, items, sigma_geo, tau_geo)


class _LevelReader:
    """Level i of [x, y] on call; all levels are built by the first call."""

    def __init__(self, c: FlagComplex, x, y):
        self.complex, self.x, self.y = c, x, y
        self.levels = None

    def __call__(self, i: int) -> frozenset:
        if self.levels is None:
            self.levels = self.complex.interval_levels(self.x, self.y)
        return self.levels[i]


def _thickness(c: FlagComplex, sigma: Simplex, tau: Simplex) -> int:
    """Largest ambient distance from a vertex of sigma to one of tau."""
    return max(c.true_distance(s, t) for s in sigma for t in tau)


def thick_intervals(layer_seq: Sequence[Layer]) -> list[ThickInterval]:
    """Maximal thick runs bracketed by thin layers.

    A thick layer adjacent to an endpoint has no thin bracket and cannot
    arise from a valid construction; it is reported as MalformedProfile.
    """
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


def map_geodesic(iso, geo: DirectedGeodesic) -> DirectedGeodesic:
    """Image of a directed geodesic under a plane isometry."""
    return DirectedGeodesic(
        iso(geo.source), iso(geo.target),
        tuple(Simplex.of(map(iso, s)) for s in geo.simplices))
