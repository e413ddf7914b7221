"""Directed geodesics between vertices, layers, thickness, thick intervals.

A directed geodesic from x to y is the unique simplex sequence with
sigma_0 = x, sigma_n = y such that consecutive simplices are disjoint and
jointly span a simplex, and every interior sigma_i equals
Res(sigma_{i-1}) meet B_1(sigma_{i+1}). The constructive reading used here
is the iterated sphere projection
    sigma_{i+1} = span{ v in S_{n-i-1}(y) : v adjacent to all of sigma_i },
with both defining conditions re-verified as a postcondition, so a
non-systolic input or a truncation artifact fails loudly rather than
producing a quietly wrong sequence. On a plane window the sequence has a
closed form (``eplane.directed_simplices``) and is certified in O(n) on
its lattice tuples instead (``_check_chain``): every vertex lies in the
window, it runs from x to y, and consecutive simplices are disjoint and
jointly form a lattice clique. The residue/ball condition is not checked
there at run time; the projection with its full postcondition is the
closed form's test oracle. ``_plane_chain`` hands the certified tuples to
``euclid``'s one-pass plane construction; ``_closed_form`` maps them to the
window's own vertex objects for ``directed_geodesic`` and ``layers``, which
builds no level there (``Layers.levels`` is None).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

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


class Layer(NamedTuple):
    """Layer i between two vertices: sigma_i and tau_i of the two directed
    geodesics, side by side, and the thickness they realize; thin means
    thickness at most 1. The layer's vertices, level i of the interval
    [x, y], are the decomposition's (``Layers.levels``)."""

    index: int
    sigma: Optional[Simplex]
    tau: Optional[Simplex]
    thickness: int

    @property
    def thin(self) -> bool:
        return self.thickness <= 1

    @property
    def thick(self) -> bool:
        return self.thickness > 1


class Layers(Sequence):
    """The full layer decomposition of a vertex pair, indexable by layer.

    ``levels`` is the tuple of interval levels the decomposition was built
    on, as ``_safe_levels`` returned it, or None on a plane window, which
    never builds them."""

    def __init__(self, c, x, y, items, sigma_geo, tau_geo, levels):
        self.complex = c
        self.x = x
        self.y = y
        self.items = tuple(items)
        self.n = len(self.items) - 1
        self.sigma_geo = sigma_geo
        self.tau_geo = tau_geo
        self.levels = levels

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def thickness_profile(self) -> Tuple[int, ...]:
        return tuple(layer.thickness for layer in self.items)

    def reversed(self) -> "Layers":
        """The decomposition of (y, x): layer i becomes layer n - i and the
        two directed geodesics swap roles."""
        items = [Layer(i, layer.tau, layer.sigma, layer.thickness)
                 for i, layer in enumerate(self.items[::-1])]
        return Layers(self.complex, self.y, self.x, items, self.tau_geo, self.sigma_geo,
                      None if self.levels is None else self.levels[::-1])


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
    return c.true_distance(x, y) if levels is None else len(levels) - 1


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

    On a plane window it is the closed form of ``eplane.directed_simplices``,
    certified on its lattice tuples by ``_check_chain``; elsewhere it is the
    projection of ``_project``, re-verified by ``_verify_conditions``. Raises
    ConstructionFailed when a projection step is empty or not a clique, and
    ConditionViolated when the finished sequence fails its check.
    """
    levels = _safe_levels(c, x, y)
    if levels is None:
        return _closed_form(c, x, y)
    return _project(c, x, y, levels)


def _closed_form(c: FlagComplex, x, y) -> DirectedGeodesic:
    """The directed geodesic from x to y on a plane window: the certified
    tuples of ``_plane_chain`` on the window's own vertex objects."""
    own = c.vertex
    return DirectedGeodesic(x, y, tuple(Simplex(tuple(map(own, verts)))
                                       for verts in _plane_chain(c, x, y)))


def _plane_chain(c: FlagComplex, x, y) -> Tuple[Tuple, ...]:
    """The simplices of the directed geodesic from x to y on a plane window
    as sorted lattice tuples, from ``eplane.directed_simplices`` once the
    margin rule has passed the pair, certified by ``_check_chain``."""
    sims = eplane.directed_simplices(x, y)
    _check_chain(c, sims, x, y)
    return sims


def _check_chain(c: FlagComplex, sims, source, target):
    """The certificate of a plane directed geodesic given as vertex tuples:
    every vertex lies in the window; consecutive tuples are disjoint and
    jointly form a lattice clique, which on a ball of the lattice is a
    simplex of the window (the span check of ``_check_spans``, with its
    refusal texts); and the tuples run from (source,) to (target,). The
    residue/ball condition of ``_verify_conditions`` is not checked."""
    inside = c.vertices()
    for s in sims:
        for v in s:
            if v not in inside:
                raise ConditionViolated(f"simplex {Simplex(s)} leaves the window at {v}")
    for a, b in zip(sims, sims[1:]):
        if not eplane._lattice_clique(a + b):
            if not set(a).isdisjoint(b):
                raise ConditionViolated(
                    f"simplices {Simplex(a)} and {Simplex(b)} are not disjoint")
            raise ConditionViolated(
                f"simplices {Simplex(a)} and {Simplex(b)} do not span a simplex")
    if sims[0] != (source,) or sims[-1] != (target,):
        raise ConditionViolated(f"simplices do not run from {source} to {target}")


def _check_spans(c: FlagComplex, sims):
    """Consecutive simplices are disjoint and jointly span a simplex. A
    repeated vertex is not adjacent to itself, so two simplices that jointly
    form a clique are disjoint; disjointness is only tested to name the
    failure."""
    for a, b in zip(sims, sims[1:]):
        if not c.is_clique(a.verts + b.verts):
            if not a.isdisjoint(b):
                raise ConditionViolated(f"simplices {a} and {b} are not disjoint")
            raise ConditionViolated(f"simplices {a} and {b} do not span a simplex")


def _project(c: FlagComplex, x, y, levels) -> DirectedGeodesic:
    """Project from x towards y through the interval levels read from x,
    each step the common neighbours of the last simplex (``c._link``) on
    the next level, and re-verify the result with ``_verify_conditions``."""
    n = len(levels) - 1
    if n == 0:
        return DirectedGeodesic(x, y, (Simplex.of([x]),))
    link = c._link
    simplices = [Simplex.of([x])]
    for i in range(n - 1):
        candidates = sorted(link(simplices[-1].verts).intersection(levels[i + 1]))
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
    """The spans of ``_check_spans``, and every interior sigma_i is
    Res(sigma_{i-1}) meet B_1(sigma_{i+1}). The spans make every simplex a
    clique of the complex, so the residue is read off as common neighbours
    (``c._link``) without validating it again."""
    sims = geo.simplices
    _check_spans(c, sims)
    for i, (before, here, after) in enumerate(zip(sims, sims[1:], sims[2:]), 1):
        res = c._link(before.verts).union(before.verts)
        if res & ball_of_simplex(c, after) != frozenset(here.verts):
            raise ConditionViolated(
                f"residue/ball condition fails at index {i} "
                f"between {geo.source} and {geo.target}")


# -- layers and thickness ---------------------------------------------------------


def layers(c: FlagComplex, x, y) -> Layers:
    """Layer decomposition with thickness from the two directed geodesics.

    The geodesic from y to x is reindexed to run in the same direction as
    the one from x to y, so layer i holds sigma_i and tau_i side by side.
    Thickness distances are measured in the ambient complex; layers are
    convex, so the value is realized inside the layer. The decomposition
    keeps the levels it was built on (``Layers.levels``); on plane windows
    both geodesics take the closed form (see ``directed_geodesic``) and no
    level is built.
    """
    levels = _safe_levels(c, x, y)
    if levels is None:
        sigma_geo = _closed_form(c, x, y)
        tau_geo = _closed_form(c, y, x)
    else:
        sigma_geo = _project(c, x, y, levels)
        tau_geo = _project(c, y, x, levels[::-1])
    items = [Layer(i, sigma, tau, _thickness(c, sigma, tau))
             for i, (sigma, tau) in enumerate(zip(sigma_geo, tau_geo.simplices[::-1]))]
    return Layers(c, x, y, items, sigma_geo, tau_geo, levels)


def _thickness(c: FlagComplex, sigma: Simplex, tau: Simplex) -> int:
    """Largest ambient distance from a vertex of sigma to one of tau."""
    return max(c.true_distance(s, t) for s in sigma for t in tau)


def _layer_segments(sigmas, taus) -> list:
    """Per layer of a plane pair, from the vertex tuples of sigma_i and
    tau_i side by side: its segment (v_i, w_i), the first pair of a vertex
    of sigma_i and one of tau_i at the largest lattice distance, in the
    order of the tuples, and that distance, the layer's thickness, as
    (v_i, w_i, thickness). The segment spans the hull of the two simplices
    on the layer's level line, as ``cat0._straight_segment`` reads it."""
    distance = eplane.lattice_distance
    out = []
    for sigma, tau in zip(sigmas, taus):
        t = -1
        for s in sigma:
            for u in tau:
                d = distance(s, u)
                if d > t:
                    t, v, w = d, s, u
        out.append((v, w, t))
    return out


def thick_intervals(layer_seq: Sequence[Layer]) -> list[ThickInterval]:
    """Maximal thick runs bracketed by thin layers: ``_thick_runs`` on the
    decomposition's thickness profile."""
    return _thick_runs([layer.thickness for layer in layer_seq])


def _thick_runs(profile: Sequence[int]) -> list[ThickInterval]:
    """Maximal runs of thickness above 1 bracketed by thin layers.

    A thick layer adjacent to an endpoint has no thin bracket and cannot
    arise from a valid construction; it is reported as MalformedProfile.
    """
    n = len(profile) - 1
    if n < 0:
        return []
    if n >= 2 and (profile[1] > 1 or profile[n - 1] > 1):
        raise MalformedProfile("thick layer adjacent to an endpoint")
    out = []
    i = 1
    while i < n:
        if profile[i] > 1:
            j = i - 1
            k = i + 1
            while k < n and profile[k] > 1:
                k += 1
            if not (profile[j] <= 1 and profile[k] <= 1):
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
