"""Extendability measurements: how far a geodesic ray must miss a target.

In the branching half-line tree every geodesic is good and every vertex
has exactly one ray to infinity, so the miss distance E(x, y) is simply the
distance from y to that ray; it grows without bound along the branch tips.
On the plane a straight-line ray through the target's direction keeps E
uniformly small, which the control study quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import eplane, samples
from .complexes import FlagComplex
from .errors import PreconditionViolated
from .isodyn import invariant_geodesic_on_plane

RAY_LENGTH = 40


@dataclass(frozen=True)
class ExtendabilityEntry:
    x: object
    y: object
    E: int


@dataclass(frozen=True)
class ExtendabilityTable:
    kind: str
    entries: Tuple[ExtendabilityEntry, ...]

    def max_E(self) -> int:
        return max(e.E for e in self.entries)


def tree_ray_from(c: FlagComplex, x, depth: int) -> Tuple:
    """The unique geodesic ray from x: out of any branch, then up the half-line.

    Branches are finite dead ends, so every infinite geodesic from x must
    eventually climb the half-line; the truncated tree realizes it up to
    ("h", depth) with the continuation understood.
    """
    kind = x[0]
    ray: List = []
    if kind == "b":
        _, n, j = x
        for jj in range(j, 0, -1):
            ray.append(("b", n, jj))
        start = n
    else:
        start = x[1]
    for i in range(start, depth + 1):
        ray.append(("h", i, 0))
    return tuple(ray)


def tree_extendability(depth: int, targets: Sequence = None) -> ExtendabilityTable:
    """E(x, y) from the half-line origin x over the branch tips (default) of
    the depth-truncated tree.

    The half-line continuation beyond the truncation only moves away from
    every branch, so distances to the truncated ray are already exact for
    targets at depth < `depth`.
    """
    if depth < 2:
        raise PreconditionViolated("need depth >= 2")
    c = samples.tree_with_branches(depth)
    x = samples.half_line_vertex(0)
    if targets is None:
        targets = [samples.branch_tip(n) for n in range(2, depth)]
    ray = tree_ray_from(c, x, depth)
    entries = []
    for y in targets:
        dmap = c.bfs_distances(y)
        entries.append(ExtendabilityEntry(x, y, min(dmap[r] for r in ray)))
    return ExtendabilityTable(f"tree-T:{depth}", tuple(entries))


def plane_control(pairs: Sequence[Tuple[eplane.Axial, eplane.Axial]]) -> ExtendabilityTable:
    """E(x, y) on the plane via the straight ray of ``RAY_LENGTH`` steps from
    x through y's direction.

    The nearest-lattice ray along the line from x through y passes within
    CAT(0) distance 1 of every lattice point near the line, so E stays
    bounded by a small constant independent of the pair.
    """
    entries = []
    for x, y in pairs:
        if x == y:
            entries.append(ExtendabilityEntry(x, y, 0))
            continue
        step = (y[0] - x[0], y[1] - x[1])
        ray = invariant_geodesic_on_plane(eplane.translation(*step), x, RAY_LENGTH)
        E = min(eplane.lattice_distance(v, y) for v in ray)
        entries.append(ExtendabilityEntry(x, y, E))
    return ExtendabilityTable("eplane-control", tuple(entries))
