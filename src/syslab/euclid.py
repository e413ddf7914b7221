"""Euclidean geodesics, vertex-geodesic selection, and goodness measurement.

A Euclidean geodesic assigns one simplex per layer of a vertex pair: the
span of the two directed geodesics on thin layers, and the characteristic
image of the disk diagonal on thick layers. The goodness constant of a
vertex geodesic is the exact maximal deviation between its vertices and the
Euclidean geodesics of all of its sub-pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import cat0, chardisk
from .complexes import FlagComplex, Simplex
from .directed import Layers, layers, require_pair_safe, thick_intervals
from .errors import ConditionViolated, NoSelection, PreconditionViolated


@dataclass
class GoodnessConstants:
    """The guaranteed goodness/contraction constants, overridable per run.

    The guaranteed floor is C = 200 with D = 3*C; smaller values are only
    meaningful for empirical slack studies and must be flagged as such.
    """

    C: int = 200
    D: Optional[int] = None
    empirical: bool = False

    def __post_init__(self):
        if self.D is None:
            self.D = 3 * self.C
        if not self.empirical:
            if self.C < 200:
                raise PreconditionViolated("C below the guaranteed floor of 200; "
                                           "flag the constants as empirical")
            if self.D < 3 * self.C:
                raise PreconditionViolated("D below 3*C; flag the constants as empirical")


@dataclass(frozen=True)
class EuclideanGeodesic:
    """Per-layer simplices delta_0..delta_n between two vertices.

    Also carries the layers it was built on and, per thick interval in
    order, the (boundary cycle, modified disk, CAT(0) path) stages.
    """

    complex: FlagComplex = field(repr=False, compare=False)
    x: object
    y: object
    simplices: Tuple[Simplex, ...]
    provenance: Tuple[str, ...]   # endpoint | thin | disk
    layers: Optional[Layers] = field(default=None, repr=False, compare=False)
    disks: Tuple[tuple, ...] = field(default=(), repr=False, compare=False)

    def __len__(self):
        return len(self.simplices) - 1

    def __iter__(self):
        return iter(self.simplices)

    def __getitem__(self, i):
        return self.simplices[i]


def euclidean_geodesic(c: FlagComplex, x, y, *,
                       check_reversal: bool = True) -> EuclideanGeodesic:
    """Assemble the Euclidean geodesic between x and y.

    Verifies delta_i stays inside layer i, and (unless disabled for bulk
    sweeps) that assembling from the other endpoint, on the same layers
    read backwards, yields the reversed sequence. The reversed pass rebuilds
    every thick-interval stage from its own boundary cycle.
    """
    layer_seq = layers(c, x, y)
    geo = _assemble(c, layer_seq)
    if check_reversal:
        back = _assemble(c, layer_seq.reversed())
        forward = [frozenset(s.verts) for s in geo.simplices]
        reverse = [frozenset(s.verts) for s in reversed(back.simplices)]
        if forward != reverse:
            raise ConditionViolated(
                f"euclidean geodesic between {x} and {y} is not reversal-symmetric")
    return geo


def _assemble(c, layer_seq: Layers) -> EuclideanGeodesic:
    x, y, n = layer_seq.x, layer_seq.y, layer_seq.n
    if n == 0:
        return EuclideanGeodesic(c, x, y, (Simplex.of([x]),), ("endpoint",), layer_seq)
    sims: List[Optional[Simplex]] = [None] * (n + 1)
    tags: List[str] = [""] * (n + 1)
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
    disks = []
    for interval in thick_intervals(layer_seq):
        cycle = chardisk.boundary_cycle(c, interval, layer_seq)
        disk = chardisk.extract_flat_disk(c, cycle)
        mdisk = cat0.modified_disk(disk)
        alpha = cat0.shortest_path(mdisk)
        disks.append((cycle, mdisk, alpha))
        diagonal = cat0.euclidean_diagonal(disk, alpha)
        for i in interval.interior():
            rho = diagonal.simplex_at(i)
            sims[i] = chardisk.characteristic_map(c, disk, rho)
            tags[i] = "disk"
    for i in range(n + 1):
        if sims[i] is None:
            raise ConditionViolated(f"layer {i} of ({x}, {y}) was never assigned")
        if not all(layer_seq.holds(i, v) for v in sims[i].verts):
            raise ConditionViolated(
                f"delta_{i} of ({x}, {y}) leaves its layer: {sims[i]}")
    return EuclideanGeodesic(c, x, y, tuple(sims), tuple(tags), layer_seq, tuple(disks))


def select_vertex_geodesic(e: EuclideanGeodesic) -> Tuple:
    """A deterministic vertex geodesic threading the simplex sequence.

    Any adjacent chain v_i in delta_i is automatically a geodesic because
    delta_i lies in layer i; the chain is found by depth-first search that
    always tries the largest candidate first, which pins the documented
    outputs. Failure would contradict the existence guarantee and is
    reported with full context.
    """
    choices = [sorted(s.verts, reverse=True) for s in e.simplices]
    picked: List = []
    if not _thread(e.complex, choices, picked, 0):
        raise NoSelection(
            f"no vertex geodesic through the euclidean geodesic of "
            f"({e.x}, {e.y}); simplices: {[s.verts for s in e.simplices]}")
    return tuple(picked)


def _thread(c: FlagComplex, choices, picked: List, pos: int) -> bool:
    """Depth-first search for an adjacent chain through choices[pos:].

    A module function rather than a nested one: a recursive closure refers
    to itself through its cell, and that cycle would keep the complex alive
    until the cyclic garbage collector runs.
    """
    if pos == len(choices):
        return True
    for v in choices[pos]:
        if picked and not c.adjacent(picked[-1], v) and picked[-1] != v:
            continue
        picked.append(v)
        if _thread(c, choices, picked, pos + 1):
            return True
        picked.pop()
    return False


@dataclass(frozen=True)
class GoodnessReport:
    """Exact minimal constant for which a vertex geodesic is that-good."""

    geodesic: Tuple
    c_star: int
    witness: Optional[Tuple] = None   # (j, k, i, u, distance)
    pairs_examined: int = 0


def goodness_constant(c: FlagComplex, geodesic: Sequence) -> GoodnessReport:
    """Measure max over sub-pairs (j,k), layers i, vertices u in delta^{jk}_i
    of d(v_i, u).

    This is exactly the least C' for which the geodesic is C'-good. Plane
    windows are translation-equivariant, so there one Euclidean geodesic is
    built per distinct difference v_k - v_j, kept in the window's
    ``translation_memo`` and shifted onto every later sub-pair with that
    difference, in this call or a later one; other complexes build one
    Euclidean geodesic per sub-pair. Quadratic in the length either way.
    The input must be a vertex geodesic; that is checked first, in O(n).
    """
    verts = tuple(geodesic)
    _require_vertex_geodesic(c, verts)
    best = 0
    witness = None
    pairs = 0
    for j in range(len(verts)):
        for k in range(j + 1, len(verts)):
            pairs += 1
            sub = _sub_simplices(c, verts[j], verts[k], j == 0)
            for i in range(j, k + 1):
                for u in sub[i - j]:
                    d = c.true_distance(verts[i], u)
                    if d > best:
                        best = d
                        witness = (j, k, i, u, d)
    return GoodnessReport(verts, best, witness, pairs)


def _require_vertex_geodesic(c: FlagComplex, verts: Tuple):
    """Every step is an edge and the ends are n steps apart. Then every
    sub-path is a geodesic as well, so the check covers each sub-pair."""
    for a, (u, v) in enumerate(zip(verts, verts[1:])):
        if u not in c or v not in c or not c.adjacent(u, v):
            raise PreconditionViolated(
                f"not a vertex geodesic: step {a} from {u} to {v} is not an edge")
    n = len(verts) - 1
    if n > 1:
        d = c.true_distance(verts[0], verts[-1])
        if d != n:
            raise PreconditionViolated(
                f"not a vertex geodesic: d({verts[0]}, {verts[-1]}) = {d} "
                f"but the sequence takes {n} steps")


def _sub_simplices(c: FlagComplex, x, y, check: bool) -> Sequence:
    """The simplices of the Euclidean geodesic from x to y, each iterable in
    sorted vertex order. With a memo (plane windows) a pair reuses the
    vertex tuples built for the first pair x0 with difference y - x,
    shifted by x - x0; a translation keeps every sorted tuple sorted.

    A reused pair is still held to the margin rule when ``check`` is set,
    which goodness_constant sets for the sub-pairs (0, k). The later
    sub-pairs skip it: on a vertex geodesic every interval I(v_j, v_k)
    lies inside the I(v_0, v_k) that was checked just before."""
    memo = c.translation_memo
    if memo is None:
        return euclidean_geodesic(c, x, y, check_reversal=False)
    diff = (y[0] - x[0], y[1] - x[1])
    hit = memo.get(diff)
    if hit is None:
        sims = tuple(s.verts for s in euclidean_geodesic(c, x, y, check_reversal=False))
        memo[diff] = (x, sims)
        return sims
    if check:
        require_pair_safe(c, x, y)
    x0, sims = hit
    dx, dy = x[0] - x0[0], x[1] - x0[1]
    return [tuple((a + dx, b + dy) for a, b in s) for s in sims]


@dataclass(frozen=True)
class ContractingCheck:
    kind: str          # 'ratio' or 'doubling'
    c: Optional[Fraction]
    index: Tuple
    lhs: int
    rhs_base: int
    bound: Fraction
    slack: Fraction    # lhs - c*rhs_base  (ratio form) or lhs - d0 (doubling)

    @property
    def holds(self) -> bool:
        return Fraction(self.lhs) <= self.bound


@dataclass(frozen=True)
class ContractingReport:
    checks: Tuple[ContractingCheck, ...]
    violations: Tuple[ContractingCheck, ...]
    max_slack: Fraction

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_contracting(c: FlagComplex, g1: Sequence, g2: Sequence,
                       cs: Sequence[Fraction], *,
                       constants: Optional[GoodnessConstants] = None,
                       doubling_bound: Optional[int] = None) -> ContractingReport:
    """Evaluate the contraction inequality, and optionally its doubling form.

    Ratio form (shared origin): d(v_{floor(c n)}, w_{floor(c m)}) <= c*d(v_n, w_m) + D
    for each supplied exact rational c. Doubling form (asymptotic pairs with
    a supplied equivalence bound): d(v_i, w_i) <= d(v_0, w_0) + 2D + 1 at
    every index. Slack statistics are recorded either way.
    """
    constants = constants or GoodnessConstants()
    v = tuple(g1)
    w = tuple(g2)
    checks: List[ContractingCheck] = []
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
            checks.append(ContractingCheck(
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
            checks.append(ContractingCheck(
                "doubling", None, (i,), lhs, d0, bound, Fraction(lhs - d0)))
    violations = tuple(ch for ch in checks if not ch.holds)
    max_slack = max((ch.slack for ch in checks), default=Fraction(0))
    return ContractingReport(tuple(checks), violations, max_slack)
