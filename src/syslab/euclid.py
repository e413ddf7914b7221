"""Euclidean geodesics, vertex-geodesic selection, and goodness measurement.

A Euclidean geodesic assigns one simplex per layer of a vertex pair: the
span of the two directed geodesics on thin layers, and the characteristic
image of the disk diagonal on thick layers. Off the plane it is assembled
from the pair's ``Layers``, and each thick interval runs the stage chain:
boundary cycle, flat disk, modified disk, CAT(0) path, diagonal and
characteristic map. On a plane window it is built in one pass over lattice
tuples (``_plane_pass``): the two directed geodesics are the certified
tuples of ``directed._plane_chain``, each layer's segment and thickness are
read off them, and the CAT(0) path of a thick interval is the straight
segment between its brackets, certified in O(k - j) by
``cat0._straight_segment``. ``_plane_simplices`` returns those simplices
as lattice tuples to the callers that only read vertices (goodness and
the min-set proximity check of ``isodyn``); ``euclidean_geodesic`` maps
them to the window's own vertices. The ``Layers`` are built when
``EuclideanGeodesic.layers`` is read, and the disk stages when ``disks``
is. The goodness constant of a vertex geodesic is the exact maximal
deviation between its vertices and the Euclidean geodesics of all of its
sub-pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from . import cat0, chardisk, directed, eplane
from .complexes import FlagComplex, Simplex
from .directed import Layers, layers, require_pair_safe, thick_intervals
from .errors import ConditionViolated, NoSelection, NotASimplex, PreconditionViolated


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

    Also carries the layer decomposition of the pair in ``layers`` and, per
    thick interval in order, the (boundary cycle, modified disk, CAT(0)
    path) stages in ``disks``. Off the plane the simplices are read from
    both, so they are built with them and stored. On a plane window the
    simplices come from one lattice pass; ``layers`` is built by
    ``directed.layers`` when first read, and ``disks`` from it when first
    read.
    """

    complex: FlagComplex = field(repr=False, compare=False)
    x: object
    y: object
    simplices: Tuple[Simplex, ...]
    provenance: Tuple[str, ...]   # endpoint | thin | disk
    _layers: Optional[Layers] = field(default=None, repr=False, compare=False)
    _disks: Optional[Tuple[tuple, ...]] = field(default=None, repr=False, compare=False)

    @cached_property
    def layers(self) -> Layers:
        """The layer decomposition of (x, y); built here on a plane window."""
        if self._layers is not None:
            return self._layers
        return layers(self.complex, self.x, self.y)   # directed.layers

    @cached_property
    def disks(self) -> Tuple[tuple, ...]:
        """The stages per thick interval. Built here on a plane window, where
        the CAT(0) path must be the straight segment from the modified
        disk's start to its goal that ``cat0._straight_segment`` read."""
        if self._disks is not None:
            return self._disks
        out = []
        for interval in thick_intervals(self.layers):
            cycle, _, mdisk, alpha = _disk_stages(self.complex, self.layers, interval)
            if alpha.points != (mdisk.start, mdisk.goal):
                raise ConditionViolated(
                    f"CAT(0) path of interval ({interval.j}, {interval.k}) between "
                    f"{self.x} and {self.y} bends: {alpha.points}")
            out.append((cycle, mdisk, alpha))
        return tuple(out)

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
    sweeps) that assembling from the other endpoint yields the reversed
    sequence. On a plane window the construction is ``_plane_pass`` on the
    certified tuples of the two directed geodesics, and the reversed pass
    re-derives every layer segment, thin span and straight segment from the
    same tuples read from y; the two must also agree on the thickness
    profile. Off the plane the reversed pass assembles from the same
    layers read backwards and rebuilds each thick interval's boundary
    cycle and stages, and every search of the construction reads the
    complex's shared rows.
    """
    if c.plane_backed:
        return _plane_geodesic(c, x, y, check_reversal)
    with c._shared_rows:
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


def _plane_geodesic(c: FlagComplex, x, y, check_reversal: bool) -> EuclideanGeodesic:
    """The plane construction of ``_plane_simplices``, with the returned
    simplices on the window's own vertex objects, except the ends, which
    stay the caller's x and y as in ``_assemble``: a result the caller keeps
    after the window is gone then holds no more of the window's objects
    than the interior needs."""
    sims, tags = _plane_simplices(c, x, y, check_reversal)
    own = c.vertex
    simplices = [Simplex(tuple(map(own, s))) for s in sims]
    simplices[-1], simplices[0] = Simplex((y,)), Simplex((x,))
    return EuclideanGeodesic(c, x, y, tuple(simplices), tags)


def _plane_simplices(c: FlagComplex, x, y, check_reversal: bool = False):
    """The simplices of the Euclidean geodesic of (x, y) on a plane window as
    sorted lattice tuples, the ends the caller's (x,) and (y,), with their
    provenance: the margin rule, the two certified chains, the lattice pass
    and, when asked, its reversal check. The one plane construction, for
    callers that wrap it (``_plane_geodesic``) and for those that only read
    vertices (``_sub_simplices``, ``isodyn.check_min_proximity``)."""
    directed._safe_levels(c, x, y)
    sig = directed._plane_chain(c, x, y)
    tau = directed._plane_chain(c, y, x)
    sims, tags, profile = _plane_pass(c, x, y, sig, tau)
    if check_reversal:
        back, _, back_profile = _plane_pass(c, y, x, tau, sig)
        if ([frozenset(s) for s in sims] != [frozenset(s) for s in reversed(back)]
                or profile != back_profile[::-1]):
            raise ConditionViolated(
                f"euclidean geodesic between {x} and {y} is not reversal-symmetric")
    return sims, tags


def _plane_pass(c: FlagComplex, x, y, sig, tau):
    """The Euclidean simplices of (x, y) on a plane window as sorted lattice
    tuples, with their provenance and the thickness profile, from the
    certified tuples of the directed geodesics sig (x to y) and tau (y to
    x). Layer i holds sig[i] and tau[n - i]; ``directed._layer_segments``
    reads its segment [v_i, w_i] and thickness. A thin layer takes the
    union of its two simplices, which must form a lattice clique, of one
    vertex at thickness 0 and more at thickness 1. The thick intervals of
    the profile (``directed._thick_runs``) take the straight segments of
    ``cat0._straight_segment`` on their layers' segments, each simplex
    validated on the window. Every vertex of delta_i must then lie in layer
    i: in the window, at lattice distance i from x and n - i from y. The
    checks and refusal texts are those of the former assembly from the
    pair's ``Layers`` (``tests/oracles.layered_euclidean_geodesic``)."""
    n = len(sig) - 1
    segments = directed._layer_segments(sig, tau[::-1])
    profile = tuple(t for _, _, t in segments)
    sims: List[Optional[tuple]] = [None] * (n + 1)
    tags = [""] * (n + 1)
    sims[0], tags[0] = (x,), "endpoint"
    sims[n], tags[n] = (y,), "endpoint"
    for i in range(1, n):
        if profile[i] <= 1:
            union = tuple(sorted(set(sig[i]).union(tau[n - i])))
            if not eplane._lattice_clique(union):
                raise ConditionViolated(
                    f"thin layer {i} of ({x}, {y}) does not span a simplex")
            if profile[i] != (len(union) > 1):
                raise ConditionViolated(f"thin layer {i} of ({x}, {y}) spans "
                                        f"{Simplex(union)} at thickness {profile[i]}")
            sims[i], tags[i] = union, "thin"
    inside = c.vertices()
    for interval in directed._thick_runs(profile):
        j, k = interval.j, interval.k
        for i, s in enumerate(cat0._straight_segment(j, segments[j:k + 1]), j + 1):
            for v in s:   # FlagComplex.validate_simplex, on the lattice
                if v not in inside:
                    raise NotASimplex(f"vertex {v} not in complex")
            if not eplane._lattice_clique(s):
                raise NotASimplex(f"{Simplex(s)} is not a clique")
            sims[i], tags[i] = s, "disk"
    distance = eplane.lattice_distance
    for i, s in enumerate(sims):
        if s is None:
            raise ConditionViolated(f"layer {i} of ({x}, {y}) was never assigned")
        for v in s:
            if v not in inside or distance(x, v) != i or distance(v, y) != n - i:
                raise ConditionViolated(
                    f"delta_{i} of ({x}, {y}) leaves its layer: {Simplex(s)}")
    return sims, tuple(tags), profile


def _assemble(c, layer_seq: Layers) -> EuclideanGeodesic:
    """The Euclidean geodesic of a pair off the plane, from its layers: the
    thin spans, and per thick interval the stage chain with the
    characteristic images of its diagonal."""
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
        cycle, disk, mdisk, alpha = _disk_stages(c, layer_seq, interval)
        disks.append((cycle, mdisk, alpha))
        images = [chardisk.characteristic_map(c, disk, rho)
                  for rho in cat0.euclidean_diagonal(disk, alpha).simplices]
        for i, image in zip(interval.interior(), images):
            sims[i], tags[i] = image, "disk"
    for i in range(n + 1):
        if sims[i] is None:
            raise ConditionViolated(f"layer {i} of ({x}, {y}) was never assigned")
        if not all(v in layer_seq.levels[i] for v in sims[i].verts):
            raise ConditionViolated(
                f"delta_{i} of ({x}, {y}) leaves its layer: {sims[i]}")
    return EuclideanGeodesic(c, x, y, tuple(sims), tuple(tags), layer_seq, tuple(disks))


def _disk_stages(c, layer_seq: Layers, interval):
    """The stage chain of a thick interval: its boundary cycle, flat disk,
    modified disk and CAT(0) path."""
    cycle = chardisk.boundary_cycle(c, interval, layer_seq)
    disk = chardisk.extract_flat_disk(c, cycle)
    mdisk = cat0.modified_disk(disk)
    return cycle, disk, mdisk, cat0.shortest_path(mdisk)


def select_vertex_geodesic(e: EuclideanGeodesic) -> Tuple:
    """A deterministic vertex geodesic threading the simplex sequence.

    Any adjacent chain v_i in delta_i is automatically a geodesic because
    delta_i lies in layer i; the chain is found by depth-first search that
    always tries the largest candidate first, which pins the documented
    outputs. Failure would contradict the existence guarantee and is
    reported with full context.
    """
    choices = [sorted(s.verts, reverse=True) for s in e.simplices]
    picked = _thread(e.complex, choices)
    if picked is None:
        raise NoSelection(
            f"no vertex geodesic through the euclidean geodesic of "
            f"({e.x}, {e.y}); simplices: {[s.verts for s in e.simplices]}")
    return tuple(picked)


def _thread(c: FlagComplex, choices) -> Optional[List]:
    """Depth-first search for an adjacent chain through choices, or None:
    one loop over a stack of candidate iterators, one per position up to
    the one being filled, so no recursion limit bounds the chain's length."""
    picked: List = []
    stack = [iter(choices[0])]
    while stack:
        for v in stack[-1]:
            if not picked or c.adjacent(picked[-1], v) or picked[-1] == v:
                picked.append(v)
                break
        else:
            stack.pop()
            if picked:
                picked.pop()
            continue
        if len(picked) == len(choices):
            return picked
        stack.append(iter(choices[len(picked)]))
    return None


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
    built per distinct difference v_k - v_j, as the certified lattice tuples
    of ``_plane_simplices`` (no ``Layers``, ``Simplex`` or
    ``EuclideanGeodesic`` is built), kept in the window's
    ``translation_memo`` and reused for every later sub-pair with that
    difference, in this call or a later one (``_sub_simplices``). The
    distance loop reads each sub-pair's shift t once and measures d(v_i - t,
    u) in lattice arithmetic, with the case split of
    ``eplane.lattice_distance`` inlined; only a new witness is shifted
    forward. It skips the sub-pair's two ends, where the distance is 0 and
    cannot beat the running maximum. Other complexes build one Euclidean
    geodesic per sub-pair from its layers, all of them in the call's one
    ``_shared_rows`` scope: one search row per source, and each simplex's
    link and closed ball and each boundary cycle's flat disk development
    computed once; they measure with ``true_distance``. The
    constructions are quadratic in the length either way, but the distance
    loop is cubic: it measures sum over j < k of (k - j + 1) * |delta| =
    Theta(n^3) distances. The input must be a vertex geodesic; that is
    checked first, in O(n).
    """
    verts = tuple(geodesic)
    with c._shared_rows:
        _require_vertex_geodesic(c, verts)
        deviation = _deviation if c.translation_memo is None else _plane_deviation
        best, witness = deviation(c, verts)
    return GoodnessReport(verts, best, witness, len(verts) * (len(verts) - 1) // 2)


def _deviation(c: FlagComplex, verts: Tuple):
    """The largest d(v_i, u) with its first witness (j, k, i, u, d), off the
    plane: one Euclidean geodesic per sub-pair, measured by ``true_distance``."""
    best = 0
    witness = None
    for j in range(len(verts)):
        for k in range(j + 1, len(verts)):
            sub = euclidean_geodesic(c, verts[j], verts[k], check_reversal=False)
            for i in range(j, k + 1):
                v = verts[i]
                for u in sub[i - j]:
                    d = c.true_distance(v, u)
                    if d > best:
                        best = d
                        witness = (j, k, i, u, d)
    return best, witness


def _plane_deviation(c: FlagComplex, verts: Tuple):
    """``_deviation`` on a plane window: the sub-pairs' tuples from the
    translation memo, each inner vertex v_i shifted back by the sub-pair's
    t = (tp, tq), and d(v_i - t, u) by the case split of
    ``eplane.lattice_distance`` on (p, q) = u - (v_i - t)."""
    best = 0
    witness = None
    for j in range(len(verts)):
        for k in range(j + 1, len(verts)):
            sub, tp, tq = _sub_simplices(c, verts[j], verts[k], j == 0)
            for i in range(j + 1, k):
                a, b = verts[i]
                a -= tp
                b -= tq
                for u in sub[i - j]:
                    p = u[0] - a
                    q = u[1] - b
                    if p >= 0:
                        d = p + q if q >= 0 else (p if p >= -q else -q)
                    else:
                        d = -p - q if q <= 0 else (q if q >= -p else -p)
                    if d > best:
                        best = d
                        witness = (j, k, i, (u[0] + tp, u[1] + tq), d)
    return best, witness


def _require_vertex_geodesic(c: FlagComplex, verts: Tuple):
    """Every step is an edge and the ends are n steps apart. Then every
    sub-path is a geodesic as well, so the check covers each sub-pair."""
    for a, (u, v) in enumerate(zip(verts, verts[1:])):
        if u not in c or v not in c or not c.adjacent(u, v):
            raise PreconditionViolated(
                f"not a vertex geodesic: step {a} from {u} to {v} is not an edge")
    if not verts or verts[0] not in c:  # longer sequences fail a step above
        raise PreconditionViolated(
            f"not a vertex geodesic: {verts} has no vertex in the complex")
    n = len(verts) - 1
    if n > 1:
        d = c.true_distance(verts[0], verts[-1])
        if d != n:
            raise PreconditionViolated(
                f"not a vertex geodesic: d({verts[0]}, {verts[-1]}) = {d} "
                f"but the sequence takes {n} steps")


def _sub_simplices(c: FlagComplex, x, y, check: bool) -> Tuple[Tuple, int, int]:
    """The simplices of the Euclidean geodesic from x to y on a plane window
    as sorted lattice tuples, and the shift (tp, tq) that carries them onto
    x-y. The window's memo keeps, per difference y - x, the first pair x0
    with it and the tuples ``_plane_simplices`` built for it; a later pair
    reuses them unshifted, with t = x - x0, and the caller measures from
    v - t instead of building shifted copies, which gives the same
    distances because the window's metric is the lattice's. A translation
    keeps every sorted tuple sorted, so the first vertex to reach a
    distance is the same either way. t is (0, 0) on the pair that filled
    the memo.

    A reused pair is still held to the margin rule when ``check`` is set,
    which goodness_constant sets for the sub-pairs (0, k). The later
    sub-pairs skip it: on a vertex geodesic every interval I(v_j, v_k)
    lies inside the I(v_0, v_k) that was checked just before."""
    memo = c.translation_memo
    diff = (y[0] - x[0], y[1] - x[1])
    hit = memo.get(diff)
    if hit is None:
        sims = _plane_simplices(c, x, y)[0]
        memo[diff] = (x, sims)
        return sims, 0, 0
    if check:
        require_pair_safe(c, x, y)
    x0, sims = hit
    return sims, x[0] - x0[0], x[1] - x0[1]


@dataclass(frozen=True)
class ContractingCheck:
    """One contraction inequality lhs <= c*rhs_base + allowance, held as
    integers: the ratio form has c in [0, 1] and allowance D, the doubling
    form c = 1 (stored as None) and allowance 2D + 1. The exact rationals
    ``bound`` and ``slack`` are read from them."""

    kind: str          # 'ratio' or 'doubling'
    c: Optional[Fraction]
    index: Tuple
    lhs: int
    rhs_base: int
    allowance: int

    def _ratio(self) -> Tuple[int, int]:
        return (1, 1) if self.c is None else (self.c.numerator, self.c.denominator)

    @property
    def bound(self) -> Fraction:
        num, den = self._ratio()
        return Fraction(num * self.rhs_base + self.allowance * den, den)

    @property
    def slack(self) -> Fraction:
        """lhs - c*rhs_base (ratio form) or lhs - d0 (doubling)."""
        num, den = self._ratio()
        return Fraction(self.lhs * den - num * self.rhs_base, den)

    @property
    def holds(self) -> bool:
        num, den = self._ratio()
        return self.lhs * den <= num * self.rhs_base + self.allowance * den


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

    Every check is evaluated in integers: for c = num/den the index is
    n*num // den and the check holds when lhs*den <= num*endpoint + D*den;
    slacks (lhs*den - num*endpoint) / den are compared by cross-multiplying,
    and only the largest becomes a ``Fraction``.
    """
    constants = constants or GoodnessConstants()
    D = constants.D
    v = tuple(g1)
    w = tuple(g2)
    checks: List[ContractingCheck] = []
    violations: List[ContractingCheck] = []
    top_scaled, top_den = None, 1
    if doubling_bound is None:
        if v[0] != w[0]:
            raise PreconditionViolated("ratio form needs a shared origin")
        n, m = len(v) - 1, len(w) - 1
        endpoint = c.true_distance(v[n], w[m])
        for ratio in cs:
            if not isinstance(ratio, Fraction):
                ratio = Fraction(ratio)
            num, den = ratio.numerator, ratio.denominator
            if not 0 <= num <= den:
                raise PreconditionViolated(f"c = {ratio} outside [0, 1]")
            i1 = n * num // den
            i2 = m * num // den
            lhs = c.true_distance(v[i1], w[i2])
            check = ContractingCheck("ratio", ratio, (i1, i2), lhs, endpoint, D)
            checks.append(check)
            scaled = lhs * den - num * endpoint
            if scaled > D * den:
                violations.append(check)
            if top_scaled is None or scaled * top_den > top_scaled * den:
                top_scaled, top_den = scaled, den
    else:
        top = min(len(v), len(w)) - 1
        dists = []
        for i in range(top + 1):
            dists.append(c.true_distance(v[i], w[i]))
            if dists[-1] > doubling_bound:
                raise PreconditionViolated(
                    f"pair is not asymptotic within the supplied bound {doubling_bound}")
        d0 = dists[0]
        allowance = 2 * D + 1
        for i, lhs in enumerate(dists):
            check = ContractingCheck("doubling", None, (i,), lhs, d0, allowance)
            checks.append(check)
            if lhs - d0 > allowance:
                violations.append(check)
        top_scaled = max(dists) - d0
    max_slack = Fraction(0) if top_scaled is None else Fraction(top_scaled, top_den)
    return ContractingReport(tuple(checks), tuple(violations), max_slack)
