"""The frozenset and integer certificate kernels against their former
pair-loop and Fraction forms in ``oracles``, and one negative case per
certificate that must still fire with its old exception and message."""

import random
import re
from fractions import Fraction
from functools import partial

import pytest

import oracles
from syslab import cat0, chardisk, complexes, directed, eplane, euclid, samples
from syslab.complexes import FlagComplex, residue
from syslab.directed import (ThickInterval, _verify_conditions, directed_geodesic, layers,
                             thick_intervals)
from syslab.errors import (BoundaryUnsafe, ConditionViolated, NoCrossing, NotFlat,
                           PreconditionViolated, SyslabError)
from syslab.exact import PlanePoint


def _outcome(fn, *args):
    """None when fn passes, else the type and message of what it raised."""
    try:
        fn(*args)
    except (ConditionViolated, NotFlat, NoCrossing) as exc:
        return type(exc).__name__, str(exc)
    return None


def _corruptions(sims):
    """The geodesic with one interior simplex repeated from its predecessor,
    cut down to its first or its last vertex, or swapped with its successor."""
    for i in range(1, len(sims) - 1):
        head, here, tail = sims[:i], sims[i], sims[i + 1:]
        yield from (head + (sims[i - 1],) + tail,
                    head + (here[:1],) + tail,
                    head + (here[-1:],) + tail,
                    head + (sims[i + 1], here) + sims[i + 2:])


def _agree_on_geodesic(c, sims, x, y):
    """The postcondition and its oracle on the geodesic sims from x to y
    and its corruptions; on a plane window also the lattice certificate,
    which must pass the geodesic and, whenever it refuses a corruption,
    give the oracle's text. Returns how many corruptions the postcondition
    refused."""
    assert _outcome(_verify_conditions, c, sims, x, y) is None
    assert oracles.verify_conditions(c, sims, x, y) is None
    if c.plane_backed:
        assert _outcome(directed._check_chain, c, sims, x, y) is None
    for s in sims:
        assert residue(c, s) == oracles.residue(c, s)
        assert c._ball(s) == oracles.ball_of_simplex(c, s)
    for a, b in zip(sims, sims[1:]):
        for verts in (a + b, a + b + a[:1], sims[0] + b):
            assert c.is_clique(verts) == oracles.pairwise_is_clique(c, verts)
    fired = 0
    for bad in _corruptions(sims):
        new = _outcome(_verify_conditions, c, bad, x, y)
        assert new == _outcome(oracles.verify_conditions, c, bad, x, y), bad
        fired += new is not None
        if c.plane_backed:
            certified = _outcome(directed._check_chain, c, bad, x, y)
            assert certified is None or certified == new, bad
    return fired


def _agree_on_disk(c, cycle, disk, alpha):
    region = set(disk.region)
    for v in region:
        assert (chardisk._is_hexagon(c, c.neighbors(v) & region)
                == oracles.flat_at(c, v, region)), v
    interior = region - set(cycle.cycle)
    triangles = oracles.pairwise_triangle_count(c, region)
    assert chardisk._triangle_count(c, region, interior) == disk.triangle_count == triangles
    j, k = disk.interval.j, disk.interval.k
    for i, a in zip(range(j + 1, k), alpha.crossings):
        v, w = disk.layer_segment(i)
        assert disk.layer_step(i) == oracles.layer_step(v, w, i)
        _, step = disk.layer_step(i)
        num, den = cat0._crossing_arc(alpha, a, v, step, i)
        assert den > 0
        assert Fraction(num, den) == oracles.crossing_arc(alpha, a, v, step, i)
    diagonal = cat0.euclidean_diagonal(disk, alpha)
    assert list(diagonal) == oracles.fraction_diagonal(disk, alpha)


def _agree_on_pair(c, x, y):
    """Every certificate of the pair's construction against its oracle;
    returns (disks checked, corruptions that fired)."""
    ls = layers(c, x, y)
    sigmas, taus = oracles.directed_pair(ls)
    fired = _agree_on_geodesic(c, sigmas, x, y) + _agree_on_geodesic(c, taus, y, x)
    disks = 0
    for interval in thick_intervals(ls):
        cycle = chardisk.boundary_cycle(c, interval, ls)
        disk = chardisk.extract_flat_disk(c, cycle)
        _agree_on_disk(c, cycle, disk, cat0.shortest_path(cat0.modified_disk(disk)))
        disks += 1
    return disks, fired


def test_kernels_agree_on_criterion_10_disks():
    """Every pair that acceptance criterion 10 may draw its disks from."""
    c = eplane.window((0, 0), 16)
    vectors = [(4, 2), (6, 2), (6, 3), (8, 2), (5, 2), (7, 3), (8, 4), (9, 3),
               (7, 2), (7, 4), (8, 5), (10, 2), (10, 3), (9, 4), (10, 4),
               (11, 3), (12, 4), (9, 2), (11, 4), (12, 3), (8, 3)]
    disks = fired = 0
    for p, q in vectors:
        d, f = _agree_on_pair(c, (-(p // 2), -(q // 2)), (p - p // 2, q - q // 2))
        disks += d
        fired += f
    assert disks >= 20 and fired > 0


def test_kernels_agree_on_plane_disks():
    """All thick-interval disks of pairs (0, 0) -> y, 1 <= d <= 12."""
    c = eplane.window((0, 0), 20)
    disks = 0
    for y in sorted(c.vertices()):
        if 1 <= eplane.lattice_distance((0, 0), y) <= 12:
            disks += _agree_on_pair(c, (0, 0), y)[0]
    assert disks == 264


def test_kernels_agree_on_non_plane_complexes(non_plane_complexes):
    disks = pairs = 0
    for c in non_plane_complexes:
        for x, y in oracles.pairs_within(c, 6):
            if x < y:
                try:
                    disks += _agree_on_pair(c, x, y)[0]
                except BoundaryUnsafe:
                    continue
                pairs += 1
    assert pairs >= 4000 and disks >= 200


def test_integer_rule_matches_fraction_rule():
    """Every u = a / b with b <= 12 from -2 to t + 2, on segments t <= 6:
    the same range test and the same vertex or edge."""
    for t in range(1, 7):
        for b in range(1, 13):
            for a in range(-2 * b, (t + 2) * b + 1):
                u = Fraction(a, b)
                assert (a < 0 or a > t * b) == (u < 0 or u > t), (a, b, t)
                assert (cat0.nearest_simplex_on_segment(a, b, t)
                        == oracles.nearest_simplex_on_segment(u, t)), (a, b, t)


# -- each kept check still fires ---------------------------------------------------


def _two_tetrahedra(ring_edges):
    """Vertex 6 joined to 0..5, whose link is given by ring_edges."""
    adjacency = {v: {6} for v in range(6)}
    adjacency[6] = set(range(6))
    for a, b in ring_edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return FlagComplex(adjacency)


def test_two_triangle_link_is_not_flat():
    """Vertex 6 has six region neighbours of degree two each, but they form
    two triangles, not a hexagon."""
    c = _two_tetrahedra([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    cycle = chardisk.BoundaryCycle(ThickInterval(0, 2), (0, 1, 2), (5, 4, 3),
                                   (0, 1, 2, 3, 4, 5))
    region = set(range(7))
    assert not chardisk._is_hexagon(c, c.neighbors(6) & region)
    assert not oracles.flat_at(c, 6, region)
    with pytest.raises(NotFlat, match=r"^interior vertex 6 is not surrounded by 6 triangles$"):
        chardisk.extract_flat_disk(c, cycle)
    hexagon = _two_tetrahedra([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    assert chardisk._is_hexagon(hexagon, hexagon.neighbors(6) & region)
    assert oracles.flat_at(hexagon, 6, region)


def test_corrupted_directed_geodesic_fails_residue_ball(window42):
    x, y = (0, 0), (4, 2)
    geo = directed_geodesic(window42, x, y)
    i = next(i for i, s in enumerate(geo) if len(s) > 1)
    sims = list(geo)
    sims[i] = sims[i][:1]
    bad = tuple(sims)
    message = f"residue/ball condition fails at index {i} between (0, 0) and (4, 2)"
    with pytest.raises(ConditionViolated) as new:
        _verify_conditions(window42, bad, x, y)
    with pytest.raises(ConditionViolated) as old:
        oracles.verify_conditions(window42, bad, x, y)
    assert str(new.value) == str(old.value) == message
    # Only the residue/ball condition catches an edge cut down to one of its
    # ends: the chain still runs from x to y through simplices that pairwise
    # span simplices. The plane certificate does not check that condition,
    # so it passes this corruption; the closed form never builds it.
    directed._check_chain(window42, bad, x, y)
    sims[i] = sims[i - 1]
    for check in (partial(_verify_conditions, window42),
                  partial(directed._check_chain, window42)):
        with pytest.raises(ConditionViolated, match=r"are not disjoint$"):
            check(tuple(sims), x, y)
    sims[i] = ((4, 2),)
    for check in (partial(_verify_conditions, window42),
                  partial(directed._check_chain, window42)):
        with pytest.raises(ConditionViolated, match=r"do not span a simplex$"):
            check(tuple(sims), x, y)


def test_plane_certificate_needs_the_pair_as_ends(window42):
    """A chain that starts or ends elsewhere fails the certificate, though
    its consecutive simplices span simplices."""
    geo = directed_geodesic(window42, (0, 0), (4, 2))
    for source, target in (((1, 0), (4, 2)), ((0, 0), (3, 2))):
        message = f"simplices do not run from {source} to {target}"
        with pytest.raises(ConditionViolated, match=f"^{re.escape(message)}$"):
            directed._check_chain(window42, geo, source, target)


def test_triangle_count_mismatch_is_not_flat(window42):
    """Naming the hexagon's centre as a cycle vertex leaves no interior
    vertex, so 6 triangles on 7 boundary vertices break 2I + B - 2."""
    ls = layers(window42, (0, 0), (4, 2))
    cycle = chardisk.boundary_cycle(window42, thick_intervals(ls)[0], ls)
    region = chardisk.extract_flat_disk(window42, cycle).region
    bad = chardisk.BoundaryCycle(cycle.interval, cycle.s, cycle.t,
                                 cycle.cycle + tuple(sorted(region - set(cycle.cycle))))
    assert len(region) == 7 and oracles.pairwise_triangle_count(window42, region) == 6
    with pytest.raises(NotFlat,
                       match=r"^triangle count does not match a disk Euler characteristic$"):
        chardisk.extract_flat_disk(window42, bad)


def test_crossing_outside_segment(window42):
    """A path from the start that meets the inner layer line of the hexagon
    disk at arc position 3, beyond its segment of length 2."""
    ls = layers(window42, (0, 0), (4, 2))
    disk = chardisk.extract_flat_disk(
        window42, chardisk.boundary_cycle(window42, thick_intervals(ls)[0], ls))
    start = cat0.modified_disk(disk).start
    i = disk.interval.j + 1
    assert disk.interval.k == i + 1
    v, w = disk.layer_segment(i)
    assert eplane.lattice_distance(v, w) == 2
    step = ((w[0] - v[0]) // 2, (w[1] - v[1]) // 2)
    hit = (2 * (v[0] + 3 * step[0]), 2 * (v[1] + 3 * step[1]))
    alpha = cat0.PolyPath((start, PlanePoint(2 * hit[0] - start.p, 2 * hit[1] - start.q)),
                          (0,))
    assert oracles.crossing_arc(alpha, 0, v, step, i) == 3
    message = rf"^crossing with layer {i} lies outside its segment$"
    with pytest.raises(NoCrossing, match=message):
        cat0.euclidean_diagonal(disk, alpha)
    with pytest.raises(NoCrossing, match=message):
        oracles.fraction_diagonal(disk, alpha)


def test_goodness_shares_rows_within_one_call(monkeypatch):
    """On the selected geodesics of the pairs that give 20 or more disks at
    distance 4 to 10 in a 4-page book: the shared rows of one
    goodness_constant call settle fewer vertices than its queries' former
    early-exit searches together; a scope entered around the call keeps
    the rows the call's own scope grew; and without it the window holds no
    rows once the call returns, or once it fails after a search."""
    c = samples.book_window(4, 12)
    rng = random.Random(9)
    paths, disks = [], 0
    while disks < 20:
        x, y, d = oracles.sample_safe_pair(c, rng, 10)
        if d >= 4:
            geo = euclid.euclidean_geodesic(c, x, y, check_reversal=False)
            disks += len(geo.disks)
            paths.append(euclid.select_vertex_geodesic(geo))
    former = []
    true_distance, interval_levels = c.true_distance, c.interval_levels
    check_isometric = chardisk._check_isometric

    def counted_distance(x, y):
        if x != y and not c.adjacent(x, y):
            former.append(len(oracles.early_exit_bfs(c, x, None, (y,))))
        return true_distance(x, y)

    def counted_levels(x, y):
        if x != y:
            former.append(len(oracles.early_exit_bfs(c, x, None, (y,))))
        return interval_levels(x, y)

    def counted_isometry(c, region, coords):
        verts = sorted(region)
        for i, a in enumerate(verts[:-1]):
            want = [eplane.lattice_distance(coords[a], coords[b]) for b in verts[i + 1:]]
            former.append(len(oracles.early_exit_bfs(c, a, max(want), verts[i + 1:])))
        return check_isometric(c, region, coords)

    monkeypatch.setattr(c, "true_distance", counted_distance)
    monkeypatch.setattr(c, "interval_levels", counted_levels)
    monkeypatch.setattr(chardisk, "_check_isometric", counted_isometry)
    totals = [0, 0]
    for path in paths:
        former.clear()
        with c._shared_rows:
            report = euclid.goodness_constant(c, path)
            settled = sum(len(row.dist) for row in c._shared_rows.rows.values())
        assert c._shared_rows.rows is None
        assert settled < sum(former), (path, settled, sum(former))
        totals[0] += settled
        totals[1] += sum(former)
        assert euclid.goodness_constant(c, path) == report
        assert c._shared_rows.rows is None
    print(f"settled by shared rows {totals[0]}, by former searches {totals[1]}")
    with pytest.raises(PreconditionViolated, match="^not a vertex geodesic: d"):
        euclid.goodness_constant(c, paths[0][:-1] + paths[0][-3:-2])
    assert c._shared_rows.rows is None


# -- the call caches of _shared_rows ---------------------------------------------------

CACHES = ("rows", "links", "balls", "disks")


def _refusal(fn, *args, **kwargs):
    """What fn returns, or the type and message of the library refusal it
    raised."""
    try:
        return fn(*args, **kwargs)
    except SyslabError as exc:
        return type(exc).__name__, str(exc)


def _book_paths(c, seed, lengths, per_length):
    """The selected vertex geodesics of seeded margin-safe pairs of the book
    window c at each distance in lengths, per_length of them at each."""
    rng = random.Random(seed)
    inner = sorted(v for v in c.vertices() if c.margin(v) >= 1)
    paths = []
    for n in lengths:
        found = 0
        while found < per_length:
            x = inner[rng.randrange(len(inner))]
            sphere = sorted(v for v, d in c.bfs_distances(x, budget=n).items() if d == n)
            if not sphere:
                continue
            y = sphere[rng.randrange(len(sphere))]
            try:
                geo = euclid.euclidean_geodesic(c, x, y, check_reversal=False)
            except BoundaryUnsafe:
                continue
            paths.append(euclid.select_vertex_geodesic(geo))
            found += 1
    return paths


def _use_uncached(m):
    """Patch the projection, its residue/ball check and the flat disk back to
    the former bodies, which compute every link, ball and development on
    every use."""
    m.setattr(directed, "_project", oracles.uncached_project)
    m.setattr(directed, "_verify_conditions", oracles.uncached_verify_conditions)
    m.setattr(chardisk, "extract_flat_disk", oracles.uncached_extract_flat_disk)


def _recorded(monkeypatch, uncached, fn, *args, **kwargs):
    """fn's result or refusal, with what each Euclidean geodesic it built
    held (ends, simplices, provenance) and each flat disk (interval, labels,
    surface), in the order it built them; with ``uncached`` on the former
    bodies of ``_use_uncached``."""
    geodesics, disks = [], []
    with monkeypatch.context() as m:
        if uncached:
            _use_uncached(m)
        construct, extract = euclid.euclidean_geodesic, chardisk.extract_flat_disk

        def geodesic(c, x, y, **kw):
            geo = construct(c, x, y, **kw)
            geodesics.append((x, y, geo.simplices, geo.provenance))
            return geo

        def disk(c, cycle):
            out = extract(c, cycle)
            disks.append((out.interval, out.v_labels, out.w_labels, out.surface))
            return out

        for owner in (euclid, oracles):
            m.setattr(owner, "euclidean_geodesic", geodesic)
        m.setattr(chardisk, "extract_flat_disk", disk)
        return _refusal(fn, *args, **kwargs), geodesics, disks


def _agree_on_goodness(monkeypatch, c, path):
    """goodness_constant and the uncached oracle on the former bodies give
    the same report or refusal, sub-pairs and disks; returns the disks."""
    new = _recorded(monkeypatch, False, euclid.goodness_constant, c, path)
    old = _recorded(monkeypatch, True, oracles.uncached_goodness_constant, c, path)
    assert new == old, (c.name, path)
    return len(new[2])


def test_cached_goodness_matches_uncached_oracle(monkeypatch, non_plane_complexes):
    """Every pair within distance 6 of each non-plane complex: the same
    Euclidean geodesic or refusal, and then the same goodness report (c_star,
    witness, pairs examined), sub-pair simplices and provenance, and disk
    intervals, labels and surfaces, as the former uncached construction; and
    the same on selected geodesics of a 4-page book of radius 12 at n = 4..12.
    """
    reports = disks = 0
    refusals = set()
    for c in non_plane_complexes:
        for x, y in oracles.pairs_within(c, 6):
            if not x < y:
                continue
            new = _recorded(monkeypatch, False, euclid.euclidean_geodesic, c, x, y,
                            check_reversal=False)
            old = _recorded(monkeypatch, True, euclid.euclidean_geodesic, c, x, y,
                            check_reversal=False)
            assert new[1:] == old[1:], (c.name, x, y)
            if isinstance(new[0], tuple):
                assert new[0] == old[0], (c.name, x, y)
                refusals.add(new[0][0])
                continue
            disks += _agree_on_goodness(monkeypatch, c, euclid.select_vertex_geodesic(new[0]))
            reports += 1
    book = samples.book_window(4, 12)
    for path in _book_paths(book, 29, range(4, 13), 2):
        disks += _agree_on_goodness(monkeypatch, book, path)
        reports += 1
    print(f"{reports} reports, {disks} disks, refusals {sorted(refusals)}")
    assert reports >= 4000 and disks >= 250
    assert "BoundaryUnsafe" in refusals


def test_call_caches_live_for_one_call(monkeypatch):
    """Every cache of ``_shared_rows`` is None after a goodness call, and
    after one that raises once every cache holds entries; a scope entered
    around a call keeps what the call stored until it exits."""
    c = samples.book_window(4, 12)
    path = next(p for p in _book_paths(c, 29, (8,), 4)
                if euclid.euclidean_geodesic(c, p[0], p[-1]).disks)
    shared = c._shared_rows
    euclid.goodness_constant(c, path)
    assert all(getattr(shared, cache) is None for cache in CACHES)
    with shared:
        euclid.goodness_constant(c, path)
        assert all(getattr(shared, cache) for cache in CACHES)
        with shared:
            pass
        assert all(getattr(shared, cache) for cache in CACHES)
    assert all(getattr(shared, cache) is None for cache in CACHES)

    diagonal = cat0.euclidean_diagonal

    def failing(disk, alpha):
        if all(getattr(shared, cache) for cache in CACHES):
            raise NoCrossing("refused after every cache was filled")
        return diagonal(disk, alpha)

    monkeypatch.setattr(cat0, "euclidean_diagonal", failing)
    with pytest.raises(NoCrossing, match="^refused after every cache was filled$"):
        euclid.goodness_constant(c, path)
    assert all(getattr(shared, cache) is None for cache in CACHES)
    with shared:
        with pytest.raises(NoCrossing):
            euclid.goodness_constant(c, path)
        assert all(getattr(shared, cache) for cache in CACHES)
    assert all(getattr(shared, cache) is None for cache in CACHES)


def test_one_goodness_call_computes_each_link_ball_and_disk_once(monkeypatch):
    """Inside one goodness call on selected book geodesics, the common
    neighbours and the closed ball are computed once per distinct simplex
    asked for, and the development once per distinct boundary cycle, while
    the call asks for them many more times."""
    c = samples.book_window(4, 12)
    paths = _book_paths(c, 29, (6, 9, 12), 2)
    computed = {"links": [], "balls": [], "disks": []}
    asked = {"links": [], "balls": [], "disks": []}

    def counted(kind, fn, key):
        def wrapper(*args):
            computed[kind].append(key(args))
            return fn(*args)
        return wrapper

    def asking(kind, fn, key):
        def wrapper(*args):
            asked[kind].append(key(args))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(complexes, "_common_neighbors",
                        counted("links", complexes._common_neighbors, lambda a: a[1]))
    monkeypatch.setattr(complexes, "_closed_ball",
                        counted("balls", complexes._closed_ball, lambda a: a[1]))
    monkeypatch.setattr(chardisk, "_certified_development",
                        counted("disks", chardisk._certified_development,
                                lambda a: (a[1].s, a[1].t)))
    monkeypatch.setattr(c, "_link", asking("links", c._link, lambda a: a[0]))
    monkeypatch.setattr(c, "_ball", asking("balls", c._ball, lambda a: a[0]))
    monkeypatch.setattr(chardisk, "extract_flat_disk",
                        asking("disks", chardisk.extract_flat_disk,
                               lambda a: (a[1].s, a[1].t)))
    totals = dict.fromkeys(computed, 0)
    uses = dict.fromkeys(computed, 0)
    for path in paths:
        for kind in computed:
            computed[kind].clear()
            asked[kind].clear()
        euclid.goodness_constant(c, path)
        for kind in computed:
            assert len(computed[kind]) == len(set(computed[kind])) == len(set(asked[kind])), \
                (kind, path)
            assert set(computed[kind]) == set(asked[kind])
            totals[kind] += len(computed[kind])
            uses[kind] += len(asked[kind])
    print(f"computed {totals}, asked {uses}")
    assert all(uses[kind] > totals[kind] > 0 for kind in computed)
