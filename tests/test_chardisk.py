import random
from unittest import mock

import pytest

import oracles
from syslab import chardisk, eplane, samples
from oracles import MinDiskTimeout, NoFilling, brute_force_min_disk
from syslab.chardisk import boundary_cycle, characteristic_map, extract_flat_disk
from syslab.complexes import FlagComplex, Simplex
from syslab.directed import ThickInterval, layers, thick_intervals
from syslab.errors import (BoundaryUnsafe, NotASimplexOfDisk, NotFlat, PreconditionViolated,
                           SyslabError)


@pytest.fixture(scope="module")
def hexagon_setup():
    c = eplane.window((2, 1), 12)
    ls = layers(c, (0, 0), (4, 2))
    interval = thick_intervals(ls)[0]
    cyc = boundary_cycle(c, interval, ls)
    return c, ls, interval, cyc


def test_boundary_cycle_hexagon(hexagon_setup):
    _, _, interval, cyc = hexagon_setup
    assert (interval.j, interval.k) == (2, 4)
    assert cyc.cycle == ((1, 1), (1, 2), (2, 2), (3, 1), (3, 0), (2, 0))
    assert cyc.s == ((1, 1), (1, 2), (2, 2))
    assert cyc.t == ((2, 0), (3, 0), (3, 1))


def test_boundary_cycle_needs_thick_interval(hexagon_setup):
    c, _, _, _ = hexagon_setup
    all_thin = layers(c, (0, 0), (3, 0))
    with pytest.raises(PreconditionViolated):
        boundary_cycle(c, ThickInterval(1, 3), all_thin)


def test_boundary_cycle_equivariance(hexagon_setup):
    g = eplane.glide(1, 1)
    c = eplane.window((3, 2), 12)
    ls = layers(c, g((0, 0)), g((4, 2)))
    cyc = boundary_cycle(c, thick_intervals(ls)[0], ls)
    _, _, _, base = hexagon_setup
    assert set(cyc.cycle) == {g(v) for v in base.cycle}


def test_extract_hexagon_disk(hexagon_setup):
    c, _, _, cyc = hexagon_setup
    disk = extract_flat_disk(c, cyc)
    assert disk.region == frozenset(
        [(1, 1), (1, 2), (2, 2), (3, 1), (3, 0), (2, 0), (2, 1)])
    assert disk.triangle_count == 6
    assert disk.coords[(2, 1)] == (2, 1)  # identity development on the plane
    assert disk.v_labels == ((1, 1), (1, 2), (2, 2))
    assert disk.w_labels == ((2, 0), (3, 0), (3, 1))


def test_extract_rejects_short_cycles(hexagon_setup):
    c, _, _, cyc = hexagon_setup
    from syslab.chardisk import BoundaryCycle
    fake = BoundaryCycle(ThickInterval(1, 3), cyc.s[:2], cyc.t[:2],
                         cyc.s[:2] + cyc.t[:2])
    with pytest.raises(PreconditionViolated):
        extract_flat_disk(c, fake)


def test_extract_translated(hexagon_setup):
    t = eplane.translation(5, 5)
    c = eplane.window((7, 6), 12)
    ls = layers(c, t((0, 0)), t((4, 2)))
    cyc = boundary_cycle(c, thick_intervals(ls)[0], ls)
    disk = extract_flat_disk(c, cyc)
    assert disk.region == frozenset(
        [(6, 6), (6, 7), (7, 7), (8, 6), (8, 5), (7, 5), (7, 6)])
    assert disk.triangle_count == 6


def test_brute_force_examples(hexagon_setup):
    c, _, _, cyc = hexagon_setup
    assert brute_force_min_disk(c, cyc.cycle, 12) == 6
    assert brute_force_min_disk(c, ((0, 0), (1, 0), (0, 1)), 3) == 1
    assert brute_force_min_disk(c, ((0, 0), (1, 0), (1, 1), (0, 1)), 4) == 2


def test_brute_force_timeout(hexagon_setup):
    c, _, _, cyc = hexagon_setup
    with pytest.raises(MinDiskTimeout):
        brute_force_min_disk(c, cyc.cycle, 4)


def test_brute_force_no_filling():
    ring = FlagComplex({i: [(i - 1) % 6, (i + 1) % 6] for i in range(6)})
    with pytest.raises(NoFilling):
        brute_force_min_disk(ring, tuple(range(6)), 12)


def test_brute_force_guards(hexagon_setup):
    c, *_ = hexagon_setup
    with pytest.raises(PreconditionViolated):
        brute_force_min_disk(c, tuple((i, 0) for i in range(5)), 3)  # not a cycle
    with pytest.raises(PreconditionViolated):
        brute_force_min_disk(c, ((0, 0), (1, 0), (0, 1)), 13)


def test_minimality_agreement(hexagon_setup):
    c, _, _, cyc = hexagon_setup
    disk = extract_flat_disk(c, cyc)
    assert disk.triangle_count == brute_force_min_disk(c, cyc.cycle, 12)


def test_characteristic_map(hexagon_setup):
    c, _, _, cyc = hexagon_setup
    disk = extract_flat_disk(c, cyc)
    assert characteristic_map(c, disk, Simplex.of([(2, 1)])).verts == ((2, 1),)
    # boundary label v_2 maps to the chosen s_2
    assert characteristic_map(c, disk, Simplex.of([disk.v_labels[0]])).verts == ((1, 1),)
    edge = Simplex.of([(2, 1), (1, 2)])
    assert characteristic_map(c, disk, edge).verts == ((1, 2), (2, 1))
    with pytest.raises(NotASimplexOfDisk):
        characteristic_map(c, disk, Simplex.of([(9, 9)]))
    with pytest.raises(NotASimplexOfDisk):
        characteristic_map(c, disk, Simplex.of([(1, 1), (3, 0)]))  # not adjacent


def test_characteristic_map_monotone(hexagon_setup):
    c, _, _, cyc = hexagon_setup
    disk = extract_flat_disk(c, cyc)
    small = characteristic_map(c, disk, Simplex.of([(2, 1)]))
    big = characteristic_map(c, disk, Simplex.of([(2, 1), (2, 2)]))
    assert set(small.verts) <= set(big.verts)


def test_development_in_book():
    """Disk extraction away from the plane exercises the real development,
    and checks each disk's layer geometry once."""
    book = samples.book_window(3, 12)
    bf = samples.book_flat_embedding
    ls = layers(book, bf((-3, 1)), bf((5, -2)))
    ivs = thick_intervals(ls)
    assert ivs
    for iv in ivs:
        cyc = boundary_cycle(book, iv, ls)
        with mock.patch.object(chardisk, "_check_layer_geometry",
                               wraps=chardisk._check_layer_geometry) as geometry:
            disk = extract_flat_disk(book, cyc)
        assert geometry.call_count == 1
        # the development is isometric: check a sample of pairs explicitly
        region = sorted(disk.region)
        for a in region:
            for b in region:
                assert (eplane.lattice_distance(disk.coords[a], disk.coords[b])
                        == book.true_distance(a, b))
        # the surface restricted to a layer segment is an isometric embedding
        surface = disk.surface
        for i in range(iv.j, iv.k + 1):
            v, w = disk.layer_segment(i)
            t = eplane.lattice_distance(v, w)
            step = ((w[0] - v[0]) // t, (w[1] - v[1]) // t)
            pts = [(v[0] + step[0] * m, v[1] + step[1] * m) for m in range(t + 1)]
            for mi in range(t + 1):
                for mj in range(mi, t + 1):
                    assert book.true_distance(surface[pts[mi]], surface[pts[mj]]) == mj - mi


def _flat_disks(c):
    """The distinct flat disks of the thick intervals between pairs x < y
    within distance 8 that the margin rule allows."""
    disks = {}
    for x, y in oracles.pairs_within(c, 8):
        if x < y:
            try:
                ls = layers(c, x, y)
            except BoundaryUnsafe:
                continue
            for iv in thick_intervals(ls):
                disk = extract_flat_disk(c, boundary_cycle(c, iv, ls))
                disks.setdefault(disk.region, disk)
    return list(disks.values())


def _swapped(coords, a, b):
    bad = dict(coords)
    bad[a], bad[b] = coords[b], coords[a]
    return bad


def test_check_isometric_agrees_with_pairwise_oracle(non_plane_complexes):
    checked = 0
    for c in non_plane_complexes:
        for disk in _flat_disks(c):
            chardisk._check_isometric(c, disk.region, disk.coords)
            oracles.pairwise_check_isometric(c, disk.region, disk.coords)
            verts = sorted(disk.region)
            bad = _swapped(disk.coords, verts[1], verts[-2])
            with pytest.raises(NotFlat) as new:
                chardisk._check_isometric(c, disk.region, bad)
            with pytest.raises(NotFlat) as old:
                oracles.pairwise_check_isometric(c, disk.region, bad)
            assert str(new.value) == str(old.value)
            checked += 1
    assert checked >= 250


def test_non_isometric_development_raises_not_flat(monkeypatch):
    """A development that misplaces two vertices of a book disk is caught
    by the isometry check, which names the first bad pair in sorted order."""
    book = samples.book_window(3, 12)
    bf = samples.book_flat_embedding
    ls = layers(book, bf((-3, 1)), bf((5, -2)))
    cyc = boundary_cycle(book, thick_intervals(ls)[0], ls)
    region = sorted(extract_flat_disk(book, cyc).region)
    a, b = region[2], region[5]
    develop = chardisk._develop
    monkeypatch.setattr(chardisk, "_develop",
                        lambda c, cycle, reg: _swapped(develop(c, cycle, reg), a, b))
    with pytest.raises(NotFlat, match=r"development is not isometric on pair") as new:
        extract_flat_disk(book, cyc)
    bad = _swapped(develop(book, cyc, set(region)), a, b)
    with pytest.raises(NotFlat) as old:
        oracles.pairwise_check_isometric(book, region, bad)
    assert str(new.value) == str(old.value)
    assert str(new.value).endswith(f"on pair ({region[0]}, {a})")


def test_no_realizing_chain_on_degenerate_bracket():
    """A zero-thickness bracket cannot seed an embedded cycle."""
    from syslab.directed import Layer
    c = eplane.window((2, 1), 10)
    fake = [
        Layer(0, Simplex.of([(0, 0)]), Simplex.of([(0, 0)]), 0),
        Layer(1, Simplex.of([(1, 0)]), Simplex.of([(1, 0)]), 0),
        Layer(2, Simplex.of([(1, 1)]), Simplex.of([(3, -1)]), 2),
        Layer(3, Simplex.of([(2, 1)]), Simplex.of([(2, 1)]), 0),
        Layer(4, Simplex.of([(3, 1)]), Simplex.of([(3, 1)]), 0),
    ]
    from syslab.errors import NoRealizingChain
    with pytest.raises(NoRealizingChain):
        boundary_cycle(c, ThickInterval(1, 3), fake)


def test_layer_segments_parallel(hexagon_setup):
    c, _, _, cyc = hexagon_setup
    disk = extract_flat_disk(c, cyc)
    dirs = set()
    for i in range(disk.interval.j, disk.interval.k + 1):
        v, w = disk.layer_segment(i)
        t = eplane.lattice_distance(v, w)
        dirs.add(((w[0] - v[0]) // t, (w[1] - v[1]) // t))
    assert len(dirs) == 1


def _disks_with_area_oracle(c, pairs):
    """The library's disk and the former area disk of every thick interval
    of the pairs that the margin rule allows."""
    for x, y in pairs:
        try:
            ls = layers(c, x, y)
        except BoundaryUnsafe:
            continue
        for iv in thick_intervals(ls):
            cycle = boundary_cycle(c, iv, ls)
            yield extract_flat_disk(c, cycle), oracles.area_extract_flat_disk(c, cycle)


def test_segment_reads_agree_with_area_disk(non_plane_complexes):
    """On every disk of the non-plane pairs within 6 and of 300 random pairs
    of a 3-page book, membership read off the layer segments agrees with the
    former disk's surface dict on the segment points and their lattice
    neighbours, and the characteristic map sends every disk vertex and edge
    to the same simplex."""
    book = samples.book_window(3, 12)
    rng = random.Random(15)
    drawn = [oracles.sample_safe_pair(book, rng, 10)[:2] for _ in range(300)]
    cases = [(c, oracles.pairs_within(c, 6)) for c in non_plane_complexes]
    checked = 0
    for c, pairs in cases + [(book, drawn)]:
        for new, old in _disks_with_area_oracle(c, pairs):
            points = {v for a, b in zip(new.v_labels, new.w_labels)
                      for v in eplane.segment(a, b)}
            near = {u for v in points for u in eplane.neighbors(v)}
            for v in sorted(points | near):
                assert new.holds(v) == old.holds(v), (c.name, v)
            for v in sorted(points):
                for u in [v] + sorted(points.intersection(eplane.neighbors(v))):
                    rho = Simplex.of({v, u})
                    assert (characteristic_map(c, new, rho)
                            == characteristic_map(c, old, rho)), (c.name, rho)
            checked += 1
    print(f"disks checked: {checked}")
    assert checked >= 600


def test_disk_layers_must_stack():
    """Parallel layer segments on lattice lines 1, 3 and 4 are not a stack."""
    with pytest.raises(NotFlat, match="^layer segments do not lie on consecutive lattice lines$"):
        chardisk.CharDisk(ThickInterval(0, 2), ((0, 1), (0, 3), (0, 4)),
                          ((1, 0), (3, 0), (4, 0)), lambda v: v)


def _cycle_outcome(build, c, interval, ls):
    """The boundary cycle, or the type and text of its refusal."""
    try:
        return build(c, interval, ls)
    except SyslabError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_boundary_cycle_agrees_with_recursive_oracle(non_plane_complexes):
    """The explicit-stack chain search against the former recursive one, on
    every thick interval of every pair within distance 6 that the margin
    rule lets a complex off the plane build: the same cycle, or the same
    refusal."""
    compared = 0
    for c in non_plane_complexes:
        for x, y in oracles.pairs_within(c, 6):
            try:
                ls = layers(c, x, y)
            except SyslabError:
                continue
            for interval in thick_intervals(ls):
                assert _cycle_outcome(boundary_cycle, c, interval, ls) == _cycle_outcome(
                    oracles.recursive_boundary_cycle, c, interval, ls), (c.name, x, y)
                compared += 1
    assert compared > 400



def test_chain_search_agrees_with_recursive_oracle():
    """The explicit-stack chain search against the former recursive one on
    seeded candidate lists over a radius-4 plane window. The thick
    intervals the fixtures build have one realizing pair per layer, so
    these lists make the choices: each layer holds the pair of two random
    neighbour walks (left out one time in ten), decoy pairs adjacent to the
    walks' previous vertices and sometimes an equal pair, in shuffled
    order. The searches then backtrack, pick among several chains by
    candidate order, and sometimes find none."""
    c = eplane.window((0, 0), 4)
    verts = sorted(c.vertices())
    rng = random.Random("chain-search")
    found = missing = 0
    for _ in range(3000):
        s_walk = [rng.choice(verts)]
        t_walk = [rng.choice(sorted(c.neighbors(s_walk[0])))]
        options = []
        for i in range(rng.randint(3, 8)):
            if i:
                s_walk.append(rng.choice(sorted(c.neighbors(s_walk[-1]))))
                t_walk.append(rng.choice(sorted(c.neighbors(t_walk[-1]))))
            pairs = [(s_walk[-1], t_walk[-1])] if rng.random() < 0.9 else []
            for _ in range(rng.randint(0, 3)):
                pairs.append((rng.choice(sorted(c.neighbors(s_walk[-2 if i else -1]))),
                              rng.choice(sorted(c.neighbors(t_walk[-2 if i else -1])))))
            if rng.random() < 0.3:
                pairs.append((s_walk[-1], s_walk[-1]))
            rng.shuffle(pairs)
            options.append(pairs or [(s_walk[-1], t_walk[-1])])
        chain = []
        want = chain if oracles.recursive_extend_chain(c, options, chain, 0) else None
        assert chardisk._extend_chain(c, options) == want, options
        found += want is not None
        missing += want is None
    assert found > 1000 and missing > 500

def test_boundary_cycle_of_a_long_thick_interval():
    """A thick interval of 1098 thick layers: the chain search takes one
    stack entry per layer where the recursive form it replaced ran past the
    interpreter's recursion limit."""
    c = samples.parallelogram_disk(1100, 2)
    ls = layers(c, (0, 0), (1100, 2))
    (interval,) = thick_intervals(ls)
    assert (interval.j, interval.k) == (2, 1100)
    cyc = boundary_cycle(c, interval, ls)
    assert len(cyc.s) == len(cyc.t) == 1099
    assert len(cyc) == len(set(cyc.cycle)) == 2198


def _developed(develop, c, cycle, region):
    """The development, or the text of the NotFlat it raised."""
    try:
        return develop(c, cycle, region)
    except NotFlat as exc:
        return str(exc)


def test_development_matches_scan_oracle():
    """The development with its set of placed points agrees with the former
    scan of every placed point: on the wheels with 4 to 9 spokes from the
    hub (only 6 spokes are flat; fewer give an inconsistent development,
    more a non-injective one, with the same vertex named), and on a strip
    disk of length 60 from (0, 0) to (60, 2) in insertion order too."""
    refusals = set()
    for spokes in range(4, 10):
        adjacency = {0: list(range(1, spokes + 1))}
        for i in range(1, spokes + 1):
            adjacency[i] = [0, i % spokes + 1, (i - 2) % spokes + 1]
        wheel = FlagComplex(adjacency)
        cycle = chardisk.BoundaryCycle(ThickInterval(0, 1), (0,), (1,), (0, 1))
        new = _developed(chardisk._develop, wheel, cycle, set(adjacency))
        assert new == _developed(oracles.scan_develop, wheel, cycle, set(adjacency))
        if isinstance(new, str):
            refusals.add(new.split(" at ")[0])
        else:
            assert spokes == 6 and len(new) == 7
    assert refusals == {"inconsistent development", "development is not injective"}
    strip = samples.parallelogram_disk(60, 2)
    ls = layers(strip, (0, 0), (60, 2))
    cycle = boundary_cycle(strip, thick_intervals(ls)[0], ls)
    region = set(extract_flat_disk(strip, cycle).region)
    new = chardisk._develop(strip, cycle, region)
    old = oracles.scan_develop(strip, cycle, region)
    assert list(new.items()) == list(old.items()) and len(new) == len(region)
