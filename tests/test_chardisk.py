import pytest

import oracles
from syslab import chardisk, eplane, samples
from oracles import MinDiskTimeout, NoFilling, brute_force_min_disk
from syslab.chardisk import boundary_cycle, characteristic_map, extract_flat_disk
from syslab.complexes import FlagComplex, Simplex
from syslab.directed import ThickInterval, layers, thick_intervals
from syslab.errors import BoundaryUnsafe, NotASimplexOfDisk, NotFlat, PreconditionViolated


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
    """Disk extraction away from the plane exercises the real development."""
    book = samples.book_window(3, 12)
    bf = samples.book_flat_embedding
    ls = layers(book, bf((-3, 1)), bf((5, -2)))
    ivs = thick_intervals(ls)
    assert ivs
    for iv in ivs:
        cyc = boundary_cycle(book, iv, ls)
        disk = extract_flat_disk(book, cyc)
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
        Layer(0, frozenset(), Simplex.of([(0, 0)]), Simplex.of([(0, 0)]), 0),
        Layer(1, frozenset(), Simplex.of([(1, 0)]), Simplex.of([(1, 0)]), 0),
        Layer(2, frozenset(), Simplex.of([(1, 1)]), Simplex.of([(3, -1)]), 2),
        Layer(3, frozenset(), Simplex.of([(2, 1)]), Simplex.of([(2, 1)]), 0),
        Layer(4, frozenset(), Simplex.of([(3, 1)]), Simplex.of([(3, 1)]), 0),
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
