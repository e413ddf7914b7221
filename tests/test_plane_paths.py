"""The plane paths against their area-based oracles in ``oracles``: layers
read as the lattice distance predicate against the box levels, the flat
disk of ``chardisk.extract_flat_disk`` and its segment reads against the
former seven-field disk built from the same region, and the
characteristic map's segment membership against the surface map. Every
refusal must carry the oracle's exception type and text."""

import random

import oracles
from syslab import chardisk, directed, eplane, euclid
from syslab.chardisk import BoundaryCycle, characteristic_map
from syslab.complexes import Simplex
from syslab.directed import layers, thick_intervals
from syslab.errors import SyslabError

CRITERION_10 = [(4, 2), (6, 2), (6, 3), (8, 2), (5, 2), (7, 3), (8, 4), (9, 3),
                (7, 2), (7, 4), (8, 5), (10, 2), (10, 3), (9, 4), (10, 4),
                (11, 3), (12, 4), (9, 2), (11, 4), (12, 3), (8, 3)]


def _outcome(fn, *args):
    """What fn returns, or the type and text of the library error it raises."""
    try:
        return fn(*args)
    except SyslabError as exc:
        return type(exc).__name__, str(exc)


def _fields(disk):
    return (disk.interval, disk.v_labels, disk.w_labels, disk.region, disk.coords,
            disk.surface, disk.triangle_count)


def _disk_outcome(fn, c, cycle):
    out = _outcome(fn, c, cycle)
    return _fields(out) if isinstance(out, (chardisk.CharDisk, oracles.AreaDisk)) else out


def _image(c, disk, verts):
    out = _outcome(characteristic_map, c, disk, Simplex.of(verts))
    return out.verts if isinstance(out, Simplex) else out


def _agree_on_maps(c, fast, old):
    """Images of every disk vertex and edge, and refusals of the vertices
    next to the disk and of one non-adjacent pair of disk vertices."""
    region = old.region
    near = {u for v in region for u in c.neighbors(v)} - region
    for v in sorted(region | near):
        assert _image(c, fast, [v]) == _image(c, old, [v]), v
    for v in sorted(region):
        for u in sorted(c.neighbors(v) & region):
            assert _image(c, fast, [v, u]) == _image(c, old, [v, u]), (v, u)
    verts = sorted(region)
    assert _image(c, fast, [verts[0], verts[-1]]) == _image(c, old, [verts[0], verts[-1]])


def _corrupted(cycle):
    """The cycle with an inner endpoint moved one step along or across its
    layer line, and with the region's remaining vertices appended (the
    triangle-count case of ``test_certificates``)."""
    for side in ("s", "t"):
        ends = getattr(cycle, side)
        for i in range(1, len(ends) - 1):
            for step in eplane.OFFSETS:
                moved = list(ends)
                moved[i] = (ends[i][0] + step[0], ends[i][1] + step[1])
                s, t = (tuple(moved), cycle.t) if side == "s" else (cycle.s, tuple(moved))
                yield BoundaryCycle(cycle.interval, s, t, s + tuple(reversed(t)))
    yield BoundaryCycle(cycle.interval, cycle.s, cycle.t,
                        cycle.cycle[1:] + cycle.cycle[:1])


def _agree_on_disk(c, cycle, corrupt):
    fast = chardisk.extract_flat_disk(c, cycle)
    old = oracles.area_extract_flat_disk(c, cycle)
    # the lazy fields are read here for the first time
    assert _fields(fast) == _fields(old)
    _agree_on_maps(c, fast, old)
    refused = 0
    for bad in _corrupted(cycle) if corrupt else ():
        if not all(v in c for v in bad.cycle):
            continue
        new = _disk_outcome(chardisk.extract_flat_disk, c, bad)
        assert new == _disk_outcome(oracles.area_extract_flat_disk, c, bad), bad
        refused += isinstance(new[0], str)
    padded = BoundaryCycle(cycle.interval, cycle.s, cycle.t,
                           cycle.cycle + tuple(sorted(old.region - set(cycle.cycle))))
    if len(padded) > len(cycle):
        new = _disk_outcome(chardisk.extract_flat_disk, c, padded)
        assert new == _disk_outcome(oracles.area_extract_flat_disk, c, padded)
        refused += isinstance(new[0], str)
    return refused


def _agree_on_pair(c, x, y, corrupt=True):
    """Levels, projections and every thick-interval disk of (x, y) against
    the oracles, with its corrupted cycles when ``corrupt`` is set; returns
    (disks, refusals), or None when the margin rule refuses the pair with
    the oracle scan's text."""
    got = _outcome(layers, c, x, y)
    want = _outcome(oracles.scan_safe_levels, c, x, y)
    if not isinstance(got, directed.Layers):
        assert got == want and got[0] == "BoundaryUnsafe", (x, y)
        return None
    ls, levels = got, want
    assert ls.levels is None
    for i, level in enumerate(levels):
        near = level.union(*map(c.neighbors, level))
        assert {v for v in near if oracles.in_plane_layer(ls, i, v)} == level, (x, y, i)
    assert ls.sigma_geo == directed._project(c, x, y, levels)
    assert ls.tau_geo == directed._project(c, y, x, levels[::-1])
    disks = refused = 0
    for interval in thick_intervals(ls):
        refused += _agree_on_disk(c, chardisk.boundary_cycle(c, interval, ls), corrupt)
        disks += 1
    return disks, refused


def test_plane_paths_agree_on_criterion_10_disks():
    c = eplane.window((0, 0), 16)
    disks = refused = 0
    for p, q in CRITERION_10:
        d, r = _agree_on_pair(c, (-(p // 2), -(q // 2)), (p - p // 2, q - q // 2))
        disks += d
        refused += r
    assert disks >= 20 and refused > 0


def test_plane_paths_agree_on_pairs_within_12():
    """Every difference of length 1 to 12, which up to translation is every
    plane pair within distance 12."""
    c = eplane.window((0, 0), 20)
    disks = refused = 0
    for y in sorted(c.vertices()):
        if 1 <= eplane.lattice_distance((0, 0), y) <= 12:
            d, r = _agree_on_pair(c, (0, 0), y)
            disks += d
            refused += r
    assert disks == 264 and refused > 0


def test_plane_paths_agree_on_random_pairs_up_to_64():
    """Random pairs of a radius-40 window up to distance 64, some refused by
    the margin rule; the corrupted cycles are left to the smaller pairs."""
    c = eplane.window((0, 0), 40)
    rng = random.Random(64)
    done = unsafe = disks = 0
    while done < 12 or unsafe < 4:
        x = (rng.randint(-40, 40), rng.randint(-40, 40))
        y = (rng.randint(-40, 40), rng.randint(-40, 40))
        if x not in c or y not in c or not 2 <= eplane.lattice_distance(x, y) <= 64:
            continue
        result = _agree_on_pair(c, x, y, corrupt=False)
        if result is None:
            unsafe += 1
            continue
        done += 1
        disks += result[0]
    assert disks >= 12


def test_plane_construction_never_builds_levels(window42, monkeypatch):
    """Neither the plane layers nor the Euclidean geodesic with its reversal
    check builds a level; membership is the distance predicate."""
    calls = []
    levels = window42.interval_levels
    monkeypatch.setattr(window42, "interval_levels",
                        lambda *a: calls.append(a) or levels(*a))
    ls = layers(window42, (0, 0), (4, 2))
    euclid.euclidean_geodesic(window42, (0, 0), (4, 2), check_reversal=True)
    assert calls == []
    assert ls.levels is None and ls.reversed().levels is None
    assert ({v for v in window42.vertices() if oracles.in_plane_layer(ls, 3, v)}
            == {(1, 2), (2, 1), (3, 0)})
