"""The straight segment of a plane thick interval against the stage chain.

On a plane window ``cat0._straight_segment`` fills the inner layers of a
thick interval from lattice arithmetic on the layers' segments;
``oracles.chain_diagonal`` runs the former path, the whole stage chain from
boundary cycle to characteristic map, on the same layers. They must give
the same simplices, the chain's funnel must return the straight segment,
and the segments of layers corrupted in thickness or position, or of a
sleeve the segment leaves, must be refused with ConditionViolated, as
``oracles.layered_straight_diagonal`` refuses those layers."""

import re
from unittest import mock

import pytest

import oracles
from syslab import cat0, chardisk, eplane, euclid
from syslab.chardisk import CharDisk
from syslab.complexes import Simplex
from syslab.directed import Layer, Layers, ThickInterval, layers, thick_intervals
from syslab.errors import ConditionViolated

CHAIN = ((chardisk, "boundary_cycle"), (chardisk, "extract_flat_disk"),
         (cat0, "modified_disk"), (cat0, "shortest_path"),
         (cat0, "euclidean_diagonal"), (chardisk, "characteristic_map"))


def test_straight_segment_agrees_with_stage_chain():
    """Every difference of length 1 to 20 from two origins of a radius-26
    window, each built with the reversal check."""
    c = eplane.window((0, 0), 26)
    geodesics = disks = 0
    for origin in ((0, 0), (2, -1)):
        for y in sorted(c.vertices()):
            if not 1 <= eplane.lattice_distance(origin, y) <= 20:
                continue
            geo = euclid.euclidean_geodesic(c, origin, y)
            geodesics += 1
            for interval in thick_intervals(geo.layers):
                want, alpha = oracles.chain_diagonal(c, geo.layers, interval)
                assert len(alpha.points) == 2, (origin, y, interval)
                got = [geo.simplices[i] for i in interval.interior()]
                assert got == want, (origin, y, interval)
                disks += 1
    assert geodesics == 2520 and disks == 2208


def test_plane_construction_builds_no_disk_until_read(window42):
    """A construction, selection and goodness call on the plane run none of
    the chain's stages; reading ``disks`` runs them once per interval."""
    patches = [mock.patch.object(owner, name, wraps=getattr(owner, name))
               for owner, name in CHAIN]
    stages = [p.start() for p in patches]
    try:
        geo = euclid.euclidean_geodesic(window42, (0, 0), (4, 2))
        euclid.goodness_constant(window42, euclid.select_vertex_geodesic(geo))
        assert not any(stage.called for stage in stages)
        disks = geo.disks
        assert [cycle.interval for cycle, _, _ in disks] == [ThickInterval(2, 4)]
        assert all(len(alpha.points) == 2 for _, _, alpha in disks)
        assert geo.disks is disks
        assert [stage.call_count for stage in stages[:4]] == [1, 1, 1, 1]
    finally:
        for p in patches:
            p.stop()


def _with_layer(ls, i, layer):
    items = list(ls)
    items[i] = layer
    return Layers(ls.complex, ls.x, ls.y, items, ls.sigma_geo, ls.tau_geo, None)


def _corruptions(ls, interval):
    """Each layer of the interval with its thickness off by one, and with
    its sigma shifted by each unit offset inside the window."""
    c = ls.complex
    for i in range(interval.j, interval.k + 1):
        layer = ls[i]
        for dt in (-1, 1):
            yield i, layer._replace(thickness=layer.thickness + dt)
        for da, db in eplane.OFFSETS:
            moved = [(a + da, b + db) for a, b in layer.sigma]
            if all(v in c for v in moved):
                yield i, layer._replace(sigma=Simplex.of(moved))


def _refusal(fn, *args):
    with pytest.raises(ConditionViolated) as refused:
        fn(*args)
    return str(refused.value)


def _straight_segment(layer_seq, interval):
    return cat0._straight_segment(interval.j, oracles.recorded_segments(layer_seq, interval))


def test_corrupted_layers_are_refused(window12):
    ls = layers(window12, (0, 0), (6, 3))
    intervals = thick_intervals(ls)
    assert intervals
    refused = 0
    for interval in intervals:
        for i, bad in _corruptions(ls, interval):
            worse = _with_layer(ls, i, bad)
            text = _refusal(_straight_segment, worse, interval)
            assert f"layer {i}" in text
            assert text == _refusal(oracles.layered_straight_diagonal, window12, worse, interval)
            refused += 1
    assert refused == 48


def test_sleeve_left_by_the_segment_is_refused(window12):
    """Layers 0..6 on the rows b = 0..6 that lean left and come back: the
    segment between the bracket midpoints leaves the portal of layer 3,
    where the funnel on the same disk bends. Each layer's segment is read
    from its left end and, flipped, from its right end, so the crossing
    falls past the portal's far end and before its near end."""
    lefts = (0, -1, -2, -3, -3, -3, -3)
    lengths = (1, 2, 2, 2, 2, 2, 1)
    for flip in (False, True):
        ends = [((a, b), (a + t, b)) for b, (a, t) in enumerate(zip(lefts, lengths))]
        if flip:
            ends = [(w, v) for v, w in ends]
        items = [Layer(b, Simplex((v,)), Simplex((w,)), t)
                 for b, ((v, w), t) in enumerate(zip(ends, lengths))]
        fake = Layers(window12, ends[0][0], ends[-1][0], items, None, None, None)
        interval = ThickInterval(0, 6)
        text = _refusal(_straight_segment, fake, interval)
        assert re.search(r"layer 3 at u = .* outside the portal", text), flip
        assert text == _refusal(oracles.layered_straight_diagonal, window12, fake, interval)
        disk = CharDisk(interval, tuple(v for v, _ in ends), tuple(w for _, w in ends),
                        window12.vertex)
        assert len(cat0.shortest_path(cat0.modified_disk(disk)).points) > 2
