"""The one-pass plane construction against the layered plane path it replaced.

On a plane window ``euclid.euclidean_geodesic`` builds the Euclidean
geodesic in one pass over lattice tuples; ``oracles.layered_euclidean_geodesic``
is the former path: the closed-form directed geodesics on the window's own
vertices, ``directed.layers``, the former ``euclid._assemble`` and the
straight segment read off the ``Layers``. Both must return the same
simplices, provenance, thickness profile and directed geodesics, and refuse
the same pairs with the same exception and text; the tuple checks the pass
runs, ``directed._check_chain`` and ``cat0._straight_segment``, must refuse
corrupted input as the former certificates did. The pass builds no
``Layers`` until ``layers`` is read.
"""

import random
from unittest import mock

import pytest

import oracles
from syslab import cat0, directed, eplane, euclid
from syslab.complexes import Simplex
from syslab.directed import DirectedGeodesic, Layers, thick_intervals
from syslab.errors import ConditionViolated, SyslabError


def _outcome(build, c, x, y, check_reversal):
    """Simplices, provenance, thickness profile and the two directed
    geodesics of the pair, or the type and text of the refusal."""
    try:
        geo = build(c, x, y, check_reversal=check_reversal)
    except SyslabError as exc:
        return type(exc).__name__, str(exc)
    ls = geo.layers
    return (geo.simplices, geo.provenance, ls.thickness_profile(), ls.sigma_geo, ls.tau_geo)


def _agree(c, x, y):
    """Both constructions of (x, y), with and without the reversal check;
    whether they refused it."""
    refused = None
    for check_reversal in (True, False):
        got = _outcome(euclid.euclidean_geodesic, c, x, y, check_reversal)
        assert got == _outcome(oracles.layered_euclidean_geodesic, c, x, y,
                               check_reversal), (x, y, check_reversal)
        refused = isinstance(got[0], str)
    return refused


def test_pass_agrees_with_layered_path():
    """Every difference of length 1 to 20 from two origins of a radius-26
    window, each with and without the reversal check."""
    c = eplane.window((0, 0), 26)
    pairs = 0
    for origin in ((0, 0), (2, -1)):
        for y in sorted(c.vertices()):
            if 1 <= eplane.lattice_distance(origin, y) <= 20:
                assert not _agree(c, origin, y)
                pairs += 1
    assert pairs == 2520


def test_pass_refuses_like_layered_path():
    """Seeded pairs of a radius-10 window whose interval box reaches within
    one step of the rim, and pairs with an end outside the window: the
    same exception and text on both paths."""
    c = eplane.window((2, -1), 10)
    verts = sorted(c.vertices())
    rng = random.Random(24)
    built = refused = 0
    for _ in range(400):
        x, y = rng.choice(verts), rng.choice(verts)
        if not 2 <= eplane.lattice_distance(x, y) <= 8:
            continue
        if max(eplane.lattice_distance((2, -1), v) for v in eplane.interval_corners(x, y)) < 9:
            continue
        if _agree(c, x, y):
            refused += 1
        else:
            built += 1
    assert built >= 15 and refused >= 15, (built, refused)
    for x, y in (((2, -1), (30, 0)), ((30, 0), (2, -1))):
        assert _agree(c, x, y)
    assert _agree(c, (0, 0), (0, 0)) is False


def _chain_corruptions(geo):
    """The directed geodesic with one interior simplex repeated, cut to one
    vertex, swapped with its successor, or shifted by a unit offset, and
    with its ends swapped."""
    sims = geo.simplices
    for i in range(1, len(sims) - 1):
        head, here, tail = sims[:i], sims[i], sims[i + 1:]
        yield head + (sims[i - 1],) + tail
        yield head + (Simplex(here.verts[:1]),) + tail
        yield head + (sims[i + 1], here) + sims[i + 2:]
        for da, db in eplane.OFFSETS:
            yield head + (Simplex.of((a + da, b + db) for a, b in here),) + tail
    yield (sims[-1],) + sims[1:-1] + (sims[0],)


def _refusal(fn, *args):
    try:
        fn(*args)
    except SyslabError as exc:
        return type(exc).__name__, str(exc)
    return None


def _check_chain(c, geo):
    """``directed._check_chain`` on the vertex tuples of geo's simplices."""
    directed._check_chain(c, [s.verts for s in geo.simplices], geo.source, geo.target)


def test_chain_certificate_reads_the_tuple_check():
    """``directed._check_chain`` on corrupted chains refuses exactly as the
    former neighbour-set certificate did, with its text. A chain that
    leaves the window is refused too, where the former certificate failed
    looking the vertex up; the margin rule keeps every chain a unit step
    inside the rim, so only a chain built by hand can leave."""
    c = eplane.window((0, 0), 9)
    fired = 0
    for x, y in (((0, 0), (4, 2)), ((-3, 1), (5, -2)), ((2, 2), (-6, 0))):
        geo = directed.directed_geodesic(c, x, y)
        assert _refusal(_check_chain, c, geo) is None
        for bad in _chain_corruptions(geo):
            bad_geo = DirectedGeodesic(x, y, bad)
            got = _refusal(_check_chain, c, bad_geo)
            assert got == _refusal(oracles.certify_chain, c, bad_geo), bad
            fired += got is not None
    assert fired > 50
    line = tuple(((a, 0),) for a in range(11))
    with pytest.raises(ConditionViolated,
                       match=r"^simplex <\(10, 0\)> leaves the window at \(10, 0\)$"):
        directed._check_chain(c, line, (0, 0), (10, 0))


def _layer_corruptions(ls, interval):
    """Each layer of the interval with its thickness off by one, with its
    sigma shifted by each unit offset inside the window, and with sigma and
    tau shifted together by one and two of each unit offset, which slides
    the layer along its line or off it."""
    c = ls.complex
    for i in range(interval.j, interval.k + 1):
        layer = ls[i]
        for dt in (-1, 1):
            yield i, layer._replace(thickness=layer.thickness + dt)
        for da, db in eplane.OFFSETS:
            moved = [(a + da, b + db) for a, b in layer.sigma]
            if all(v in c for v in moved):
                yield i, layer._replace(sigma=Simplex.of(moved))
            for m in (1, 2):
                sigma, tau = ([(a + m * da, b + m * db) for a, b in s]
                              for s in (layer.sigma, layer.tau))
                if all(v in c for v in sigma + tau):
                    yield i, layer._replace(sigma=Simplex.of(sigma), tau=Simplex.of(tau))


def _straight_segment(layer_seq, interval):
    """``cat0._straight_segment`` on the interval's recorded segments."""
    return [Simplex(s) for s in cat0._straight_segment(
        interval.j, oracles.recorded_segments(layer_seq, interval))]


def test_straight_diagonal_reads_the_segment_check():
    """``cat0._straight_segment`` on the recorded segments of thick pairs'
    layers, and of their corruptions, returns or refuses exactly as the
    former straight diagonal on those layers."""
    c = eplane.window((0, 0), 12)
    compared = refused = 0
    for x, y in (((0, 0), (6, 3)), ((-4, -1), (5, 2)), ((3, -5), (-4, 3))):
        ls = directed.layers(c, x, y)
        for interval in thick_intervals(ls):
            assert (_straight_segment(ls, interval)
                    == oracles.layered_straight_diagonal(c, ls, interval))
            for i, bad in _layer_corruptions(ls, interval):
                items = list(ls)
                items[i] = bad
                worse = Layers(c, x, y, items, ls.sigma_geo, ls.tau_geo, None)
                got = _refusal(_straight_segment, worse, interval)
                assert got == _refusal(oracles.layered_straight_diagonal, c, worse,
                                       interval), (x, y, i, bad)
                compared += 1
                refused += got is not None
    assert compared > 50 and refused > 50


def test_plane_construction_builds_no_layers_until_read():
    """A construction with its reversal check, its selection and a goodness
    call on an empty translation memo call neither ``directed.layers`` nor
    ``directed._thickness`` and build no ``Layers``; the first read of
    ``layers`` builds the decomposition ``directed.layers`` returns."""
    c = eplane.window((0, 0), 12)
    x, y = (-4, -1), (5, 2)
    init = Layers.__init__
    with mock.patch.object(directed, "layers", wraps=directed.layers) as via_directed, \
            mock.patch.object(euclid, "layers", wraps=euclid.layers) as via_euclid, \
            mock.patch.object(directed, "_thickness", wraps=directed._thickness) as thickness, \
            mock.patch.object(Layers, "__init__", autospec=True, side_effect=init) as built:
        geo = euclid.euclidean_geodesic(c, x, y)
        report = euclid.goodness_constant(c, euclid.select_vertex_geodesic(geo))
        # the ends are the caller's objects, the interior the window's own
        assert geo.simplices[0].verts[0] is x and geo.simplices[-1].verts[0] is y
        assert all(c.vertex(v) is v for s in geo.simplices[1:-1] for v in s)
        assert len(c.translation_memo) == 22 and report.pairs_examined == 78
        calls = (via_directed.call_count, via_euclid.call_count, thickness.call_count,
                 built.call_count)
        assert calls == (0, 0, 0, 0)
        ls = geo.layers
        assert via_euclid.call_count == 1 and built.call_count == 1
        assert geo.layers is ls
    want = directed.layers(c, x, y)
    assert (ls.x, ls.y, ls.levels) == (want.x, want.y, want.levels)
    assert tuple(ls) == tuple(want)
    assert (ls.sigma_geo, ls.tau_geo) == (want.sigma_geo, want.tau_geo)
    assert ls.thickness_profile() == want.thickness_profile()
    assert want.thickness_profile() == (0, 1, 1, 2, 2, 3, 3, 3, 2, 2, 1, 1, 0)


def test_plane_pass_keeps_its_refusal_texts(monkeypatch):
    """The pass refuses a thin layer that is not a lattice clique, and a
    simplex outside its layer, with the texts of ``euclid._assemble``; and
    a thin layer whose thickness does not match its span."""
    c = eplane.window((0, 0), 9)
    sig = eplane.directed_simplices((0, 0), (4, 2))
    tau = eplane.directed_simplices((4, 2), (0, 0))
    _, tags, profile = euclid._plane_pass(c, (0, 0), (4, 2), sig, tau)
    assert tags == ("endpoint", "thin", "thin", "disk", "thin", "thin", "endpoint")
    assert profile == (0, 1, 1, 2, 1, 1, 0)
    bad = sig[:1] + (((0, 1), (2, 0)),) + sig[2:]
    with pytest.raises(ConditionViolated, match=r"^thin layer 1 of \(\(0, 0\), \(4, 2\)\) "
                                                r"does not span a simplex$"):
        euclid._plane_pass(c, (0, 0), (4, 2), bad, tau)
    with pytest.raises(ConditionViolated, match=r"^delta_0 of \(\(0, 0\), \(4, 1\)\) leaves "
                                                r"its layer: <\(0, 0\)>$"):
        euclid._plane_pass(c, (0, 0), (4, 1), sig, tau)
    segments = directed._layer_segments
    monkeypatch.setattr(directed, "_layer_segments", lambda sigmas, taus: [
        (v, w, t + (i == 1)) for i, (v, w, t) in enumerate(segments(sigmas, taus))])
    with pytest.raises(ConditionViolated, match=r"^thin layer 1 of \(\(0, 0\), \(3, 0\)\) spans "
                                                r"<\(1, 0\)> at thickness 1$"):
        euclid.euclidean_geodesic(c, (0, 0), (3, 0))
