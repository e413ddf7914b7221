import random

import pytest

import oracles
from syslab import eplane, samples
from syslab.complexes import FlagComplex
from syslab.directed import (Layer, directed_geodesic, layers, map_geodesic,
                             require_pair_safe, thick_intervals)
from syslab.errors import (BoundaryUnsafe, ConstructionFailed, MalformedProfile,
                           PreconditionViolated)


def verts(geo):
    return [s.verts for s in geo]


def test_directed_geodesic_22(window42):
    assert verts(directed_geodesic(window42, (0, 0), (2, 2))) == [
        ((0, 0),), ((0, 1), (1, 0)), ((1, 1),), ((1, 2), (2, 1)), ((2, 2),)]


def test_directed_geodesic_collinear(window42):
    assert verts(directed_geodesic(window42, (0, 0), (3, 0))) == [
        ((0, 0),), ((1, 0),), ((2, 0),), ((3, 0),)]


def test_directed_geodesic_42(window42):
    assert verts(directed_geodesic(window42, (0, 0), (4, 2))) == [
        ((0, 0),), ((0, 1), (1, 0)), ((1, 1),), ((1, 2), (2, 1)), ((2, 2),),
        ((3, 2),), ((4, 2),)]


def test_uniqueness_oracle_sample(window42):
    rng = random.Random(9)
    for _ in range(12):
        x = (rng.randint(-2, 4), rng.randint(-2, 3))
        y = (rng.randint(-2, 4), rng.randint(-2, 3))
        if x == y or eplane.lattice_distance(x, y) > 5:
            continue
        found = oracles.enumerate_directed_geodesics(window42, x, y)
        assert len(found) == 1
        constructed = tuple(frozenset(s.verts)
                            for s in directed_geodesic(window42, x, y))
        assert found[0] == constructed


def test_construction_fails_on_octahedron():
    octa = samples.octahedron()
    # antipodal vertices: the projection is a non-clique 4-cycle
    with pytest.raises(ConstructionFailed):
        directed_geodesic(octa, 0, 1)


def test_margin_rule_blocks_boundary_pairs():
    c = eplane.window((0, 0), 4)
    with pytest.raises(BoundaryUnsafe):
        directed_geodesic(c, (-4, 0), (4, 0))


def test_any_selection_is_geodesic(window42):
    rng = random.Random(3)
    for _ in range(10):
        x = (rng.randint(-2, 4), rng.randint(-2, 3))
        y = (rng.randint(-2, 4), rng.randint(-2, 3))
        if eplane.lattice_distance(x, y) > 6:
            continue
        geo = directed_geodesic(window42, x, y)
        pick = [rng.choice(s.verts) for s in geo]
        assert oracles.is_geodesic(window42, pick)


def test_layers_42(window42):
    ls = layers(window42, (0, 0), (4, 2))
    assert ls.thickness_profile() == (0, 1, 1, 2, 1, 1, 0)
    assert [layer.thin for layer in ls] == [True, True, True, False, True, True, True]
    # sphere intersections contain the directed simplices
    for layer in ls:
        assert set(layer.sigma.verts) <= layer.vertices
        assert set(layer.tau.verts) <= layer.vertices


def test_layers_collinear_all_thin(window42):
    ls = layers(window42, (0, 0), (3, 0))
    assert all(layer.thickness == 0 for layer in ls)


def test_layers_diagonal_thin(window42):
    ls = layers(window42, (0, 0), (2, 2))
    assert all(layer.thin for layer in ls)


def test_layer_symmetry(window42):
    fwd = layers(window42, (0, 0), (4, 2))
    bwd = layers(window42, (4, 2), (0, 0))
    n = fwd.n
    for i in range(n + 1):
        assert fwd[i].vertices == bwd[n - i].vertices


def _assert_reversed_layers(c, x, y):
    back = layers(c, y, x)
    flipped = layers(c, x, y).reversed()
    assert (flipped.complex, flipped.x, flipped.y) == (c, y, x)
    assert list(flipped) == list(back), (x, y)
    assert flipped.sigma_geo == back.sigma_geo
    assert flipped.tau_geo == back.tau_geo


def test_reversed_layers_match_plane_pairs():
    c = eplane.window((0, 0), 6)
    safe = 0
    for x in sorted(c.vertices()):
        for y in sorted(c.vertices()):
            try:
                require_pair_safe(c, x, y)
            except BoundaryUnsafe:
                continue
            _assert_reversed_layers(c, x, y)
            safe += 1
    assert safe == 91 * 91


def test_reversed_layers_match_book_pairs():
    c = samples.book_window(4, 8)
    verts = sorted(c.vertices())
    rng = random.Random(17)
    checked = 0
    while checked < 80:
        x, y = rng.choice(verts), rng.choice(verts)
        try:
            require_pair_safe(c, x, y)
        except BoundaryUnsafe:
            continue
        _assert_reversed_layers(c, x, y)
        checked += 1


def _profile(thicknesses):
    return [Layer(i, frozenset(), None, None, t) for i, t in enumerate(thicknesses)]


def test_thick_intervals_from_profiles():
    assert thick_intervals(_profile([0, 1, 1, 2, 1, 1, 0])) == \
        [type(thick_intervals(_profile([0, 1, 2, 1, 0]))[0])(2, 4)]
    assert thick_intervals(_profile([0, 1, 1, 1, 0])) == []
    got = thick_intervals(_profile([0, 1, 2, 2, 1, 0]))
    assert [(iv.j, iv.k) for iv in got] == [(1, 4)]


def test_thick_intervals_42(window42):
    ls = layers(window42, (0, 0), (4, 2))
    assert [(iv.j, iv.k) for iv in thick_intervals(ls)] == [(2, 4)]


def test_malformed_profile():
    with pytest.raises(MalformedProfile):
        thick_intervals(_profile([0, 2, 1, 0]))


def test_equivariance(window42):
    big = eplane.window((0, 0), 14)
    g = eplane.glide(1, 1)
    rot = eplane.rotation60(2)
    for iso in (g, rot, eplane.translation(-2, 3)):
        geo = directed_geodesic(big, (0, 0), (4, 2))
        mapped = map_geodesic(iso, geo)
        direct = directed_geodesic(big, iso((0, 0)), iso((4, 2)))
        assert verts(mapped) == verts(direct)


def test_fellow_traveller_bound(window42):
    big = eplane.window((0, 0), 14)
    rng = random.Random(13)
    isos = [eplane.glide(1, 1), eplane.translation(1, 0), eplane.rotation60(1),
            eplane.translation(2, -1)]
    for _ in range(25):
        h = rng.choice(isos)
        x = (rng.randint(-4, 4), rng.randint(-4, 4))
        y = (rng.randint(-4, 4), rng.randint(-4, 4))
        if x == y:
            continue
        bound = 3 * max(eplane.lattice_distance(x, h(x)),
                        eplane.lattice_distance(y, h(y))) + 1
        for simplex in directed_geodesic(big, x, y):
            for s in simplex:
                assert eplane.lattice_distance(s, h(s)) <= bound


def _safety(check, c, x, y):
    try:
        return check(c, x, y)
    except BoundaryUnsafe as exc:
        return str(exc)


def test_margin_corner_rule_matches_scan_oracle():
    """The four-corner margin check against the former scan of every level:
    the same distance, or the same BoundaryUnsafe text, which names the
    first failing corner. On a radius-14 window every pair within distance
    12 is taken once per unordered pair (the corners are those of the
    interval box, which is symmetric in its ends); on windows of radius 1,
    2, 3, 5 and 8 around three centres every ordered pair is taken, so the
    named corner is checked from both ends."""
    def agree(c, x, y):
        got = _safety(require_pair_safe, c, x, y)
        assert got == _safety(oracles.scan_require_pair_safe, c, x, y), (c.name, x, y)
        return got

    c = eplane.window((0, 0), 14)
    verts = sorted(c.vertices())
    pairs = refused = near_rim = 0
    for a, x in enumerate(verts):
        for y in verts[a:]:
            if eplane.lattice_distance(x, y) > 12:
                continue
            got = agree(c, x, y)
            pairs += 1
            if isinstance(got, str):
                refused += 1
            elif min(c.margin(v) for v in eplane.interval_corners(x, y)) == 1:
                near_rim += 1
    assert pairs == 94738 and refused > 10000 and near_rim > 10000

    pairs = refused = 0
    for center in ((0, 0), (3, -2), (-5, 7)):
        for radius in (1, 2, 3, 5, 8):
            c = eplane.window(center, radius)
            verts = sorted(c.vertices())
            for x in verts:
                for y in verts:
                    refused += isinstance(agree(c, x, y), str)
                    pairs += 1
    assert pairs == 171447 and refused == 73368


def test_ball_alone_makes_a_plane_window():
    """``plane_ball`` is the whole plane input: a complex given the window's
    graph and ball answers the margin rule like the window, with the
    lattice distance and the ball's margins; margins given beside the ball,
    and a graph whose vertex set is not that ball, are refused."""
    w = eplane.window((3, -2), 6)
    adjacency = {v: w.neighbors(v) for v in w.vertices()}
    c = FlagComplex(adjacency, convex_window=True, plane_ball=((3, -2), 6))
    assert all(c.margin(v) == w.margin(v) == 6 - eplane.lattice_distance((3, -2), v)
               for v in w.vertices())
    assert c.plane_backed and c.metric_hint is eplane.lattice_distance
    verts = sorted(c.vertices())
    for x in verts[::5]:
        for y in verts[::3]:
            got = _safety(require_pair_safe, c, x, y)
            assert got == _safety(require_pair_safe, w, x, y)
            assert got == _safety(oracles.scan_require_pair_safe, c, x, y)
            if not isinstance(got, str):
                assert got == eplane.lattice_distance(x, y)
    margin = {v: w.margin(v) for v in w.vertices()}
    with pytest.raises(PreconditionViolated, match="margins from plane_ball"):
        FlagComplex(adjacency, margin=margin, plane_ball=((3, -2), 6))
    hole = (5, -3)
    holed = {v: [u for u in nbrs if u != hole] for v, nbrs in adjacency.items() if v != hole}
    with pytest.raises(PreconditionViolated, match="not the plane ball"):
        FlagComplex(holed, convex_window=True, plane_ball=((3, -2), 6))
    # the ball one step over has as many vertices and still holds (3, -2)
    shifted = eplane.window((4, -2), 6)
    assert (3, -2) in shifted and len(shifted) == len(w)
    with pytest.raises(PreconditionViolated, match="not the plane ball"):
        FlagComplex({v: shifted.neighbors(v) for v in shifted.vertices()},
                    convex_window=True, plane_ball=((3, -2), 6))
