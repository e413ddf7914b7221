import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from syslab import cat0, eplane
from syslab.errors import ScenarioParseError
from syslab.exact import ExactScalar, PlanePoint

coords = st.integers(min_value=-20, max_value=20)


def test_lattice_distance_examples():
    assert eplane.lattice_distance((0, 0), (3, 2)) == 5
    assert eplane.lattice_distance((0, 0), (2, -1)) == 2
    assert eplane.lattice_distance((5, -3), (5, -3)) == 0


def test_lattice_distance_agrees_with_bfs():
    # BFS in a ball window is the true metric (balls are convex), so every
    # window pair is a valid comparison
    c = eplane.window((0, 0), 12)
    rng = random.Random(42)
    sources = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(42)]
    checked = 0
    for src in sources:
        dmap = oracles.bfs_map(c, src)
        for tgt in rng.sample(sorted(dmap), 250):
            assert eplane.lattice_distance(src, tgt) == dmap[tgt]
            checked += 1
    assert checked >= 10000


def test_ball_margins_are_radius_minus_distance():
    square = [(a, b) for a in range(-9, 10) for b in range(-9, 10)]
    for center in ((0, 0), (3, -2), (-5, 7)):
        margins = eplane.ball_margins(center, 4, square)
        assert margins == {v: 4 - eplane.lattice_distance(center, v) for v in square}


@given(coords, coords, coords, coords, coords, coords)
@settings(max_examples=120, deadline=None)
def test_triangle_inequality(ax, ay, bx, by, cx, cy):
    a, b, c = (ax, ay), (bx, by), (cx, cy)
    assert eplane.lattice_distance(a, c) <= (
        eplane.lattice_distance(a, b) + eplane.lattice_distance(b, c))
    assert eplane.lattice_distance(a, b) == eplane.lattice_distance(b, a)


def _exact(v):
    return oracles.exact_point(eplane.embed(v))


def test_embed_basis():
    assert eplane.embed((0, 0)) == PlanePoint(0, 0)
    assert eplane.embed((1, 0)) == PlanePoint(2, 0)
    assert eplane.embed((0, 1)) == PlanePoint(0, 2)
    # the Q[sqrt(3)] positions: (a + b/2, b*sqrt(3)/2)
    assert _exact((0, 0)) == oracles.ExactPoint(ExactScalar(0), ExactScalar(0))
    assert _exact((1, 0)) == oracles.ExactPoint(ExactScalar(1), ExactScalar(0))
    assert _exact((0, 1)) == oracles.ExactPoint(ExactScalar(1, 0, 2), ExactScalar(0, 1, 2))


def test_embed_unit_edges():
    for off in eplane.OFFSETS:
        assert oracles.dist_sq(_exact((0, 0)), _exact(off)) == ExactScalar(1)
        assert cat0.PolyPath((eplane.embed((0, 0)), eplane.embed(off))).length() == 1.0


@given(coords, coords, coords, coords)
@settings(max_examples=100, deadline=None)
def test_euclidean_vs_lattice_length(ax, ay, bx, by):
    u, v = (ax, ay), (bx, by)
    d = eplane.lattice_distance(u, v)
    sq = oracles.dist_sq(_exact(u), _exact(v))
    # the doubled-axial norm that PolyPath.length reads
    dp, dq = 2 * (bx - ax), 2 * (by - ay)
    assert sq == ExactScalar(Fraction(dp * dp + dp * dq + dq * dq, 4))
    # d*sqrt(3)/2 <= |embed difference| <= d, compared on squares
    assert (sq - ExactScalar(d * d)).sign() <= 0
    assert (sq * 4 - ExactScalar(3 * d * d)).sign() >= 0


def test_window_counts():
    w0 = eplane.window((0, 0), 0)
    assert len(w0) == 1 and sum(len(w0.neighbors(v)) for v in w0.vertices()) == 0
    w1 = eplane.window((0, 0), 1)
    assert len(w1) == 7
    assert sum(len(w1.neighbors(v)) for v in w1.vertices()) // 2 == 12
    w2 = eplane.window((0, 0), 2)
    assert len(w2) == 19
    assert sum(len(w2.neighbors(v)) for v in w2.vertices()) // 2 == 42


def test_window_margins():
    w = eplane.window((0, 0), 3)
    assert w.margin((0, 0)) == 3
    assert w.margin((2, 0)) == 1
    assert w.margin((3, 0)) == 0
    assert not w.is_complete and w.convex_window


def test_isometry_examples():
    t = eplane.translation(1, 0)
    assert t.apply((2, 3)) == (3, 3)
    g = eplane.glide(1, 1)
    assert g.apply((0, 0)) == (1, 1)
    gg = g.compose(g)
    assert gg.is_translation and gg.shift == (2, 2)
    for v in [(0, 0), (3, -2), (-1, 4)]:
        assert gg.apply(v) == (v[0] + 2, v[1] + 2)


def test_isometry_group_structure():
    rng = random.Random(7)
    isos = [eplane.translation(2, -1), eplane.glide(0, 3), eplane.rotation60(1),
            eplane.rotation60(2, (1, 1)), eplane.glide(1, 1).compose(eplane.rotation60(3))]
    for iso in isos:
        inv = iso.inverse()
        assert inv.compose(iso).is_identity
        for _ in range(200):
            u = (rng.randint(-15, 15), rng.randint(-15, 15))
            v = (rng.randint(-15, 15), rng.randint(-15, 15))
            assert eplane.lattice_distance(iso(u), iso(v)) == eplane.lattice_distance(u, v)
        # neighbor images of a vertex are neighbors of the image
        for off in eplane.OFFSETS:
            assert iso((3 + off[0], -2 + off[1])) in eplane.neighbors(iso((3, -2)))


def test_rotation60_powers():
    r = eplane.rotation60(1)
    assert r.power(6).is_identity
    assert eplane.rotation60(3).apply((2, 1)) == (-2, -1)
    about = eplane.rotation60(2, (1, 1))
    assert about.apply((1, 1)) == (1, 1)


def test_parse_isometry():
    assert eplane.parse_isometry("translate(2,-3)") == eplane.translation(2, -3)
    assert eplane.parse_isometry("glide(1, 1)") == eplane.glide(1, 1)
    assert eplane.parse_isometry("rot60^2 @ (1,1)") == eplane.rotation60(2, (1, 1))
    assert eplane.parse_isometry("rot60^5") == eplane.rotation60(5)
    with pytest.raises(ScenarioParseError):
        eplane.parse_isometry("spin(1)")
    with pytest.raises(ScenarioParseError):
        eplane.parse_isometry("translate(a,b)")


def test_interval_box_matches_scan():
    c = eplane.window((0, 0), 9)
    rng = random.Random(5)
    for _ in range(30):
        x = (rng.randint(-3, 3), rng.randint(-3, 3))
        y = (rng.randint(-3, 3), rng.randint(-3, 3))
        box = set(oracles.interval_box(x, y))
        assert box == oracles.interval_scan(c, x, y)
