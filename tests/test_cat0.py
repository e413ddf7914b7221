import math
import random
from fractions import Fraction

import pytest

import oracles
from syslab import eplane
from syslab.cat0 import (ModifiedDisk, PolyPath, _all_collinear, euclidean_diagonal,
                         modified_disk, nearest_simplex_on_segment, shortest_path)
from syslab.chardisk import CharDisk, boundary_cycle, extract_flat_disk
from syslab.directed import ThickInterval, layers, thick_intervals
from syslab.errors import DegenerateDomain, NoCrossing
from syslab.exact import ExactScalar, PlanePoint


def ES(p, q=0):
    return ExactScalar(Fraction(p)) + ExactScalar(0, 1) * ExactScalar(Fraction(q))


S = Fraction(1, 4)  # shorthand: y coordinates come in multiples of sqrt(3)/4


def pt(x, y_quarters):
    """The point (x, y_quarters * sqrt(3)/4) in doubled axial coordinates,
    checked against the Q[sqrt(3)] oracle point."""
    p = 2 * Fraction(x) - Fraction(y_quarters, 2)
    assert p.denominator == 1, "not a half-integer axial point"
    point = PlanePoint(int(p), y_quarters)
    assert oracles.exact_point(point) == oracles.ExactPoint(ES(x), ES(0, y_quarters * S))
    return point


@pytest.fixture(scope="module")
def hexagon_disk():
    c = eplane.window((2, 1), 12)
    ls = layers(c, (0, 0), (4, 2))
    interval = thick_intervals(ls)[0]
    return c, extract_flat_disk(c, boundary_cycle(c, interval, ls))


@pytest.fixture(scope="module")
def strip_disk():
    c = eplane.window((3, 1), 14)
    ls = layers(c, (0, 0), (6, 2))
    intervals = thick_intervals(ls)
    assert [(iv.j, iv.k) for iv in intervals] == [(2, 6)]
    return c, extract_flat_disk(c, boundary_cycle(c, intervals[0], ls))


def test_modified_disk_hexagon(hexagon_disk):
    _, disk = hexagon_disk
    m = modified_disk(disk)
    assert m.start == pt(Fraction(7, 4), 1)          # midpoint of (1,1)-(2,0)
    assert m.goal == pt(Fraction(13, 4), 3)          # midpoint of (2,2)-(3,1)
    assert m.v_prime[1] == pt(Fraction(9, 4), 3)     # quarter of (1,2)-(3,0)
    assert m.w_prime[1] == pt(Fraction(11, 4), 1)
    assert len(m.polygon) == 4 and not m.degenerate


def test_modified_disk_strip(strip_disk):
    _, disk = strip_disk
    m = modified_disk(disk)
    assert m.start == pt(Fraction(7, 4), 1)
    assert m.goal == pt(Fraction(21, 4), 3)
    assert m.v_prime[1] == pt(Fraction(9, 4), 3)
    assert m.v_prime[2] == pt(Fraction(13, 4), 3)
    assert m.w_prime[2] == pt(Fraction(15, 4), 1)
    assert len(m.polygon) == 8


def test_modified_disk_translated(hexagon_disk):
    c = eplane.window((7, 6), 12)
    ls = layers(c, (5, 5), (9, 7))
    disk = extract_flat_disk(c, boundary_cycle(c, thick_intervals(ls)[0], ls))
    m = modified_disk(disk)
    shift = eplane.embed((5, 5)) - eplane.embed((0, 0))
    base = modified_disk(hexagon_disk[1])
    assert m.start == base.start + shift
    assert m.goal == base.goal + shift


def test_shortest_path_convex_is_straight(hexagon_disk):
    _, disk = hexagon_disk
    m = modified_disk(disk)
    path = shortest_path(m)
    assert len(path) == 2
    # the segment passes exactly through the disk center embed(2,1)
    assert oracles.on_segment(*(oracles.exact_point(p) for p in
                                (eplane.embed((2, 1)),) + path.points))
    assert path.length() == pytest.approx(math.sqrt(3.0), abs=1e-12)


def _portal_strip(v_prime, w_prime):
    """A modified disk built directly from its portal endpoints, layers 0..k."""
    polygon = tuple(v_prime) + tuple(reversed(w_prime[1:-1]))
    return ModifiedDisk(ThickInterval(0, len(v_prime) - 1), polygon,
                        v_prime[0], v_prime[-1], tuple(v_prime), tuple(w_prime),
                        _all_collinear(polygon))


def test_shortest_path_bends_at_reflex_vertex():
    """The path bends at the portal end (2, 2) and passes the collinear portal
    end (1, 1) without making it a vertex. The points are doubled axial
    coordinates; the embedding is linear with positive determinant, so it
    keeps every turn and collinearity of the strip."""
    P = PlanePoint
    m = _portal_strip((P(0, 0), P(1, 1), P(2, 2), P(0, 3)),
                      (P(0, 0), P(2, 1), P(3, 2), P(0, 3)))
    path = shortest_path(m)
    assert path.points == (m.start, P(2, 2), m.goal)
    assert path.crossings == (0, 1)
    oracle = oracles.grid_dijkstra_path_length(m.polygon, m.start, m.goal, pitch=0.02)
    assert abs(path.length() - oracle) / oracle <= 1e-6


def _random_portal_strip(rng):
    """Portals on parallel lattice lines with half-integer ends; the small
    coordinates make collinear portal ends common."""
    along, across = rng.sample(list(eplane.OFFSETS[::2]), 2)

    def at(layer, x):
        # layer * across + (x/2) * along, in doubled axial coordinates
        return PlanePoint(2 * layer * across[0] + x * along[0],
                          2 * layer * across[1] + x * along[1])

    k = rng.randint(2, 5)
    ends = [(rng.randint(-4, 4),) * 2]
    for _ in range(1, k):
        lo = rng.randint(-6, 5)
        ends.append((lo, rng.randint(lo + 1, 6)))
    ends.append((rng.randint(-4, 4),) * 2)
    v_prime = [at(i, a) for i, (a, _) in enumerate(ends)]
    w_prime = [at(i, b) for i, (_, b) in enumerate(ends)]
    if rng.random() < 0.5:
        v_prime, w_prime = w_prime, v_prime
    return _portal_strip(v_prime, w_prime)


def test_shortest_path_matches_visibility_oracle_on_random_strips():
    rng = random.Random(2)
    bending = 0
    while bending < 200:
        m = _random_portal_strip(rng)
        if m.degenerate:
            continue
        expected = oracles.visibility_shortest_path(m)
        alpha = shortest_path(m)
        assert alpha.points == expected.points, m
        assert len(alpha.crossings) == len(m.v_prime) - 2
        assert oracles.portal_crossing_mismatches(m, alpha) == [], m
        bending += len(expected) > 2


def test_shortest_path_matches_visibility_oracle_on_plane_disks():
    c = eplane.window((0, 0), 20)
    disks = 0
    for y in sorted(c.vertices()):
        if not 1 <= eplane.lattice_distance((0, 0), y) <= 12:
            continue
        ls = layers(c, (0, 0), y)
        for interval in thick_intervals(ls):
            disk = extract_flat_disk(c, boundary_cycle(c, interval, ls))
            m = modified_disk(disk)
            alpha = shortest_path(m)
            assert alpha.points == oracles.visibility_shortest_path(m).points, (y, interval)
            assert oracles.crossing_mismatches(disk, alpha) == [], (y, interval)
            disks += 1
    assert disks == 264


def test_shortest_path_degenerate_domain():
    P = PlanePoint
    seg = ModifiedDisk(ThickInterval(0, 2),
                       (P(0, 0), P(1, 0), P(2, 0)), P(0, 0), P(2, 0),
                       (), (), True)
    path = shortest_path(seg)
    assert path.points == (P(0, 0), P(2, 0))
    assert path.crossings == (0,)
    overhang = ModifiedDisk(ThickInterval(0, 2),
                            (P(0, 0), P(1, 0), P(3, 0)), P(0, 0), P(2, 0),
                            (), (), True)
    with pytest.raises(DegenerateDomain):
        shortest_path(overhang)


def test_diagonal_hexagon(hexagon_disk):
    _, disk = hexagon_disk
    m = modified_disk(disk)
    diag = euclidean_diagonal(disk, shortest_path(m))
    assert list(diag) == [((2, 1),)]


def test_diagonal_strip(strip_disk):
    _, disk = strip_disk
    m = modified_disk(disk)
    alpha = shortest_path(m)
    diag = euclidean_diagonal(disk, alpha)
    assert list(diag) == [((2, 1),), ((3, 1),), ((4, 1),)]


def test_diagonal_no_crossing(hexagon_disk):
    _, disk = hexagon_disk
    # along the start layer to its end (2, 0): never reaches the inner layer
    stub = PolyPath((pt(Fraction(7, 4), 1), pt(2, 0)), (0,))
    with pytest.raises(NoCrossing):
        euclidean_diagonal(disk, stub)
    # a path that records no crossings
    m = modified_disk(disk)
    with pytest.raises(NoCrossing):
        euclidean_diagonal(disk, PolyPath((m.start, m.goal)))


def _diamond_disk():
    """Hand-built flat disk with layer thickness up to 4 (profile 1,2,3,4,3,2,1),
    mapped by identity."""
    v_labels = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4))
    w_labels = ((1, 0), (2, 0), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3))
    return CharDisk(ThickInterval(0, 6), v_labels, w_labels, lambda v: v)


def test_diagonal_barycenter_hit_yields_edge():
    """A crossing exactly on an edge barycenter returns the edge itself."""
    disk = _diamond_disk()
    alpha = PolyPath((pt(Fraction(3, 4), 1),
                      pt(Fraction(13, 4), 3),     # exactly arc 5/2 on layer 3
                      pt(Fraction(21, 4), 7)),
                     (0, 0, 1, 1, 1))             # segments crossing layers 1..5
    diag = euclidean_diagonal(disk, alpha)
    assert list(diag) == [
        ((1, 1),), ((2, 1),), ((2, 2), (3, 1)), ((3, 2),), ((3, 3),)]


def test_diagonal_symmetric_diamond():
    """The straight symmetric path meets even layers at vertices and the
    centers of odd-thickness layers exactly on their middle-edge barycenters."""
    disk = _diamond_disk()
    mid = modified_disk(disk)
    diag = euclidean_diagonal(disk, shortest_path(mid))
    assert list(diag) == [
        ((1, 1),), ((1, 2), (2, 1)), ((2, 2),), ((2, 3), (3, 2)), ((3, 3),)]


def test_nearest_decision_rule():
    """The rule reads u = num / den; the ratio need not be in lowest terms."""
    assert nearest_simplex_on_segment(3, 10, 2) == (0,)
    assert nearest_simplex_on_segment(3, 2, 2) == (1, 2)
    assert nearest_simplex_on_segment(9, 6, 2) == (1, 2)
    assert nearest_simplex_on_segment(1, 2, 2) == (0, 1)
    assert nearest_simplex_on_segment(5, 4, 2) == (1,)
    assert nearest_simplex_on_segment(2, 1, 2) == (2,)
    assert nearest_simplex_on_segment(8, 4, 2) == (2,)
    assert nearest_simplex_on_segment(17, 10, 2) == (2,)
    assert nearest_simplex_on_segment(-1, 10, 2) == (0,)
    assert nearest_simplex_on_segment(23, 10, 2) == (2,)


def test_decisions_stable_under_float_reevaluation(strip_disk):
    """Exact crossing decisions agree with an extended-precision recomputation."""
    import numpy as np
    _, disk = strip_disk
    m = modified_disk(disk)
    alpha = shortest_path(m)
    assert len(alpha.points) == 2
    j, k = disk.interval.j, disk.interval.k
    long = np.longdouble
    ax, ay = (long(c) for c in alpha.points[0].to_floats())
    bx, by = (long(c) for c in alpha.points[-1].to_floats())
    diag = euclidean_diagonal(disk, alpha)
    for i in range(j + 1, k):
        v, w = disk.layer_segment(i)
        vx, vy = (long(c) for c in eplane.embed(v).to_floats())
        wx, wy = (long(c) for c in eplane.embed(w).to_floats())
        det = (bx - ax) * (wy - vy) - (by - ay) * (wx - vx)
        t = ((vx - ax) * (wy - vy) - (vy - ay) * (wx - vx)) / det
        px, py = ax + t * (bx - ax), ay + t * (by - ay)
        arc = np.hypot(px - vx, py - vy)
        seg_len = eplane.lattice_distance(v, w)
        # no edge-barycenter ambiguity on this instance: the arc is far from
        # every half-integer, so rounding reproduces the exact decision
        assert abs(arc - np.floor(arc) - 0.5) > 1e-6
        float_vertex = int(np.rint(arc))
        exact = diag[i - j - 1]
        assert exact == ((v[0] + (w[0] - v[0]) // seg_len * float_vertex,
                          v[1] + (w[1] - v[1]) // seg_len * float_vertex),)


def test_path_length_beats_random_polylines(hexagon_disk):
    import random
    _, disk = hexagon_disk
    m = modified_disk(disk)
    best = shortest_path(m).length()
    rng = random.Random(0)
    for _ in range(25):
        # random detour through a point of the domain boundary
        corner = m.polygon[rng.randrange(len(m.polygon))]
        detour = PolyPath((m.start, corner, m.goal)).length()
        assert best <= detour + 1e-9
