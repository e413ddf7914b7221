"""Acceptance suite: every quantitative guarantee at desk scale.

Each criterion runs at its stated tolerance and prints one pass/fail line;
wall-clock caps are asserted, not just reported.
"""

import math
import random
import time
from fractions import Fraction

import oracles
from syslab import cat0, chardisk, eplane, samples
from syslab.complexes import is_convex
from syslab.directed import (directed_geodesic, layers, require_pair_safe,
                             thick_intervals)
from syslab.errors import BoundaryUnsafe
from syslab.euclid import (GoodnessConstants, euclidean_geodesic,
                           goodness_constant, select_vertex_geodesic,
                           verify_contracting)
from syslab.isodyn import (axis_line_max_distance_sq, check_min_proximity,
                           invariant_geodesic_on_plane, translation_length)
from syslab.treestudy import plane_control, tree_extendability


def _report(name, ok, elapsed, cap, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s <= {cap}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed <= cap, f"{name} exceeded its {cap}s budget ({elapsed:.1f}s)"


def _safe_pairs(c, center, max_d, limit=None):
    verts = sorted(c.vertices())
    out = []
    for i, x in enumerate(verts):
        for y in verts[i + 1:]:
            d = eplane.lattice_distance(x, y)
            if 1 <= d <= max_d:
                try:
                    require_pair_safe(c, x, y)
                except BoundaryUnsafe:
                    continue
                out.append((x, y))
                if limit and len(out) >= limit:
                    return out
    return out


def test_criterion_01_directed_uniqueness():
    """Brute-force enumeration finds exactly the constructed sequence."""
    t0 = time.time()
    c = eplane.window((0, 0), 8)
    checked = 0
    for x, y in _safe_pairs(c, (0, 0), 6):
        for a, b in ((x, y), (y, x)):
            found = oracles.enumerate_directed_geodesics(c, a, b, limit=3)
            constructed = tuple(frozenset(s.verts)
                                for s in directed_geodesic(c, a, b))
            assert found == [constructed], (a, b)
            checked += 1
    for disk in samples.flat_disk_samples():
        verts = sorted(disk.vertices())
        for i, x in enumerate(verts):
            for y in verts[i + 1:]:
                if disk.true_distance(x, y) > 6:
                    continue
                for a, b in ((x, y), (y, x)):
                    found = oracles.enumerate_directed_geodesics(disk, a, b, limit=3)
                    constructed = tuple(frozenset(s.verts)
                                        for s in directed_geodesic(disk, a, b))
                    assert found == [constructed], (disk.name, a, b)
                    checked += 1
    _report("criterion-1 directed uniqueness", checked > 10000,
            time.time() - t0, 60, f"{checked} pairs, 100% agreement")


def test_criterion_02_ball_convexity():
    """All balls of radius <= 4 around sample vertices are convex, by the
    local criterion and by the dense all-pairs oracle."""
    t0 = time.time()
    balls = 0
    for c in (eplane.window((0, 0), 8),) + samples.flat_disk_samples() + (
            samples.book_window(3, 5), samples.tree_with_branches(6)):
        for v in sorted(c.vertices()):
            for r in range(1, 5):
                if not c.is_complete and c.margin(v) < r:
                    continue
                ball = list(c.bfs_distances(v, budget=r))
                assert is_convex(c, ball), (c.name, v, r)
                assert oracles.dense_is_convex(c, ball, 2 * r), (c.name, v, r)
                balls += 1
    _report("criterion-2 ball convexity", balls > 700, time.time() - t0, 30,
            f"{balls} balls convex")


def test_criterion_03_euclidean_structure():
    """delta_i stays in its layer; reversal symmetry; the worked instance.

    Sweeps one representative pair per difference vector with d <= 12
    (every other pair is its translate, and translation equivariance is
    verified on a sample alongside).
    """
    t0 = time.time()
    c = eplane.window((0, 0), 16)
    count = 0
    for p in range(0, 13):
        for q in range(-12, 13):
            if p == 0 and q <= 0:
                continue
            d = eplane.lattice_distance((0, 0), (p, q))
            if not 1 <= d <= 12:
                continue
            x = (-(p // 2), -(q // 2))
            y = (x[0] + p, x[1] + q)
            e = euclidean_geodesic(c, x, y, check_reversal=True)  # reversal inside
            ls = layers(c, x, y)
            for i, s in enumerate(e):
                assert set(s.verts) <= ls[i].vertices, (x, y, i)
            count += 1
    # translation equivariance backing the representative-pair reduction
    rng = random.Random(99)
    for _ in range(25):
        t = eplane.translation(rng.randint(-3, 3), rng.randint(-3, 3))
        base = euclidean_geodesic(c, (0, 0), (4, 2), check_reversal=False)
        moved = euclidean_geodesic(c, t((0, 0)), t((4, 2)), check_reversal=False)
        assert [sorted(t(v) for v in s.verts) for s in base] == \
            [sorted(s.verts) for s in moved]
    # the hand-derived worked instance
    e42 = euclidean_geodesic(c, (0, 0), (4, 2))
    assert [s.verts for s in e42] == [
        ((0, 0),), ((0, 1), (1, 0)), ((1, 1), (2, 0)), ((2, 1),),
        ((2, 2), (3, 1)), ((3, 2), (4, 1)), ((4, 2),)]
    # 234 classes x the reversal check inside each build = all 468 nonzero
    # difference vectors with d <= 12
    _report("criterion-3 euclidean structure", count >= 234, time.time() - t0,
            120, f"{count} difference classes (both orders) + 25 equivariance checks")


def test_criterion_04_goodness_floor():
    """Selected vertex geodesics stay within the guaranteed constant."""
    t0 = time.time()
    c = eplane.window((0, 0), 18)
    rng = random.Random(4)
    worst = 0
    done = 0
    while done < 200:
        x = (rng.randint(-8, 8), rng.randint(-8, 8))
        y = (rng.randint(-8, 8), rng.randint(-8, 8))
        d = eplane.lattice_distance(x, y)
        if not 1 <= d <= 16:
            continue
        try:
            require_pair_safe(c, x, y)
        except BoundaryUnsafe:
            continue
        g = select_vertex_geodesic(euclidean_geodesic(c, x, y,
                                                      check_reversal=False))
        c_star = goodness_constant(c, g).c_star
        worst = max(worst, c_star)
        done += 1
    ok = worst <= 200 and worst <= 3
    _report("criterion-4 goodness floor", ok, time.time() - t0, 300,
            f"200 pairs, empirical max C* = {worst} (bound 200, expected <= 3)")


def test_criterion_05_contracting_suite():
    """Ratio inequality with D = 600 and its doubling form."""
    t0 = time.time()
    c = eplane.window((0, 0), 18)
    constants = GoodnessConstants()
    cs = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    rng = random.Random(5)
    rays = []
    while len(rays) < 45:
        y = (rng.randint(-16, 16), rng.randint(-16, 16))
        d = eplane.lattice_distance((0, 0), y)
        if not 4 <= d <= 16:
            continue
        try:
            require_pair_safe(c, (0, 0), y)
        except BoundaryUnsafe:
            continue
        rays.append(select_vertex_geodesic(
            euclidean_geodesic(c, (0, 0), y, check_reversal=False)))
    violations = 0
    max_slack = Fraction(-10 ** 9)
    for _ in range(500):
        g1 = rays[rng.randrange(len(rays))]
        g2 = rays[rng.randrange(len(rays))]
        rep = verify_contracting(c, g1, g2, cs, constants=constants)
        violations += len(rep.violations)
        max_slack = max(max_slack, rep.max_slack)
    doubling = 0
    while doubling < 100:
        g1 = rays[rng.randrange(len(rays))]
        shift = (rng.randint(-2, 2), rng.randint(-2, 2))
        g2 = tuple((v[0] + shift[0], v[1] + shift[1]) for v in g1)
        if any(v not in c for v in g2):
            continue
        sep = max(1, eplane.lattice_distance((0, 0), shift))
        rep = verify_contracting(c, g1, g2, cs, constants=constants,
                                 doubling_bound=sep)
        violations += len(rep.violations)
        doubling += 1
    _report("criterion-5 contracting suite", violations == 0,
            time.time() - t0, 120,
            f"500 ratio + {doubling} doubling pairs, max slack {max_slack}")


def test_criterion_06_min_displacement_bound():
    """Euclidean geodesics between Min(glide) pairs stay in disp_24."""
    t0 = time.time()
    c = eplane.window((0, 0), 18)
    glide = eplane.glide(1, 1)
    assert translation_length(glide) == 2
    rng = random.Random(6)
    pairs = []
    while len(pairs) < 50:
        a = rng.randint(-8, 8)
        x = (a, a - rng.choice((-1, 0, 1)))
        b = rng.randint(-8, 8)
        y = (b, b - rng.choice((-1, 0, 1)))
        d = eplane.lattice_distance(x, y)
        if not 1 <= d <= 30:
            continue
        try:
            require_pair_safe(c, x, y)
        except BoundaryUnsafe:
            continue
        pairs.append((x, y))
    report = check_min_proximity(c, glide, pairs)
    _report("criterion-6 min displacement bound",
            report.ok and report.bound == 24, time.time() - t0, 120,
            f"50 pairs, empirical max displacement {report.empirical_max} <= 24")


def test_criterion_07_staircase_goodness():
    """The invariant staircase: exact Hausdorff 1/2, goodness within bound."""
    t0 = time.time()
    h = eplane.translation(1, 1)
    stair = invariant_geodesic_on_plane(h, (0, 0), 24)
    # exact: max squared CAT(0) distance of a vertex to the axis equals 1/4
    assert axis_line_max_distance_sq(stair, h, (0, 0)) == Fraction(1, 4)
    c = eplane.window((6, 6), 18)
    c_star = goodness_constant(c, stair).c_star
    bound = 4 * 0.5 / math.sqrt(3.0) + 1
    ok = c_star <= bound + 1e-9
    _report("criterion-7 staircase goodness", ok, time.time() - t0, 60,
            f"length-24 staircase, C* = {c_star} <= {bound:.10f}")


def test_criterion_08_flat_into_ambient_goodness():
    """Flat-measured goodness degrades by at most 10 inside larger samples."""
    t0 = time.time()
    plane = eplane.window((0, 0), 12)
    checked = 0
    for pages in (3, 4, 5):
        book = samples.book_window(pages, 12)
        bf = samples.book_flat_embedding
        geodesics = [
            invariant_geodesic_on_plane(eplane.translation(1, 1), (-4, -4), 10),
            tuple((i, 0) for i in range(-5, 6)),
            select_vertex_geodesic(euclidean_geodesic(
                plane, (-3, 1), (5, -2), check_reversal=False)),
        ]
        for g in geodesics:
            flat_c = goodness_constant(plane, g).c_star
            ambient = tuple(bf(v) for v in g)
            ambient_c = goodness_constant(book, ambient).c_star
            assert ambient_c <= flat_c + 10, (pages, g[0], g[-1])
            checked += 1
    _report("criterion-8 flat-to-ambient goodness", checked == 9,
            time.time() - t0, 120, f"{checked} geodesics across 3 books")


def test_criterion_09_fellow_traveller():
    """Directed geodesics move at most 3*max displacement + 1 under h."""
    t0 = time.time()
    c = eplane.window((0, 0), 14)
    rng = random.Random(9)
    isos = [eplane.translation(1, 0), eplane.translation(2, -1),
            eplane.glide(1, 1), eplane.rotation60(1), eplane.rotation60(3),
            eplane.glide(0, 2)]
    done = 0
    while done < 200:
        h = isos[rng.randrange(len(isos))]
        x = (rng.randint(-6, 6), rng.randint(-6, 6))
        y = (rng.randint(-6, 6), rng.randint(-6, 6))
        if x == y:
            continue
        try:
            require_pair_safe(c, x, y)
        except BoundaryUnsafe:
            continue
        bound = 3 * max(eplane.lattice_distance(x, h(x)),
                        eplane.lattice_distance(y, h(y))) + 1
        for simplex in directed_geodesic(c, x, y):
            for s in simplex:
                assert eplane.lattice_distance(s, h(s)) <= bound, (x, y, h)
        done += 1
    _report("criterion-9 fellow traveller", done == 200, time.time() - t0, 60,
            "200 triples, zero violations")


def test_criterion_10_shortest_path_oracle():
    """Funnel paths equal the visibility-graph oracle point for point, their
    recorded layer crossings equal the Q[sqrt(3)] line crossings, and they
    match the dense-grid float oracle to 1e-6."""
    t0 = time.time()
    rng = random.Random(10)
    c = eplane.window((0, 0), 16)
    disks = []
    vectors = [(4, 2), (6, 2), (6, 3), (8, 2), (5, 2), (7, 3), (8, 4), (9, 3),
               (7, 2), (7, 4), (8, 5), (10, 2), (10, 3), (9, 4), (10, 4),
               (11, 3), (12, 4), (9, 2), (11, 4), (12, 3), (8, 3)]
    rng.shuffle(vectors)
    candidates = [((-(p // 2), -(q // 2)), (p - p // 2, q - q // 2))
                  for p, q in vectors]
    worst = 0.0
    for x, y in candidates:
        if len(disks) >= 20:
            break
        ls = layers(c, x, y)
        for interval in thick_intervals(ls):
            cycle = chardisk.boundary_cycle(c, interval, ls)
            disk = chardisk.extract_flat_disk(c, cycle)
            mdisk = cat0.modified_disk(disk)
            path = cat0.shortest_path(mdisk)
            assert path.points == oracles.visibility_shortest_path(mdisk).points, \
                (x, y, interval)
            assert oracles.crossing_mismatches(disk, path) == [], (x, y, interval)
            if mdisk.degenerate:
                continue
            oracle = oracles.grid_dijkstra_path_length(
                mdisk.polygon, mdisk.start, mdisk.goal, pitch=0.02)
            rel = abs(path.length() - oracle) / oracle
            worst = max(worst, rel)
            assert rel <= 1e-6, (x, y, interval, rel)
            disks.append((x, y, interval))
    _report("criterion-10 shortest path oracle", len(disks) >= 20,
            time.time() - t0, 60,
            f"{len(disks)} disks, worst relative error {worst:.2e} <= 1e-6")


def test_criterion_11_tree_extendability():
    """E(0, tip_n) = n exactly; plane control stays uniformly bounded."""
    t0 = time.time()
    table = tree_extendability(11)
    values = {e.y[1]: e.E for e in table.entries}
    exact = all(values[n] == n for n in range(2, 11))
    rng = random.Random(11)
    pairs = []
    while len(pairs) < 30:
        x = (rng.randint(-6, 6), rng.randint(-6, 6))
        y = (rng.randint(-6, 6), rng.randint(-6, 6))
        if x != y:
            pairs.append((x, y))
    control = plane_control(pairs)
    _report("criterion-11 tree extendability",
            exact and control.max_E() <= 1, time.time() - t0, 30,
            f"E(0, tip_n) = n for n = 2..10; plane control max E = {control.max_E()}")


def test_criterion_12_minimal_disk_oracle():
    """Flat extraction matches exhaustive minimal fillings on small cycles."""
    t0 = time.time()
    c = eplane.window((0, 0), 14)
    cycles = 0
    pairs = [((0, 0), (4, 2)), ((0, 0), (5, 2)), ((0, 0), (4, 3)),
             ((0, 0), (5, 3)), ((-2, 1), (3, 3)), ((0, 0), (6, 2)),
             ((1, -1), (5, 1)), ((0, 0), (6, 3))]
    for x, y in pairs:
        ls = layers(c, x, y)
        for interval in thick_intervals(ls):
            cycle = chardisk.boundary_cycle(c, interval, ls)
            if len(cycle) > 8:
                continue
            disk = chardisk.extract_flat_disk(c, cycle)
            brute = oracles.brute_force_min_disk(c, cycle.cycle, 12)
            assert disk.triangle_count == brute, (x, y, interval)
            cycles += 1
    # standalone sanity cycles
    assert oracles.brute_force_min_disk(c, ((0, 0), (1, 0), (0, 1)), 3) == 1
    assert oracles.brute_force_min_disk(
        c, ((0, 0), (1, 0), (1, 1), (0, 1)), 4) == 2
    _report("criterion-12 minimal disk oracle", cycles >= 4,
            time.time() - t0, 120, f"{cycles} pipeline cycles + 2 standalone")
