import importlib.util
import inspect
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from syslab import chardisk, eplane, samples
from syslab.complexes import (FlagComplex, Simplex, check_local_6_large, distance,
                              dump_complex, interval, is_convex, load_complex,
                              materialize_window, parse_complex_text, residue)
from syslab.directed import layers, require_pair_safe, thick_intervals
from syslab.errors import (BoundaryUnsafe, NotASimplex, NotFlat, PreconditionViolated,
                           ScenarioParseError, Unreachable)


def test_distance_examples(window8):
    assert distance(window8, (0, 0), (0, 0)) == 0
    assert distance(window8, (0, 0), (3, 2)) == 5
    assert distance(window8, (0, 0), (2, -1)) == 2


def test_distance_budget():
    c = FlagComplex({0: [1], 1: [0, 2], 2: [1], 3: []})
    assert distance(c, 0, 2) == 2
    with pytest.raises(Unreachable):
        distance(c, 0, 2, budget=1)
    assert distance(c, 0, 1, budget=1) == 1
    with pytest.raises(Unreachable):
        distance(c, 0, 1, budget=0)
    with pytest.raises(Unreachable):
        distance(c, 0, 3)
    with pytest.raises(PreconditionViolated):
        distance(c, 0, 99)


def test_boundary_unsafe_on_untrusted_window():
    # an L-shaped strip cut out of the plane: the inside route between the
    # arm tips is much longer than the true lattice distance
    arm1 = [(i, 0) for i in range(7)]
    arm2 = [(0, j) for j in range(1, 7)]
    keep = set(arm1 + arm2)
    adjacency = {v: [u for u in eplane.neighbors(v) if u in keep] for v in keep}
    margin = {v: 0 for v in keep}
    c = FlagComplex(adjacency, margin=margin)
    assert not c.trusts_metric
    with pytest.raises(BoundaryUnsafe):
        distance(c, (6, 0), (0, 6))


@pytest.mark.parametrize("radius", [0, 1, 5, 12])
def test_materialize_window_matches_oracle(radius):
    # same vertices in the same order, same neighbour sets and margins
    for center, neighbors_fn in (((1, -2), eplane.neighbors),
                                 ((0, 0, 0), samples.book_neighbors(4))):
        c = materialize_window(center, neighbors_fn, radius)
        expected = oracles.window_adjacency(center, neighbors_fn, radius)
        assert list(c.vertices()) == list(expected)
        assert all(c.neighbors(v) == frozenset(nbrs) for v, nbrs in expected.items())
        assert max(c.margin(v) for v in c.vertices()) == radius


def test_interval_margin_rule_reads_the_levels(monkeypatch):
    # The L-shaped strip: interval refuses the arm tips with the message
    # distance gives, and finds d(x, y) by its one interval search.
    arm1 = [(i, 0) for i in range(7)]
    arm2 = [(0, j) for j in range(1, 7)]
    keep = set(arm1 + arm2)
    c = FlagComplex({v: [u for u in eplane.neighbors(v) if u in keep] for v in keep},
                    margin={v: 0 for v in keep})
    with pytest.raises(BoundaryUnsafe) as expected:
        distance(c, (6, 0), (0, 6))
    monkeypatch.setattr(FlagComplex, "true_distance", None)
    with pytest.raises(BoundaryUnsafe) as got:
        interval(c, (6, 0), (0, 6))
    assert str(got.value) == str(expected.value)
    with pytest.raises(PreconditionViolated):
        interval(c, (6, 0), (9, 9))


def test_interval_examples(window8):
    assert interval(window8, (0, 0), (2, 0)) == {(0, 0), (1, 0), (2, 0)}
    assert interval(window8, (3, 2), (3, 2)) == {(3, 2)}
    assert interval(window8, (0, 0), (1, 1)) == {(0, 0), (1, 0), (0, 1), (1, 1)}


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_interval_properties(ax, ay, bx, by):
    c = eplane.window((0, 0), 8)
    x, y = (ax, ay), (bx, by)
    ivl = interval(c, x, y)
    assert ivl == interval(c, y, x)
    assert x in ivl and y in ivl
    assert ivl == oracles.interval_scan(c, x, y)


def _assert_levels_match_oracles(c, x, y, dist_from_x):
    n = oracles.bfs_distance(c, x, y)
    levels = c.interval_levels(x, y)
    assert len(levels) == n + 1
    assert frozenset().union(*levels) == oracles.interval_scan(c, x, y)
    for i, level in enumerate(levels):
        assert all(dist_from_x[v] == i for v in level)


def test_interval_levels_plane_closed_form():
    c = eplane.window((0, 0), 4)
    assert c.plane_backed
    pairs = 0
    for x in sorted(c.vertices()):
        dist_from_x = oracles.bfs_map(c, x)
        for y in sorted(c.vertices()):
            if dist_from_x[y] <= 8:
                _assert_levels_match_oracles(c, x, y, dist_from_x)
                pairs += 1
    assert pairs == len(c) ** 2


def test_interval_levels_plane_hold_window_vertices():
    c = eplane.window((0, 0), 4)
    own = {v: v for v in c.vertices()}
    for x in sorted(c.vertices()):
        for y in sorted(c.vertices()):
            n = eplane.lattice_distance(x, y)
            levels = c.interval_levels(tuple(list(x)), tuple(list(y)))
            # fresh tuples in kept results would pin allocator pools
            assert all(v is own[v] for level in levels for v in level)
            closed_form = [set() for _ in range(n + 1)]
            for v in oracles.interval_box(x, y):
                if v in c:
                    closed_form[eplane.lattice_distance(x, v)].add(v)
            assert levels == tuple(map(frozenset, closed_form))


def test_plane_interval_agrees_with_box_levels():
    """``interval`` and ``interval_levels`` on a plane window against the
    former box levels, on every pair, as the window's own vertex objects."""
    c = eplane.window((0, 0), 4)
    own = {v: v for v in c.vertices()}
    for x in sorted(c.vertices()):
        for y in sorted(c.vertices()):
            ivl = interval(c, tuple(list(x)), tuple(list(y)))
            assert ivl == frozenset().union(*oracles.box_interval_levels(c, x, y))
            assert ivl == oracles.area_interval(c, x, y)
            assert c.interval_levels(x, y) == oracles.box_interval_levels(c, x, y)
            assert all(v is own[v] for v in ivl)


def test_interval_levels_book_bfs_walk():
    c = samples.book_window(4, 8)
    verts = sorted(c.vertices())
    rng = random.Random(23)
    for _ in range(60):
        x, y = rng.choice(verts), rng.choice(verts)
        _assert_levels_match_oracles(c, x, y, oracles.bfs_map(c, x))


def test_interval_levels_flat_disk_all_pairs():
    c = samples.flat_disk(3)
    for x in sorted(c.vertices()):
        dist_from_x = oracles.bfs_map(c, x)
        for y in sorted(c.vertices()):
            _assert_levels_match_oracles(c, x, y, dist_from_x)


def test_interval_levels_agree_with_two_bfs_oracle(non_plane_complexes):
    for c in non_plane_complexes:
        for x, y in oracles.pairs_within(c, 8):
            assert c.interval_levels(x, y) == oracles.two_bfs_interval_levels(c, x, y)


def test_interval_levels_disconnected_pair(non_plane_complexes):
    c = non_plane_complexes[-1]
    with pytest.raises(Unreachable, match=r"^no path 0 -> 100$"):
        c.interval_levels(0, 100)
    with pytest.raises(Unreachable, match=r"^no path 0 -> 100$"):
        oracles.two_bfs_interval_levels(c, 0, 100)
    with pytest.raises(Unreachable, match=r"^no path 0 -> 100$"):
        require_pair_safe(c, 0, 100)


def _result(fn, *args):
    """What fn returns, or the type and message of the refusal it raises."""
    try:
        return fn(*args)
    except (Unreachable, NotFlat) as exc:
        return type(exc).__name__, str(exc)


def test_shared_rows_agree_with_early_exit_oracle(non_plane_complexes):
    """Every pair within distance 6, shuffled, inside one scope, so most
    queries read a row that an earlier one grew past their target: the
    distance without a budget and at budgets d - 1, d and d + 1, the
    interval levels, and the isometry verdict on each disk of the pair,
    intact and with two region vertices' coordinates swapped, agree with
    the former early-exit search; so does the file complex's disconnected
    pair, asked before and after its rows grew. The rows are gone when the
    scope exits."""
    rng = random.Random(20)
    disks = 0
    for c in non_plane_complexes:
        pairs = list(oracles.pairs_within(c, 6))
        rng.shuffle(pairs)
        if 100 in c:
            pairs = [(0, 100)] + pairs + [(0, 100), (100, 0)]
        with c._shared_rows:
            for x, y in pairs:
                d = _result(oracles.early_exit_distance, c, x, y)
                assert _result(c.true_distance, x, y) == d, (c.name, x, y)
                for budget in ((d - 1, d, d + 1) if isinstance(d, int) else (0, 6)):
                    assert (_result(c.true_distance, x, y, budget)
                            == _result(oracles.early_exit_distance, c, x, y, budget)), \
                        (c.name, x, y, budget)
                assert (_result(c.interval_levels, x, y)
                        == _result(oracles.early_exit_interval_levels, c, x, y))
                if not isinstance(d, int) or not x < y:
                    continue
                try:
                    ls = layers(c, x, y)
                except BoundaryUnsafe:
                    continue
                for iv in thick_intervals(ls):
                    disk = chardisk.extract_flat_disk(c, chardisk.boundary_cycle(c, iv, ls))
                    verts = sorted(disk.region)
                    swapped = dict(disk.coords)
                    swapped[verts[1]], swapped[verts[-2]] = disk.coords[verts[-2]], \
                        disk.coords[verts[1]]
                    for coords in (disk.coords, swapped):
                        assert (_result(chardisk._check_isometric, c, disk.region, coords)
                                == _result(oracles.early_exit_check_isometric, c,
                                           disk.region, coords))
                    disks += 1
        assert c._shared_rows.rows is None
    assert disks >= 200


def test_grown_row_keeps_the_budget(non_plane_complexes):
    """A row that already holds y beyond a smaller budget still refuses the
    query with the budget's text, and answers it at the budget."""
    c = non_plane_complexes[0]
    x = (0, 0, 0)
    y = next(v for v, d in oracles.bfs_map(c, x).items() if d == 4)
    with c._shared_rows:
        assert c.true_distance(x, y) == 4
        assert c._shared_rows.rows[x].dist[y] == 4
        with pytest.raises(Unreachable, match=rf"^no path {re.escape(str(x))} -> "
                                              rf"{re.escape(str(y))} within budget 3$"):
            c.true_distance(x, y, 3)
        assert c.true_distance(x, y, 4) == 4
    assert c._shared_rows.rows is None


def test_is_convex_examples(window8):
    ball2 = [v for v in window8.vertices() if eplane.lattice_distance((0, 0), v) <= 2]
    assert is_convex(window8, ball2, radius_cap=4)
    assert not is_convex(window8, [(0, 0), (2, 0)], radius_cap=2)
    assert is_convex(window8, [(1, 1)], radius_cap=0)


def test_is_convex_disconnected_pair(window8):
    # radius_cap is unread: the local criterion forms no distance to bound
    assert not is_convex(window8, [(0, 0), (4, 0)], radius_cap=2)


def _convexity_sets(c, rng, count):
    """Perturbed balls and random connected sets of c, alternately: a ball
    of radius 1-3 with up to three members dropped or ring vertices added,
    and a set grown from one vertex by up to 20 random ring vertices."""
    verts = sorted(c.vertices())
    out = []
    for i in range(count):
        A = {verts[rng.randrange(len(verts))]}
        if i % 2 == 0:
            A.update(c.bfs_distances(min(A), budget=rng.randint(1, 3)))
            steps = rng.randint(0, 3)
        else:
            steps = rng.randint(1, 20)
        for _ in range(steps):
            if i % 2 == 0 and len(A) > 1 and rng.random() < 0.5:
                A.discard(sorted(A)[rng.randrange(len(A))])
                continue
            ring = sorted(set().union(*map(c.neighbors, A)) - A)
            if ring:
                A.add(ring[rng.randrange(len(ring))])
        out.append(sorted(A))
    return out


def test_is_convex_matches_oracles_on_random_sets():
    rng = random.Random(1414)
    seen = {True: 0, False: 0}
    margin0 = 0
    for c in (eplane.window((0, 0), 6), samples.book_window(4, 7), samples.book_window(3, 5),
              samples.flat_disk(3), samples.parallelogram_disk(4, 2),
              samples.tree_with_branches(6)):
        cap = len(c)
        for verts in _convexity_sets(c, rng, 260):
            got = is_convex(c, verts)
            assert got == oracles.streamed_is_convex(c, verts, cap), (c.name, verts)
            assert got == oracles.dense_is_convex(c, verts, cap), (c.name, verts)
            seen[got] += 1
            margin0 += not c.is_complete and any(c.margin(v) == 0 for v in verts)
    assert seen[True] >= 400 and seen[False] >= 400, seen
    assert margin0 >= 100, margin0


def _benchmark_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_is_convex_matches_oracles_on_benchmark_balls():
    """Every ball the book-metric workload draws at seed 401 in passes 0-9,
    balls that reach the window's rim included."""
    book = _benchmark_workloads().BookMetric()
    state = book.setup(401)
    c = state["c"]
    drawn = [item.args for p in range(10) for item in book.items(state, p)
             if item.group == "convexity"]
    radius = {ball: r for _, r, ball in drawn}     # a ball drawn twice is checked once
    for ball, r in radius.items():
        assert is_convex(c, ball, 2 * r), (ball[0], r)
        assert oracles.streamed_is_convex(c, ball, 2 * r), (ball[0], r)
        assert oracles.dense_is_convex(c, ball, 2 * r), (ball[0], r)
    rim = sum(any(c.margin(v) == 0 for v in ball) for ball in radius)
    assert len(drawn) == 100 and rim > 0, (len(drawn), len(radius), rim)


@pytest.mark.parametrize("c", [
    samples.octahedron(),
    parse_complex_text("flagcomplex v1\n0 1\n1 2\n2 0\n"),
    FlagComplex({i: [(i - 1) % 6, (i + 1) % 6] for i in range(6)}),
], ids=["octahedron", "flagcomplex-v1", "hexagon"])
def test_is_convex_needs_a_systolic_complex(c):
    with pytest.raises(PreconditionViolated, match="not attested systolic"):
        is_convex(c, [0, 1])


def test_is_convex_rejects_foreign_vertices(window8):
    with pytest.raises(PreconditionViolated, match=r"^vertex not in complex: \(9, 0\)$"):
        is_convex(window8, [(0, 0), (9, 0)])


def test_is_convex_matches_dense_oracle_on_book_balls():
    c = samples.book_window(4, 7)
    seen = {True: 0, False: 0}
    for r in range(2, 7):
        for center in ((0, 0, 0), (0, 2, 1)):    # spine and page
            ball = sorted(c.bfs_distances(center, budget=r))
            # without its largest vertex, no violating pair holds the first source
            holes = [[v for v in ball if v != drop] for drop in (center, ball[-1])]
            for verts in [ball] + holes:
                got = is_convex(c, verts, 2 * r)
                assert got == oracles.dense_is_convex(c, verts, 2 * r), (r, center)
                seen[got] += 1
    far = [(-3, 0, 0), (3, 0, 0)]
    assert is_convex(c, far, 6) is oracles.dense_is_convex(c, far, 6) is False
    assert seen == {True: 10, False: 20}


def test_six_large_window(window8):
    assert check_local_6_large(window8).ok


def test_six_large_octahedron():
    report = check_local_6_large(samples.octahedron())
    assert not report.ok
    assert len(report.witness_cycle) == 4
    # independent search agrees
    assert oracles.find_induced_cycle(samples.octahedron(), report.witness_vertex)


def test_six_large_triangle():
    assert check_local_6_large(samples.single_triangle()).ok


def test_residue_examples(window8):
    assert residue(window8, Simplex.of([(0, 0)])) == frozenset(
        [(0, 0)] + list(eplane.neighbors((0, 0))))
    assert residue(window8, Simplex.of([(0, 0), (1, 0)])) == frozenset(
        [(0, 0), (1, 0), (1, -1), (0, 1)])
    tri = Simplex.of([(0, 0), (1, 0), (0, 1)])
    assert residue(window8, tri) == frozenset(tri.verts)


def test_residue_rejects_non_simplex(window8):
    with pytest.raises(NotASimplex):
        residue(window8, Simplex((((0, 0)), (2, 0))))


def test_simplex_basics():
    s = Simplex.of([3, 1, 2])
    assert s.verts == (1, 2, 3)
    assert 2 in s and len(s) == 3
    with pytest.raises(NotASimplex):
        Simplex.of([])


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_metric_triangle_inequality(ax, ay, bx, by, cx, cy):
    c = eplane.window((0, 0), 8)
    a, b, d = (ax, ay), (bx, by), (cx, cy)
    assert distance(c, a, d) <= distance(c, a, b) + distance(c, b, d)


def test_file_format_roundtrip(tmp_path):
    text = "flagcomplex v1\n# a comment\n0 1\n1 2\n2 0\n"
    c = parse_complex_text(text)
    assert len(c) == 3 and c.adjacent(0, 2)
    path = tmp_path / "tri.fc"
    path.write_text(dump_complex(c), encoding="utf-8")
    c2 = load_complex(path)
    assert sorted(c2.vertices()) == sorted(c.vertices())


@pytest.mark.parametrize("bad", [
    "0 1\n",                               # missing header
    "flagcomplex v1\n0 0\n",               # self-loop
    "flagcomplex v1\n0 1\n1 0\n",          # duplicate edge
    "flagcomplex v1\n0\n",                 # malformed line
    "flagcomplex v1\nx y\n",               # non-integer
    "flagcomplex v1\n-1 2\n",              # negative id
])
def test_file_format_rejects(bad):
    with pytest.raises(ScenarioParseError):
        parse_complex_text(bad)


def test_adjacency_validation():
    with pytest.raises(PreconditionViolated):
        FlagComplex({0: [0]})
    with pytest.raises(PreconditionViolated):
        FlagComplex({0: [1], 1: []})


def test_materialize_window_margins():
    # the BFS cut serves implicit complexes such as books and has no plane
    # flag: a plane window comes only from its ball
    c = materialize_window((0, 0, 0), samples.book_neighbors(4), 4)
    assert c.margin((0, 0, 0)) == 4
    assert c.margin((4, 0, 0)) == 0 and c.margin((0, 4, 3)) == 0
    assert c.trusts_metric and not c.plane_backed
    assert c.metric_hint is None and c.plane_ball is None
    assert "plane_backed" not in inspect.signature(materialize_window).parameters
    with pytest.raises(TypeError):
        materialize_window((0, 0), eplane.neighbors, 4, plane_backed=True)


def test_window_not_asserted_convex_is_neither_systolic_nor_trusted():
    """``convex=False`` attests nothing: the margin rule refuses every pair,
    a distance must fit inside a margin, and the local convexity criterion
    refuses to run. The same cut asserted convex is trusted."""
    book = samples.book_neighbors(4)
    c = materialize_window((0, 0, 0), book, 4, convex=False)
    assert not c.systolic and not c.trusts_metric and not c.is_complete
    with pytest.raises(BoundaryUnsafe, match="^window metric is not trusted"):
        require_pair_safe(c, (0, 0, 0), (1, 0, 0))
    with pytest.raises(BoundaryUnsafe, match="exceeds both margins"):
        distance(c, (4, 0, 0), (0, 4, 3))
    with pytest.raises(PreconditionViolated, match="is not attested systolic$"):
        is_convex(c, [(0, 0, 0), (1, 0, 0)])
    trusted = materialize_window((0, 0, 0), book, 4)
    assert trusted.systolic and trusted.trusts_metric
    assert require_pair_safe(trusted, (0, 0, 0), (1, 0, 0)) == 1
    assert is_convex(trusted, [(0, 0, 0), (1, 0, 0)])
