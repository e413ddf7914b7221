import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from syslab import eplane, euclid, runner
from syslab.complexes import FlagComplex
from syslab.directed import layers, require_pair_safe
from syslab.errors import BoundaryUnsafe, NoSelection, PreconditionViolated, SyslabError
from syslab.euclid import (GoodnessConstants, euclidean_geodesic,
                           goodness_constant, select_vertex_geodesic,
                           verify_contracting)
from syslab.scenario import load_scenario

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def verts(e):
    return [s.verts for s in e]


def test_euclidean_geodesic_42(window42):
    e = euclidean_geodesic(window42, (0, 0), (4, 2))
    assert verts(e) == [((0, 0),), ((0, 1), (1, 0)), ((1, 1), (2, 0)), ((2, 1),),
                        ((2, 2), (3, 1)), ((3, 2), (4, 1)), ((4, 2),)]
    assert e.provenance == ("endpoint", "thin", "thin", "disk", "thin", "thin",
                            "endpoint")


def test_euclidean_geodesic_collinear(window42):
    e = euclidean_geodesic(window42, (0, 0), (3, 0))
    assert verts(e) == [((i, 0),) for i in range(4)]


def test_euclidean_geodesic_diagonal(window42):
    e = euclidean_geodesic(window42, (0, 0), (2, 2))
    ls = layers(window42, (0, 0), (2, 2))
    for i, s in enumerate(e):
        assert set(s.verts) == set(ls[i].sigma.verts) | set(ls[i].tau.verts)


def test_delta_in_layers_and_reversal(window12):
    rng = random.Random(11)
    for _ in range(15):
        x = (rng.randint(-3, 3), rng.randint(-3, 3))
        y = (rng.randint(-3, 3), rng.randint(-3, 3))
        if x == y:
            continue
        e = euclidean_geodesic(window12, x, y, check_reversal=True)
        levels = window12.interval_levels(x, y)
        for i, s in enumerate(e):
            assert set(s.verts) <= levels[i]


def test_select_vertex_geodesic_42(window42):
    e = euclidean_geodesic(window42, (0, 0), (4, 2))
    assert select_vertex_geodesic(e) == (
        (0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (4, 2))


def test_select_vertex_geodesic_22(window42):
    e = euclidean_geodesic(window42, (0, 0), (2, 2))
    assert select_vertex_geodesic(e) == ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2))


def test_select_vertex_geodesic_collinear(window42):
    e = euclidean_geodesic(window42, (0, 0), (3, 0))
    assert select_vertex_geodesic(e) == ((0, 0), (1, 0), (2, 0), (3, 0))


def test_selection_is_geodesic(window12):
    rng = random.Random(23)
    for _ in range(10):
        x = (rng.randint(-4, 4), rng.randint(-4, 4))
        y = (rng.randint(-4, 4), rng.randint(-4, 4))
        if x == y:
            continue
        g = select_vertex_geodesic(euclidean_geodesic(window12, x, y,
                                                      check_reversal=False))
        assert oracles.is_geodesic(window12, g)


def test_selection_threads_a_1200_vertex_path():
    """A geodesic of 1200 layers, far past the interpreter's recursion
    limit, selects the path itself."""
    n = 1200
    c = FlagComplex({i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)},
                    systolic=True)
    assert select_vertex_geodesic(euclidean_geodesic(c, 0, n - 1)) == tuple(range(n))


def _selection(select, e):
    """The selected vertices, or the text of the NoSelection refusal."""
    try:
        return select(e)
    except NoSelection as exc:
        return str(exc)


def test_selection_agrees_with_recursive_oracle(non_plane_complexes):
    """Every difference of length at most 12 from (0, 0) of a radius-16
    plane window, and every pair within distance 6 that the margin rule
    lets a complex off the plane build: the same vertices as the former
    recursive search."""
    c = eplane.window((0, 0), 16)
    compared = 0
    for y in sorted(c.vertices()):
        if eplane.lattice_distance((0, 0), y) <= 12:
            e = euclidean_geodesic(c, (0, 0), y)
            assert _selection(select_vertex_geodesic, e) == _selection(
                oracles.recursive_select_vertex_geodesic, e), y
            compared += 1
    assert compared == 469
    for c in non_plane_complexes:
        for x, y in oracles.pairs_within(c, 6):
            try:
                e = euclidean_geodesic(c, x, y, check_reversal=False)
            except SyslabError:
                continue
            assert _selection(select_vertex_geodesic, e) == _selection(
                oracles.recursive_select_vertex_geodesic, e), (c.name, x, y)
            compared += 1
    assert compared > 5000


def test_goodness_straight_line():
    c = eplane.window((5, 0), 16)
    report = goodness_constant(c, [(i, 0) for i in range(11)])
    assert report.c_star == 0
    assert report.pairs_examined == 55


def test_goodness_42_regression(window42):
    g = select_vertex_geodesic(euclidean_geodesic(window42, (0, 0), (4, 2)))
    report = goodness_constant(window42, g)
    assert report.c_star == 1  # regression anchor; must stay below C = 200
    assert report.c_star <= GoodnessConstants().C


def test_goodness_monotone_under_subgeodesics(window12):
    g = select_vertex_geodesic(euclidean_geodesic(window12, (-3, -1), (3, 2),
                                                  check_reversal=False))
    whole = goodness_constant(window12, g).c_star
    sub = goodness_constant(window12, g[1:-1]).c_star
    assert sub <= whole + 0  # sub-pairs of the sub-geodesic are a subset


def test_goodness_staircase_bound():
    c = eplane.window((3, 3), 16)
    stair = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3),
             (4, 4), (5, 4), (5, 5), (6, 5), (6, 6)]
    report = goodness_constant(c, stair)
    # Hausdorff 1/2 from its axis line: guaranteed 4*(1/2)/sqrt(3) + 1 good
    assert report.c_star <= 4 * 0.5 / 3 ** 0.5 + 1 + 1e-9


def test_equivariance(window12):
    big = eplane.window((0, 0), 14)
    for iso in (eplane.translation(3, -2), eplane.glide(1, 1), eplane.rotation60(1)):
        e = euclidean_geodesic(big, (0, 0), (4, 2), check_reversal=False)
        mapped = [sorted(iso(v) for v in s.verts) for s in e]
        direct = euclidean_geodesic(big, iso((0, 0)), iso((4, 2)),
                                    check_reversal=False)
        assert mapped == [sorted(s.verts) for s in direct]


def _assert_memo_agrees(c, g):
    assert goodness_constant(c, g) == oracles.uncached_goodness_constant(c, g)


def test_goodness_memo_matches_oracle_on_plane_pairs():
    c = eplane.window((0, 0), 16)
    for y in sorted(c.vertices()):
        if 2 <= eplane.lattice_distance((0, 0), y) <= 10:
            selected = select_vertex_geodesic(euclidean_geodesic(c, (0, 0), y))
            _assert_memo_agrees(c, selected)
            _assert_memo_agrees(c, eplane.corner_geodesic((0, 0), y))


def _random_lattice_geodesic(rng, n):
    x = (rng.randint(-1, 1), rng.randint(-1, 1))
    while True:
        y = (x[0] + rng.randint(-n, n), x[1] + rng.randint(-n, n))
        if eplane.lattice_distance(x, y) == n:
            break
    path = [x]
    while path[-1] != y:
        d = eplane.lattice_distance(path[-1], y)
        path.append(rng.choice([u for u in eplane.neighbors(path[-1])
                                if eplane.lattice_distance(u, y) == d - 1]))
    return path


def test_goodness_memo_matches_oracle_on_random_geodesics():
    c = eplane.window((0, 0), 20)
    rng = random.Random(5)
    for _ in range(100):
        g = _random_lattice_geodesic(rng, rng.randint(1, 16))
        assert oracles.is_geodesic(c, g)
        _assert_memo_agrees(c, g)


def test_goodness_memo_keeps_margin_rule_on_cached_difference():
    # Geodesics reaching the rim of a small window: the memo reuses
    # constructions without re-checking the margin rule, so it must refuse
    # exactly the pairs the per-sub-pair oracle refuses, with the same
    # message, and agree on the rest, including geodesics whose intervals
    # reach the margin-1 ring.
    c = eplane.window((0, 0), 4)
    rng = random.Random(11)
    refused = agreed = touching = 0
    for _ in range(400):
        g = _random_lattice_geodesic(rng, rng.randint(2, 6))
        if not all(v in c for v in g) or not oracles.is_geodesic(c, g):
            continue
        try:
            expected = oracles.uncached_goodness_constant(c, g)
        except BoundaryUnsafe as exc:
            with pytest.raises(BoundaryUnsafe) as cached:
                goodness_constant(c, g)
            assert str(cached.value) == str(exc)
            refused += 1
            continue
        assert goodness_constant(c, g) == expected
        agreed += 1
        interval = set().union(*c.interval_levels(g[0], g[-1]))
        touching += any(c.margin(v) == 1 for v in interval)
    assert refused >= 10 and agreed >= 10 and touching >= 5


def test_shared_memo_matches_oracle_on_criterion_4_stream(monkeypatch):
    # Criterion 4's pairs on one window: every goodness_constant call reads
    # the window's memo, filled by the calls before it.
    c = eplane.window((0, 0), 18)
    built = []
    construct = euclid._plane_simplices
    monkeypatch.setattr(euclid, "_plane_simplices",
                        lambda *a, **k: built.append(a[1:3]) or construct(*a, **k))
    rng = random.Random(4)
    done = misses = 0
    while done < 200:
        x = (rng.randint(-8, 8), rng.randint(-8, 8))
        y = (rng.randint(-8, 8), rng.randint(-8, 8))
        if not 1 <= eplane.lattice_distance(x, y) <= 16:
            continue
        try:
            require_pair_safe(c, x, y)
        except BoundaryUnsafe:
            continue
        g = select_vertex_geodesic(euclidean_geodesic(c, x, y, check_reversal=False))
        before = len(built)
        report = goodness_constant(c, g)
        misses += len(built) - before
        assert report == oracles.uncached_goodness_constant(c, g)
        done += 1
    # one construction per distinct difference over all 200 calls (2645
    # with one per sub-pair); the selections above and the oracle's
    # constructions, which run the same helper, are not counted
    assert misses == len(c.translation_memo) == 456


def test_goodness_matches_oracle_on_plane_goodness_shapes():
    # The plane-goodness benchmark's pair family: (-n, q) for n = 8, 16, 24
    # and q = 0, n/8, n/4, 3n/8, three translates each, on the selected and
    # on the corner geodesic. Whole reports agree: c_star, the witness (the
    # first strict maximum, shifted forward) and pairs_examined.
    rng = random.Random(28)
    witnessed = 0
    for n in (8, 16, 24):
        for q in (0, n // 8, n // 4, 3 * n // 8):
            for _ in range(3):
                t = (rng.randint(-40, 40), rng.randint(-40, 40))
                x = (t[0] + n // 2, t[1] - q // 2)
                y = (x[0] - n, x[1] + q)
                c = eplane.window(t, 20)
                selected = select_vertex_geodesic(euclidean_geodesic(c, x, y))
                for g in (selected, eplane.corner_geodesic(x, y)):
                    report = goodness_constant(c, g)
                    assert report == oracles.uncached_goodness_constant(c, g)
                    witnessed += report.witness is not None
    assert witnessed == 54   # every shape but q = 0, whose geodesics are straight


def test_goodness_rejects_non_geodesic_input(window8):
    with pytest.raises(PreconditionViolated, match=r"step 0 from \(-1, 1\) to \(0, 3\)"):
        goodness_constant(window8, [(-1, 1), (0, 3), (0, 0), (1, 2)])
    # every step an edge, but the ends are 1 apart after 2 steps
    with pytest.raises(PreconditionViolated, match=r"d\(\(0, 0\), \(1, -1\)\) = 1"):
        goodness_constant(window8, [(0, 0), (1, 0), (1, -1)])
    with pytest.raises(PreconditionViolated, match="not an edge"):
        goodness_constant(window8, [(0, 0), (0, 0)])
    with pytest.raises(PreconditionViolated, match="not an edge"):
        goodness_constant(window8, [(0, 0), (99, 0)])
    with pytest.raises(PreconditionViolated, match=r"\(\) has no vertex in the complex"):
        goodness_constant(window8, [])
    with pytest.raises(PreconditionViolated, match=r"\(\(99, 99\),\) has no vertex in the complex"):
        goodness_constant(window8, [(99, 99)])


def test_contracting_equal_rays(window12):
    g = select_vertex_geodesic(euclidean_geodesic(window12, (0, 0), (5, 2),
                                                  check_reversal=False))
    report = verify_contracting(window12, g, g, [Fraction(1)],
                                constants=GoodnessConstants())
    assert report.ok
    assert report.checks[0].lhs == 0
    assert report.max_slack <= 0


def test_contracting_60_degree_rays(window12):
    n = 10
    g1 = [(i, 0) for i in range(n + 1)]
    g2 = [(0, i) for i in range(n + 1)]
    report = verify_contracting(window12, g1, g2,
                                [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
                                constants=GoodnessConstants())
    assert report.ok
    # d(v_cn, w_cn) = cn exactly, so the slack is the floor rounding only
    assert report.max_slack <= 0


def test_contracting_requires_shared_origin(window12):
    g1 = [(i, 0) for i in range(5)]
    g2 = [(1, i) for i in range(5)]
    with pytest.raises(PreconditionViolated):
        verify_contracting(window12, g1, g2, [Fraction(1, 2)])


def test_contracting_doubling_form(window12):
    g1 = select_vertex_geodesic(euclidean_geodesic(window12, (0, 0), (5, 2),
                                                   check_reversal=False))
    g2 = tuple((v[0] + 1, v[1] + 1) for v in g1)
    report = verify_contracting(window12, g1, g2, [], doubling_bound=2,
                                constants=GoodnessConstants())
    assert report.ok
    assert all(ch.kind == "doubling" for ch in report.checks)


def test_no_selection_reported_with_context(window12):
    from syslab.complexes import Simplex
    from syslab.euclid import EuclideanGeodesic
    broken = EuclideanGeodesic(
        window12, (0, 0), (3, 0),
        (Simplex.of([(0, 0)]), Simplex.of([(1, 0)]), Simplex.of([(0, 2)]),
         Simplex.of([(3, 0)])),
        ("endpoint", "thin", "thin", "endpoint"))
    with pytest.raises(NoSelection):
        select_vertex_geodesic(broken)
    assert _selection(select_vertex_geodesic, broken) == _selection(
        oracles.recursive_select_vertex_geodesic, broken)


def test_constants_floors():
    with pytest.raises(PreconditionViolated):
        GoodnessConstants(C=100)
    with pytest.raises(PreconditionViolated):
        GoodnessConstants(C=200, D=500)
    assert GoodnessConstants(C=100, empirical=True).C == 100
    assert GoodnessConstants().D == 600


def test_contracting_agrees_with_fraction_oracle(monkeypatch, tmp_path):
    """The integer checks against the former Fraction ones on the pairs of
    rays the contracting scenario checks, in the form it checks each pair:
    every check's kind, ratio, index, lhs, rhs_base, bound, slack and holds,
    the violations and max_slack, at c in {0, 1/4, 1/3, 1/2, 3/4, 1} and
    D = 0, 1 and 600, so that some checks fail."""
    calls = []

    def record(c, g1, g2, cs, **kwargs):
        calls.append((c, g1, g2, kwargs.get("doubling_bound")))
        return verify_contracting(c, g1, g2, cs, **kwargs)

    monkeypatch.setattr(runner, "verify_contracting", record)
    assert runner.run_scenario(load_scenario(SCENARIOS / "contracting.scn"), tmp_path)[1] == 0
    cs = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4),
          Fraction(1)]
    fields = ("kind", "c", "index", "lhs", "rhs_base", "bound", "slack", "holds")
    failed = doubling = 0
    for D in (0, 1, 600):
        constants = GoodnessConstants(C=D, D=D, empirical=True)
        for c, g1, g2, bound in calls:
            new = verify_contracting(c, g1, g2, cs, constants=constants,
                                     doubling_bound=bound)
            old = oracles.fraction_verify_contracting(c, g1, g2, cs, constants=constants,
                                                      doubling_bound=bound)
            assert [[getattr(ch, f) for f in fields] for ch in new.checks] == \
                [[getattr(ch, f) for f in fields] for ch in old.checks]
            assert [ch.index for ch in new.violations] == [ch.index for ch in old.violations]
            assert new.max_slack == old.max_slack
            assert type(new.max_slack) is Fraction
            failed += len(new.violations)
            doubling += bound is not None
    assert len(calls) == 80 and doubling == 3 * 20 and failed > 30
