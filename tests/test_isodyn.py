import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from syslab import eplane, isodyn, runner, samples
from syslab.errors import (BoundaryUnsafe, Inconclusive, NotPlaneBacked,
                           NotTranslationLike, PreconditionViolated)
from syslab.isodyn import (TableAction, _assert_geodesic, axis_line_max_distance_sq,
                           central_good_geodesic, check_min_proximity,
                           convergence_diagnostic, displacement_set,
                           invariant_geodesic_on_plane, is_hyperbolic, min_set,
                           parse_permutation_text, translation_length)
from syslab.scenario import load_scenario

GLIDE = eplane.glide(1, 1)
SCENARIOS = Path(__file__).parent.parent / "scenarios"


def test_is_hyperbolic_closed_forms():
    assert is_hyperbolic(eplane.translation(1, 0))
    assert not is_hyperbolic(eplane.identity())
    assert not is_hyperbolic(eplane.rotation60(1))
    assert not is_hyperbolic(eplane.rotation60(2, (3, 3)))
    assert is_hyperbolic(GLIDE)


def test_is_hyperbolic_table():
    octa = samples.octahedron()
    antipodal = TableAction.from_dict(octa, {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4})
    assert is_hyperbolic(antipodal)
    identity = TableAction.from_dict(octa, {v: v for v in range(6)})
    assert not is_hyperbolic(identity)


def test_table_validation():
    octa = samples.octahedron()
    with pytest.raises(PreconditionViolated):
        TableAction.from_dict(octa, {v: 0 for v in range(6)})


def test_table_power_matches_repeated_apply():
    octa = samples.octahedron()
    antipodal = TableAction.from_dict(octa, {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4})
    w = eplane.window((0, 0), 2)
    rotation = eplane.rotation60(1)
    turn = TableAction.from_dict(w, {v: rotation.apply(v) for v in w.vertices()})
    for c, h in ((octa, antipodal), (w, turn)):
        for n in range(-7, 8):
            power = h.power(n)
            for v in c.vertices():
                # h^|n| carries power(n)(v) back to v when n < 0
                start, target = (v, power.apply(v)) if n >= 0 else (power.apply(v), v)
                for _ in range(abs(n)):
                    start = h.apply(start)
                assert start == target


def test_table_measures_displacement_in_its_own_complex():
    w = eplane.window((0, 0), 3)
    rotation = eplane.rotation60(1)
    turn = TableAction.from_dict(w, {v: rotation.apply(v) for v in w.vertices()})
    for v in w.vertices():
        assert turn.displacement(v) == w.true_distance(v, rotation.apply(v))
        assert turn.displacement(v) == rotation.displacement(v)
    assert turn.power(-2).complex is w
    # equality and hashing read the permutation only
    again = TableAction(turn.mapping, eplane.window((0, 0), 3))
    assert again == turn and hash(again) == hash(turn)


def test_table_on_truncated_window_is_boundary_unsafe():
    w = eplane.window((0, 0), 2)
    table = TableAction.from_dict(w, {v: v for v in w.vertices()})
    with pytest.raises(BoundaryUnsafe, match="translation length on tables needs a complete"):
        translation_length(table)
    with pytest.raises(BoundaryUnsafe, match="table displacement on a truncated window"):
        displacement_set(table, 1, w)


def test_is_hyperbolic_table_window_inconclusive():
    w = eplane.window((0, 0), 2)
    mapping = {v: v for v in w.vertices()}
    table = TableAction.from_dict(w, mapping)
    with pytest.raises(Inconclusive):
        is_hyperbolic(table)


def test_translation_lengths():
    assert translation_length(eplane.translation(1, 0)) == 1
    assert translation_length(GLIDE) == 2
    assert translation_length(eplane.translation(2, 2)) == 4


def test_glide_displacement_formula():
    # d_g(a, b) is 2 on the strip |a - b| <= 1 and |a - b| + 1 outside
    for a in range(-6, 7):
        for b in range(-6, 7):
            k = abs(a - b)
            expected = 2 if k <= 1 else k + 1
            assert GLIDE.displacement((a, b)) == expected


def test_displacement_sets():
    c = eplane.window((0, 0), 9)
    mset = min_set(GLIDE, c)
    assert mset.K == 2
    assert mset.vertices == frozenset(v for v in c.vertices() if abs(v[0] - v[1]) <= 1)
    d3 = displacement_set(GLIDE, 3, c)
    assert d3.vertices == frozenset(v for v in c.vertices() if abs(v[0] - v[1]) <= 2)
    assert mset.vertices <= d3.vertices
    full = displacement_set(eplane.translation(1, 0), 1, c)
    assert full.vertices == frozenset(c.vertices())


@pytest.mark.parametrize("literal", ["glide(1,1)", "translate(2,-1)", "rot60^1@(1,0)"])
@pytest.mark.parametrize("radius", [6, 12, 18])
def test_displacement_sets_match_three_scans(literal, radius):
    # One scan against the displacement study's former three, from the
    # least displacement in the window (the min set where h is hyperbolic):
    # equal sets, and each frozenset in the same iteration order.
    h = eplane.parse_isometry(literal)
    c = eplane.window((0, 0), radius)
    least = min(h.displacement(v) for v in c.vertices())
    sets = isodyn.displacement_sets(h, (least, least + 1, least + 5), c)
    expected = oracles.three_scan_displacement_sets(h, least, c)
    assert sets == expected
    assert [list(s.vertices) for s in sets] == [list(s.vertices) for s in expected]
    assert displacement_set(h, least + 1, c) == expected[1]


def test_displacement_sets_refuse_a_truncated_table():
    w = eplane.window((0, 0), 3)
    table = TableAction.from_dict(w, {v: v for v in w.vertices()})
    with pytest.raises(BoundaryUnsafe) as expected:
        oracles.three_scan_displacement_sets(table, 0, w)
    with pytest.raises(BoundaryUnsafe) as scanned:
        isodyn.displacement_sets(table, (0, 1, 5), w)
    assert str(scanned.value) == str(expected.value) \
        == "table displacement on a truncated window"


def test_displacement_neighborhood_growth():
    # B_C(disp_K) sits inside disp_{K + 2C}
    c = eplane.window((0, 0), 9)
    for K, C in ((2, 1), (3, 2)):
        disp = displacement_set(GLIDE, K, c)
        bigger = displacement_set(GLIDE, K + 2 * C, c)
        for v in disp.vertices:
            if c.margin(v) < C:
                continue
            for u, d in c.bfs_distances(v, budget=C).items():
                assert u in bigger.vertices


def test_bounded_neighborhood_between_displacement_sets():
    # the coarse converse: disp_K stays within a bounded distance of disp_K'
    c = eplane.window((0, 0), 12)
    disp4 = displacement_set(GLIDE, 4, c)
    disp2 = displacement_set(GLIDE, 2, c)
    measured = max(min(eplane.lattice_distance(v, u) for u in disp2.vertices)
                   for v in disp4.vertices)
    # a single (1,-1) step crosses two strips, so |k|<=3 sits 1 away from |k|<=1
    assert measured == 1


def test_check_min_proximity_glide():
    c = eplane.window((0, 0), 16)
    pairs = [((0, 0), (6, 6)), ((-3, -2), (4, 5)), ((1, 0), (8, 7))]
    report = check_min_proximity(c, GLIDE, pairs)
    assert report.bound == 24
    assert report.ok
    assert report.empirical_max <= 4  # regression anchor, far below the bound


def test_check_min_proximity_takes_the_translation_length(monkeypatch):
    """A caller that holds L hands it over, and the scan does not run again."""
    c = eplane.window((0, 0), 16)
    pairs = [((0, 0), (6, 6)), ((-3, -2), (4, 5))]
    scanned = check_min_proximity(c, GLIDE, pairs)
    L = isodyn.translation_length(GLIDE)
    monkeypatch.setattr(isodyn, "translation_length",
                        lambda h: pytest.fail("translation length scanned again"))
    assert check_min_proximity(c, GLIDE, pairs, L) == scanned


def test_check_min_proximity_matches_simplex_oracle_on_glide_minset(monkeypatch, tmp_path):
    # The pairs the glide-minset scenario draws, read off its call.
    calls = []
    monkeypatch.setattr(runner, "check_min_proximity",
                        lambda *a: calls.append(a) or check_min_proximity(*a))
    report, code = runner.run_scenario(load_scenario(SCENARIOS / "glide-minset.scn"),
                                       tmp_path)
    assert code == 0
    (c, h, pairs, L), = calls
    assert len(pairs) == 50 and c.plane_backed
    assert check_min_proximity(c, h, pairs, L) \
        == oracles.simplex_check_min_proximity(c, h, pairs, L)


def test_check_min_proximity_matches_simplex_oracle_off_the_plane():
    octahedron = samples.octahedron()
    antipode = TableAction.from_dict(octahedron, {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4})
    pairs = [(0, 2), (2, 5), (0, 0)]
    report = check_min_proximity(octahedron, antipode, pairs)
    assert report == oracles.simplex_check_min_proximity(octahedron, antipode, pairs)
    assert report.empirical_max == 2


def test_check_min_proximity_translation():
    c = eplane.window((0, 0), 12)
    h = eplane.translation(2, 0)
    report = check_min_proximity(c, h, [((0, 0), (5, 1)), ((0, 0), (0, 0))])
    assert report.ok
    assert report.empirical_max == 2  # translations displace uniformly


def test_plane_isometry_needs_a_plane_window():
    # the glide sends the book vertex (3, 2, 4) to (3, 4), no vertex of the book
    book = samples.book_window(4, 7)
    assert GLIDE.apply((3, 2, 4)) not in book
    with pytest.raises(NotPlaneBacked, match="book-4:r7, which is not a plane window"):
        displacement_set(GLIDE, 3, book)
    with pytest.raises(NotPlaneBacked):
        min_set(GLIDE, book)
    with pytest.raises(NotPlaneBacked):
        check_min_proximity(book, GLIDE, [((0, 0, 0), (2, 0, 0))])
    with pytest.raises(NotPlaneBacked):
        displacement_set(eplane.translation(1, 0), 1, samples.flat_disk(3))


@pytest.mark.parametrize("window, missing", [
    (samples.flat_disk(2), "(0, -2) of flat-disk-2"),
    (samples.tree_with_branches(3), "('h', 0, 0) of tree-T:3"),
])
def test_table_needs_a_window_it_maps(window, missing):
    octahedron = samples.octahedron()
    antipode = TableAction.from_dict(octahedron, {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4})
    message = re.escape(f"table of octahedron has no image of vertex {missing}")
    with pytest.raises(PreconditionViolated, match=message):
        displacement_set(antipode, 2, window)
    with pytest.raises(PreconditionViolated, match=message):
        min_set(antipode, window)
    pair = sorted(window.vertices())[:2]
    with pytest.raises(PreconditionViolated, match=message):
        check_min_proximity(window, antipode, [tuple(pair)])


def test_check_min_proximity_rejects_non_minimal():
    c = eplane.window((0, 0), 12)
    with pytest.raises(PreconditionViolated):
        check_min_proximity(c, GLIDE, [((0, 0), (3, 0))])  # (3,0) not in Min


def test_invariant_geodesic_staircase():
    stair = invariant_geodesic_on_plane(eplane.translation(1, 1), (0, 0), 8)
    assert stair == ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3),
                     (4, 3), (4, 4))
    assert axis_line_max_distance_sq(stair, eplane.translation(1, 1), (0, 0)) \
        == Fraction(1, 4)


def test_assert_geodesic_checks_steps_and_ends():
    """Unit steps plus ends n apart: a U-turn, a detour and a jump are
    refused, a geodesic passes, and random walks get the all-pairs verdict
    of ``oracles.is_geodesic``."""
    _assert_geodesic(((0, 0), (1, 0), (1, 1), (2, 1), (2, 2)))
    _assert_geodesic(((0, 0),))
    for bad in (((0, 0), (1, 0), (0, 0)),
                ((0, 0), (1, 0), (1, 1), (0, 1)),
                ((0, 0), (1, 0), (3, 0))):
        with pytest.raises(PreconditionViolated, match="is not a geodesic at"):
            _assert_geodesic(bad)
    c = eplane.window((0, 0), 8)
    rng = random.Random(11)
    for _ in range(300):
        walk = [(0, 0)]
        for _ in range(rng.randint(1, 6)):
            walk.append(rng.choice(eplane.neighbors(walk[-1])))
        try:
            _assert_geodesic(walk)
            passed = True
        except PreconditionViolated:
            passed = False
        assert passed == oracles.is_geodesic(c, walk), walk


def test_invariant_geodesic_axis_line():
    line = invariant_geodesic_on_plane(eplane.translation(3, 0), (0, 0), 6)
    assert line == tuple((i, 0) for i in range(7))


def test_invariant_geodesic_h_invariance():
    h = eplane.translation(2, 1)
    gamma = invariant_geodesic_on_plane(h, (1, -1), 12)
    period = eplane.lattice_distance((0, 0), (2, 1))
    for i in range(len(gamma) - period):
        assert gamma[i + period] == h.apply(gamma[i])


def test_invariant_geodesic_rotation_equivariance():
    h = eplane.translation(1, 1)
    x = (0, 0)
    base = invariant_geodesic_on_plane(h, x, 8)
    for k in (1, 2, 3):
        r = eplane.rotation60(k)
        conj = r.compose(h).compose(r.inverse())
        mapped = invariant_geodesic_on_plane(conj, r(x), 8)
        assert mapped == tuple(r(v) for v in base)


def test_invariant_geodesic_rejects_non_translations():
    with pytest.raises(NotTranslationLike):
        invariant_geodesic_on_plane(eplane.glide(1, 1), (0, 0), 4)
    with pytest.raises(NotTranslationLike):
        invariant_geodesic_on_plane(eplane.identity(), (0, 0), 4)


def test_central_good_geodesic_translation_axis():
    c = eplane.window((0, 0), 14)
    h = eplane.translation(2, 0)
    axis = central_good_geodesic(c, h, (0, 0), 4)
    assert axis.K == 2
    assert all(v[1] == 0 for v in axis.vertices)
    assert (0, 0) in axis.vertices


def test_central_good_geodesic_base_case():
    c = eplane.window((0, 0), 10)
    h = eplane.translation(2, 0)
    axis = central_good_geodesic(c, h, (0, 0), 1)
    assert axis.truncation == 1
    assert axis.vertices == tuple((i, 0) for i in range(-2, 3))


def test_central_good_geodesic_glide():
    c = eplane.window((0, 0), 16)
    axis = central_good_geodesic(c, GLIDE, (0, 0), 3)
    assert axis.K <= 24
    assert all(abs(v[0] - v[1]) <= 1 for v in axis.vertices)
    assert oracles.is_geodesic(c, axis.vertices)


def test_central_good_geodesic_stride():
    # endpoint distances on the plane are always even (h^{2m} is a
    # translation); the stride knob still thins the truncation family
    c = eplane.window((0, 0), 12)
    h = eplane.translation(1, 0)
    axis = central_good_geodesic(c, h, (0, 0), 2, stride=2)
    assert axis.K == 1
    assert axis.stride == 2
    assert axis.vertices == tuple((i, 0) for i in range(-4, 5))


def test_convergence_diagnostic_on_axis():
    c = eplane.window((0, 0), 14)
    h = eplane.translation(2, 0)
    axis = central_good_geodesic(c, h, (0, 0), 4)
    report = convergence_diagnostic(c, h, (0, 0), axis, 4)
    assert report.distances == (0, 0, 0, 0)
    assert report.ok


def test_convergence_diagnostic_off_axis():
    c = eplane.window((0, 0), 14)
    h = eplane.translation(2, 0)
    axis = central_good_geodesic(c, h, (0, 0), 4)
    report = convergence_diagnostic(c, h, (0, 3), axis, 3)
    assert all(d <= 3 for d in report.distances)
    assert report.ok


def test_convergence_diagnostic_glide():
    c = eplane.window((0, 0), 16)
    axis = central_good_geodesic(c, GLIDE, (0, 0), 3)
    report = convergence_diagnostic(c, GLIDE, (0, 2), axis, 3)
    assert report.ok
    assert max(report.distances) <= 2  # regression anchor


def test_table_translation_length_and_sets():
    octa = samples.octahedron()
    antipodal = TableAction.from_dict(octa, {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4})
    assert translation_length(antipodal) == 2
    mset = min_set(antipodal, octa)
    assert mset.K == 2 and mset.vertices == frozenset(range(6))
    assert antipodal.power(2).apply(3) == 3
    assert antipodal.power(-1).apply(0) == 1


def test_parse_permutation():
    mapping = parse_permutation_text("perm v1\n0 -> 1\n1 -> 0\n# note\n2 -> 2\n")
    assert mapping == {0: 1, 1: 0, 2: 2}
    from syslab.errors import ScenarioParseError
    with pytest.raises(ScenarioParseError):
        parse_permutation_text("0 -> 1\n")
    with pytest.raises(ScenarioParseError):
        parse_permutation_text("perm v1\n0 -> 1\n0 -> 2\n")


def test_axis_distance_matches_q_sqrt3_oracle():
    """(3/4) * axial cross^2 / |axis|^2 equals the Q[sqrt(3)] squared distance."""
    for shift, origin, length in (((1, 1), (0, 0), 12), ((2, 1), (1, -1), 15),
                                  ((3, -1), (-2, 2), 12), ((0, 4), (0, 0), 8)):
        h = eplane.translation(*shift)
        gamma = invariant_geodesic_on_plane(h, origin, length)
        base = oracles.exact_point(eplane.embed(origin))
        axis = oracles.exact_point(eplane.embed(h.apply(origin))) - base
        best = None
        for v in gamma:
            off = oracles.cross(axis, oracles.exact_point(eplane.embed(v)) - base)
            val = off * off / oracles.dot(axis, axis)
            if best is None or val > best:
                best = val
        assert axis_line_max_distance_sq(gamma, h, origin) == best


def test_invariant_geodesic_agrees_with_power_oracle():
    """Reading h^q(v) as v + q * shift against composing h.power(q): every
    nonzero shift in [-4, 4]^2, every length 0..60, three origins. The
    oracle's walk at length L is the first L + 1 vertices of its walk at
    length 60, and a prefix passes its checks when the whole walk does, so
    it runs at 60 once per map and origin, and at 0, 1 and 17 directly."""
    compared = 0
    for x in ((0, 0), (3, -2), (-7, 5)):
        for shift in ((a, b) for a in range(-4, 5) for b in range(-4, 5)):
            if shift == (0, 0):
                continue
            h = eplane.translation(*shift)
            want = oracles.power_invariant_geodesic(h, x, 60)
            for length in range(61):
                got = invariant_geodesic_on_plane(h, x, length)
                assert got == want[:length + 1], (x, shift, length)
                if length in (0, 1, 17):
                    assert got == oracles.power_invariant_geodesic(h, x, length)
                compared += 1
    assert compared == 3 * 80 * 61
