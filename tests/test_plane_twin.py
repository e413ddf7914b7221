"""Every plane fast path against the generic path on the same lattice ball.

``materialize_window(c0, eplane.neighbors, r, convex=True)`` is the BFS twin
of ``eplane.window(c0, r)``: the same vertices, edges and margins, but not
plane-backed, so every construction on it takes the generic path: the level
scan of the margin rule, BFS levels, the projection with its full
postcondition, the area disk path, and no translation memo. Each pair runs
through ``euclidean_geodesic`` (with its reversal check),
``select_vertex_geodesic`` and ``goodness_constant`` on both windows, and
everything they return must be equal. Refusals compare by exception type
only: the plane margin rule names the first failing corner of the interval
box, the scan the least unsafe vertex of the first unsafe level."""

import random
from pathlib import Path
from unittest import mock

from syslab import directed, eplane, euclid, runner
from syslab.complexes import materialize_window
from syslab.errors import SyslabError
from syslab.scenario import Scenario, load_scenario

from test_plane_paths import CRITERION_10

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def _twins(center, radius):
    plane = eplane.window(center, radius)
    twin = materialize_window(center, eplane.neighbors, radius, convex=True)
    assert not twin.plane_backed and twin.translation_memo is None
    return plane, twin


def _outcome(c, x, y):
    """The Euclidean simplices, thickness profile, selected geodesic and
    goodness report of (x, y), or the type of the library error raised."""
    try:
        geo = euclid.euclidean_geodesic(c, x, y)
        path = euclid.select_vertex_geodesic(geo)
        report = euclid.goodness_constant(c, path)
    except SyslabError as exc:
        return type(exc).__name__
    return (geo.simplices, geo.layers.thickness_profile(), path,
            (report.c_star, report.witness, report.pairs_examined))


def _agree(plane, twin, x, y):
    """Runs the pair on both windows; whether it was refused."""
    with mock.patch.object(directed, "_project", wraps=directed._project) as projected:
        fast = _outcome(plane, x, y)
    assert not projected.called, (x, y)
    assert fast == _outcome(twin, x, y), (x, y)
    return isinstance(fast, str)


def test_twin_agrees_on_pairs_within_8_of_two_centres():
    """Every pair (z, y) with 1 <= d(z, y) <= 8 for the window's centre and
    an off-centre z whose far pairs reach the rim or leave the window."""
    plane, twin = _twins((0, 0), 10)
    for z, want_refused in (((0, 0), False), ((3, -2), True)):
        pairs = refused = 0
        for y in sorted(plane.vertices()):
            if 1 <= eplane.lattice_distance(z, y) <= 8:
                refused += _agree(plane, twin, z, y)
                pairs += 1
        assert pairs >= 200 and (refused > 0) == want_refused, (z, pairs, refused)


def test_twin_agrees_on_criterion_10_pairs():
    plane, twin = _twins((0, 0), 9)
    for p, q in CRITERION_10:
        assert not _agree(plane, twin, (-(p // 2), -(q // 2)), (p - p // 2, q - q // 2))


def test_twin_agrees_on_rim_pairs():
    """Seeded pairs whose interval box has a corner within one step of the
    rim: some the margin rule refuses, some it passes at margin 1."""
    plane, twin = _twins((2, -1), 10)
    verts = sorted(plane.vertices())
    rng = random.Random(16)
    built = refused = 0
    while built < 15 or refused < 15:
        x, y = rng.choice(verts), rng.choice(verts)
        if not 2 <= eplane.lattice_distance(x, y) <= 8:
            continue
        if max(eplane.lattice_distance((2, -1), v) for v in eplane.interval_corners(x, y)) < 9:
            continue
        if _agree(plane, twin, x, y):
            refused += 1
        else:
            built += 1


def _reports(scenario, tmp_path):
    """The scenario's report on its plane windows and on their BFS twins,
    without wall-clock fields. The plane windows never project; the twins
    do."""
    twins = []

    def twin(self, name):
        values = self.complexes[name].values
        twins.append(materialize_window(values["center"], eplane.neighbors,
                                        values["radius"], convex=True))
        return twins[-1]

    with mock.patch.object(directed, "_project", wraps=directed._project) as projected:
        plane, code = runner.run_scenario(scenario, tmp_path)
        with mock.patch.object(Scenario, "complex", twin):
            bfs, _ = runner.run_scenario(scenario, tmp_path)
    on = [call.args[0] for call in projected.call_args_list]
    assert code == 0 and not any(c.plane_backed for c in on)
    assert twins and all(any(c is t for c in on) for t in twins)
    for report in (plane, bfs):
        for task in report["tasks"]:
            task.pop("wall_clock_s")
    return plane, bfs


def test_twin_runs_the_bundled_pipeline_task(tmp_path):
    scenario = load_scenario(SCENARIOS / "pipeline-42.scn")
    scenario.tasks = [t for t in scenario.tasks if t.kind == "geodesic-pipeline"]
    plane, bfs = _reports(scenario, tmp_path)
    assert plane == bfs


def test_twin_runs_the_bundled_goodness_sweep(tmp_path):
    """The goodness sweep draws the same pairs on both windows: the plane
    window's distance prefilter rejects no pair the margin rule would pass."""
    scenario = load_scenario(SCENARIOS / "goodness.scn")
    (task,) = scenario.tasks
    task.values.pop("staircase_map")
    plane, bfs = _reports(scenario, tmp_path)
    assert plane == bfs
