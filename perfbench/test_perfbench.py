"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from syslab import cat0, eplane, euclid, exact, runner  # noqa: E402


class SmallPlane(workloads.PlaneGoodness):
    """The plane workload at the one length short enough for a test."""

    RADIUS = 10
    LENGTHS = (8,)


class CorruptedPlane(SmallPlane):
    """Reports an impossible goodness constant for the lattice-line pair."""

    def run(self, c, item):
        path, c_star = super().run(c, item)
        return (path, 99) if item.stratum == "n8:q0" else (path, c_star)


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_wrappers_leave_the_library_as_they_found_it():
    before = tracing.binding_snapshot()
    original_layers = euclid.layers
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert euclid.layers is not original_layers
        assert cat0.orient is exact.orient          # one wrapper per function
        assert runner.euclidean_geodesic is euclid.euclidean_geodesic
        window = eplane.window((0, 0), 2)
        assert window.metric_hint is eplane.lattice_distance
        window.true_distance((0, 0), (1, 1))
        assert tracer.calls("eplane.lattice_distance") == 1
    finally:
        tracer.restore()
    assert tracing.binding_snapshot() == before
    assert euclid.layers is original_layers


def test_traced_counts_repeat_across_processes():
    """Two traced runs at one seed, under different hash seeds, count the same."""
    counts = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "scenarios",
             "--seed", "3", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed})
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"]
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "share", "edges")})
    assert counts[0] == counts[1]
    assert counts[0]["euclid.goodness_constant.calls"] > 0


def test_traced_run_reports_every_per_layer_metric():
    records, metrics, _, _ = run.traced(SmallPlane(), 5)
    assert all(r.error is None for r in records)
    assert sorted(metrics) == sorted(m["name"] for m in _benchmark_spec()["per_layer"])
    assert metrics["euclid.goodness_constant.calls"][0] == 4


def test_end_to_end_run_reports_every_end_to_end_metric():
    records, metrics, _ = run.end_to_end(SmallPlane(), 5, 0)
    assert all(r.error is None for r in records)
    assert sorted(metrics) == sorted(m["name"] for m in _benchmark_spec()["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


def test_corrupted_output_fails_its_check():
    records, _, _ = run.end_to_end(CorruptedPlane(), 5, 0)
    failed = [r for r in records if r.error is not None]
    assert len(failed) == 1 and "c_star 99" in failed[0].error
    assert len(records) == 4

    book = workloads.BookMetric()
    state = {"c": None}
    ball = workloads.Item("convexity", "r2:spine", ((0, 0, 0), 2, ()))
    assert book.check(state, ball, False) is not None

    scenarios = workloads.Scenarios()
    state = scenarios.setup(0)
    item = workloads.Item("scenario", "tree-extend", ("tree-extend", None))
    report, code = scenarios.run(state, item)
    assert scenarios.check(state, item, (report, code)) is None
    report["tasks"][0]["outputs"]["control_max_E"] += 1
    assert "digest" in scenarios.check(state, item, (report, code))


def test_another_seed_changes_inputs_and_every_check_passes():
    for wl in (SmallPlane(), workloads.BookMetric()):
        a, b = wl.setup(1), wl.setup(2)
        items_a, items_b = wl.items(a, 0), wl.items(b, 0)
        assert [i.args for i in items_a] != [i.args for i in items_b]
        assert sorted(i.stratum for i in items_a) == sorted(i.stratum for i in items_b)
        assert wl.items(wl.setup(1), 0) == items_a
    wl = SmallPlane()
    state = wl.setup(2)
    for item in wl.items(state, 0) + wl.items(state, 1):
        assert run.run_item(wl, state, item, 0).error is None
    scenarios = workloads.Scenarios()
    state = scenarios.setup(7)
    for item in scenarios.items(state, 0) + scenarios.verification_items(state):
        assert run.run_item(scenarios, state, item, 0).error is None
