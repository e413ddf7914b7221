"""The syslab benchmark.

    python3 perfbench/run.py --workload plane-goodness --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own process as a single-threaded closed loop with
one caller: the next item starts when the previous one has returned. Inputs
come from the seed (see ``workloads.py``); the library sees only them.

``--trace 0`` sets the workload up five times (``setup_s`` is the median),
then runs items until ``--seconds`` have passed, never stopping before the
first pass is complete, and reports the end-to-end metrics. Just before and
just after every item it times a fixed piece of work of the item's kind
(``REFERENCES``: a search in plain Python, or an array operation in numpy).
``item_cost`` is the mean over strata of the median of item time over the
mean of those two reference times: the cost of the work in units of what
the machine does in the same moments. It cancels most of the swings in
speed of a shared machine, which move raw times by a third from one run to
the next; the raw times are printed as well.

``--trace 1`` runs the first pass untraced, then installs the wrappers of
``tracing.py``, sets up again and runs the same pass traced, and reports the
per-layer metrics; its counts repeat exactly for a seed. Both kinds of run
check every output, print a digest of the first pass's outputs, write a
result file (and the spans) under ``perfbench/out/``, and end with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("plane-goodness", "book-metric", "scenarios")


def _import_library():
    if not (SRC / "syslab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no syslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import syslab.cli  # noqa: F401  (imports every library module)
    if Path(syslab.cli.__file__).resolve().parent != (SRC / "syslab").resolve():
        sys.exit("perfbench: syslab was imported from outside this checkout")


# -- run metadata -----------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {"seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "commit": git_commit(), "src_lines": src_lines}


# -- running items ----------------------------------------------------------------


class Record:
    __slots__ = ("pass_no", "item", "seconds", "output", "error", "reference")

    def __init__(self, pass_no, item, seconds, output, error, reference=None):
        self.pass_no, self.item, self.seconds = pass_no, item, seconds
        self.output, self.error, self.reference = output, error, reference


_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
_TABLE = np.arange(60 * 900, dtype=np.int32).reshape(60, 900) % 13


def python_reference(radius: int = 16) -> float:
    """Time of a fixed breadth-first search in plain Python, about 2 ms.

    Run next to a timed item, it reads the speed of the machine at that
    moment for interpreter work on tuples, dicts and a deque like the
    library's, and runs no library code.
    """
    t0 = time.perf_counter()
    dist = {(0, 0): 0}
    queue = deque([(0, 0)])
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        for da, db in _STEPS:
            u = (v[0] + da, v[1] + db)
            if u not in dist and abs(u[0]) <= radius and abs(u[1]) <= radius:
                dist[u] = d
                queue.append(u)
    return time.perf_counter() - t0


def numpy_reference() -> float:
    """Time of a fixed 13 MB broadcast sum and compare in numpy, about 3 ms.

    The same kind of array work as ``complexes.is_convex``, whose speed
    moves with the machine differently from interpreter work.
    """
    t0 = time.perf_counter()
    ((_TABLE[:, None, :] + _TABLE[None, :, :]) == 7).any(axis=(0, 1))
    return time.perf_counter() - t0


REFERENCES = {"python": python_reference, "numpy": numpy_reference}


def run_item(wl, state, item, pass_no, tracer=None) -> Record:
    """Prepare one item untimed, time it, then check its output untraced."""
    t0 = time.perf_counter()
    try:
        ctx = wl.prepare(state, item)
        reference = REFERENCES[item.reference]
        before = reference()
        t0 = time.perf_counter()
        output = wl.run(ctx, item)
    except Exception:   # the loop keeps going; the failure is counted and kept
        return Record(pass_no, item, time.perf_counter() - t0, None,
                      traceback.format_exc(limit=4))
    seconds = time.perf_counter() - t0
    reference = (before + reference()) / 2
    if tracer is not None:
        tracer.active = False
    try:
        error = wl.check(ctx, item, output)
    finally:
        if tracer is not None:
            tracer.active = True
    return Record(pass_no, item, seconds, output, error, reference)


def timed_phase(wl, state, seconds: float):
    """Run passes until `seconds` have passed, finishing at least the first pass."""
    records = []
    deadline = time.perf_counter() + seconds
    p = 0
    while True:
        for item in wl.items(state, p):
            if p > 0 and time.perf_counter() >= deadline:
                return records
            records.append(run_item(wl, state, item, p))
        if time.perf_counter() >= deadline:
            return records
        p += 1


def stratum_medians(records, value) -> dict:
    """Median of value(record) over the passing items of each stratum.

    The items of a stratum do the same work, so their median leaves out
    the slow spells a shared machine has now and then.
    """
    cells = {}
    for r in records:
        if r.error is None:
            cells.setdefault((r.item.group, r.item.stratum), []).append(value(r))
    return {key: statistics.median(v) for key, v in cells.items()}


def by_group(medians) -> dict:
    """Mean over each group's strata of the stratum medians."""
    groups = {}
    for (group, _), m in medians.items():
        groups.setdefault(group, []).append(m)
    return {g: statistics.fmean(v) for g, v in groups.items()}


def outputs_digest(wl, records) -> str:
    """Digest of the outputs of the first pass, the same for every run of a seed."""
    from workloads import digest
    return digest([wl.canonical(r.item, r.output) for r in records
                   if r.pass_no == 0 and r.error is None])


def verification(wl, state):
    """The workload's untimed, untraced extra checks, if it has any."""
    items = wl.verification_items(state) if hasattr(wl, "verification_items") else []
    return [run_item(wl, state, item, "verify") for item in items]


# -- the two kinds of run ---------------------------------------------------------------


def end_to_end(wl, seed: int, seconds: float):
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    records = timed_phase(wl, state, seconds)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = stratum_medians(records, lambda r: r.seconds)
    cost = stratum_medians(records, lambda r: r.seconds / r.reference)
    metrics = {
        "item_cost": (statistics.fmean(cost.values()), "ref"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    passes = {}
    for r in records:
        passes.setdefault(r.pass_no, []).append(r)
    n_items = len(passes[0])
    complete = [sum(r.seconds for r in rs) for rs in passes.values()
                if len(rs) == n_items and all(r.error is None for r in rs)]
    reference_s = statistics.median(r.reference for r in records if r.error is None)
    extra = {"item_ms": (1000 * statistics.fmean(raw.values()), "ms"),
             "reference_ms": (1000 * reference_s, "ms"),
             "wall_s": (wall_s, "s"),
             wl.pass_metric: (statistics.median(complete) if complete else float("nan"), "s"),
             "passes_complete": (len(complete), "count"),
             "items_timed": (len(records), "count")}
    group_cost = by_group(cost)
    for group, mean_s in sorted(by_group(raw).items()):
        name, unit = wl.group_metric(group)
        extra[name] = (1 / mean_s, unit)
        extra[f"item_cost.{group}"] = (group_cost[group], "ref")
    return records + verification(wl, state), metrics, extra


def traced(wl, seed: int):
    from tracing import Tracer
    state = wl.setup(seed)
    untraced = [run_item(wl, state, item, 0) for item in wl.items(state, 0)]
    state = None
    tracer = Tracer()
    tracer.install()
    try:
        state = wl.setup(seed)
        records = []
        for index, item in enumerate(wl.items(state, 0)):
            tracer.item = index
            records.append(run_item(wl, state, item, 0, tracer))
    finally:
        tracer.restore()
    records += verification(wl, state)
    if outputs_digest(wl, untraced) != outputs_digest(wl, records):
        records.append(Record("verify", None, 0.0, None,
                              "traced outputs differ from untraced outputs"))
    overhead = (sum(r.seconds for r in records if r.pass_no == 0)
                / sum(r.seconds for r in untraced) - 1)
    for r in untraced:
        r.pass_no = "untraced"
    metrics, extra = layer_metrics(tracer, overhead)
    return untraced + records, metrics, extra, tracer


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(t, overhead):
    """Per-layer metrics named in BENCHMARK.json, plus workload-specific extras.

    A self time goes into the JSON result only for layers every workload
    runs, so that no reported time is zero by construction; the others, and
    the degenerate share of modified disks, which is 0 on every workload,
    are printed and written to the result file.
    """
    k = t.counters
    m = {}
    for key, name in (("exact.orient", "exact.orient.calls"),
                      ("exact.ExactScalar.__init__", "exact.scalars_built")):
        m[name] = (t.calls(key), "count")
    m["exact.self_s"] = (t.module_totals("exact")[1], "s")
    for fn in ("modified_disk", "shortest_path", "euclidean_diagonal"):
        m[f"cat0.{fn}.calls"] = (t.calls(f"cat0.{fn}"), "count")
        m[f"cat0.{fn}.self_s"] = (t.self_s(f"cat0.{fn}"), "s")
    m["cat0.polygon_corners"] = (k["polygon_corners"], "count")
    for fn in ("euclidean_geodesic", "goodness_constant"):
        m[f"euclid.{fn}.calls"] = (t.calls(f"euclid.{fn}"), "count")
        m[f"euclid.{fn}.self_s"] = (t.self_s(f"euclid.{fn}"), "s")
    m["euclid.select_vertex_geodesic.self_s"] = (t.self_s("euclid.select_vertex_geodesic"), "s")
    m["euclid.repeat_diff_share"] = (_share(k["repeated_diffs"], k["plane_geodesics"]), "share")
    m["euclid.thick_share"] = (_share(k["thick_geodesics"], k["geodesics"]), "share")
    m["euclid.mean_n"] = (_share(k["geodesic_n_total"], k["geodesics"]), "edges")
    m["complexes.true_distance.calls"] = (t.calls("complexes.FlagComplex.true_distance"), "count")
    m["complexes.true_distance.self_s"] = (t.self_s("complexes.FlagComplex.true_distance"), "s")
    m["complexes.bfs_runs"] = (k["bfs_runs"], "count")
    m["complexes.bfs_distances.self_s"] = (t.self_s("complexes.FlagComplex.bfs_distances"), "s")
    m["complexes.is_convex.calls"] = (t.calls("complexes.is_convex"), "count")
    m["complexes.materialize_window.self_s"] = (t.self_s("complexes.materialize_window"), "s")
    for fn in ("require_pair_safe", "directed_geodesic", "layers"):
        m[f"directed.{fn}.calls"] = (t.calls(f"directed.{fn}"), "count")
        m[f"directed.{fn}.self_s"] = (t.self_s(f"directed.{fn}"), "s")
    for fn in ("boundary_cycle", "extract_flat_disk", "characteristic_map"):
        m[f"chardisk.{fn}.calls"] = (t.calls(f"chardisk.{fn}"), "count")
        m[f"chardisk.{fn}.self_s"] = (t.self_s(f"chardisk.{fn}"), "s")
    calls, self_s = t.module_totals("eplane")
    m["eplane.calls"] = (calls, "count")
    m["eplane.self_s"] = (self_s, "s")
    m["isodyn.translation_length.calls"] = (t.calls("isodyn.translation_length"), "count")
    m["scenario.complex_builds"] = (t.calls("scenario.Scenario.complex"), "count")
    m["trace_overhead"] = (overhead, "ratio")

    extra = {
        "complexes.is_convex.self_s": (t.self_s("complexes.is_convex"), "s"),
        "complexes.distance_matrix.self_s":
            (t.self_s("complexes.FlagComplex.distance_matrix"), "s"),
        "euclid.verify_contracting.self_s": (t.self_s("euclid.verify_contracting"), "s"),
        "isodyn.translation_length.self_s": (t.self_s("isodyn.translation_length"), "s"),
        "scenario.load_scenario.self_s": (t.self_s("scenario.load_scenario"), "s"),
        "runner.run_scenario.self_s": (t.self_s("runner.run_scenario"), "s"),
        "samples.book_window.self_s": (t.self_s("samples.book_window"), "s"),
        "treestudy.self_s": (t.module_totals("treestudy")[1], "s"),
        "render.render_pipeline_svg.self_s": (t.self_s("render.render_pipeline_svg"), "s"),
        "euclid.repeat_diff_count": (f"{k['repeated_diffs']}/{k['plane_geodesics']}", ""),
        "euclid.thick_count": (f"{k['thick_geodesics']}/{k['geodesics']}", ""),
        "cat0.degenerate_share": (_share(k["degenerate_disks"], k["modified_disks"]), "share"),
        "cat0.degenerate_count": (f"{k['degenerate_disks']}/{k['modified_disks']}", ""),
    }
    for fn in ("min_set", "displacement_set", "check_min_proximity",
               "invariant_geodesic_on_plane"):
        extra[f"isodyn.{fn}.self_s"] = (t.self_s(f"isodyn.{fn}"), "s")
    for name, seconds in sorted(t.scenario_s.items()):
        extra[f"runner.scenario_s.{name}"] = (seconds, "s")
    for n, (calls, seconds) in sorted(t.goodness_ms_by_n.items()):
        extra[f"euclid.goodness_constant.ms.n{n}"] = (1000 * seconds / calls, "ms")
    return m, extra


# -- output ------------------------------------------------------------------------------


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def write_spans(path: Path, tracer):
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"columns": ["name", "start_s", "end_s", "span", "parent",
                                         "item"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
        fh.write(json.dumps({"totals": {key: {"calls": n, "self_s": s, "total_s": tot}
                                        for key, (n, s, tot) in sorted(tracer.stats.items())
                                        if n}}) + "\n")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    meta = metadata(seed)
    print(f"perfbench {name} seed={seed} trace={int(trace)}  "
          + " ".join(f"{k}={v}" for k, v in meta.items() if k != "seed"))
    tracer = None
    if trace:
        records, metrics, extra, tracer = traced(wl, seed)
    else:
        records, metrics, extra = end_to_end(wl, seed, seconds)
    failures = [r for r in records if r.error is not None]
    attempted = len(records)
    extra["failed_ratio"] = (len(failures) / attempted, "ratio")
    extra["outputs_digest.pass0"] = (outputs_digest(wl, records), "sha256")

    for metric, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"  {metric:<40} {_fmt(value):>14} {unit}")
    for r in failures[:5]:
        print(f"  FAILED {r.item}: {r.error.strip().splitlines()[-1]}")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    result = {"workload": name, "meta": meta, "seconds": seconds,
              "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "failures": [{"item": repr(r.item), "error": r.error} for r in failures],
              "items": [[r.pass_no, r.item.group, r.item.stratum, r.seconds, r.reference]
                        for r in records if r.item is not None]}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        write_spans(OUT / f"{stem}.spans.jsonl", tracer)

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
