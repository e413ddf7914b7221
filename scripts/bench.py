#!/usr/bin/env python3
"""Benchmark a base commit against this checkout and write BENCH_<pr>.json.

    python3 scripts/bench.py --pr 6
    python3 scripts/bench.py --pr 6 --base HEAD~1

The base commit's files are exported with ``git archive`` into
``.bench_build/<sha>/`` (gitignored), and this checkout's ``perfbench/`` is
copied over the export's, so both sides run the same harness, each on its
own ``src/``. With the default base ``HEAD`` the comparison is the
uncommitted change against its parent; once the change is committed, name
its parent with ``--base``. Every run lasts ``run_seconds`` of
``BENCHMARK.json``.

The file holds:

- ``gated``: for each workload and gated metric of ``BENCHMARK.json``, every
  run of both sides, their medians and quartiles, and for ``item_cost`` the
  number of pairs the change won. Pair i of ``PAIRS`` runs at seed
  ``FIRST_SEED`` + i, every
  workload in a fresh process, base first on even pairs and change first
  on odd ones. Failed items and whether the pass-0 output digests of the
  two sides matched are kept per pair.
- ``traced``: the per-layer metrics of one traced run (``--trace 1``) per
  side and workload at seed 1; the counts repeat exactly for a seed.

The five curves below run in ``CURVE_PROCESSES`` fresh processes per side,
base first in even rounds and change first in odd ones. Each number a
process measures is stored as the median and quartiles of its values over
the processes, with the values themselves (``runs``); a count such as
``ball_size`` and each ``pair`` is the first process's.

- ``goodness_curve``: seconds per ``goodness_constant`` call on one selected
  geodesic at n = 8, 16, 24, 32, 64 (median of ``REPEATS`` within a process),
  and the seconds spent in each pipeline stage of ``STAGES`` (``stages``),
  timed in a separate call by a wrapper around each stage function. A stage
  names candidate functions in order and wraps the first one the side has;
  a stage whose candidates a side lacks is left out of that side.
  ``projection`` is the first of ``directed._plane_chain`` (the certified
  closed-form tuples of the one-pass plane construction) and
  ``directed._project`` that the side has;
  ``thickness`` is ``directed._layer_segments`` (the pass's segment scan)
  or ``directed._thickness``; ``straight_diagonal`` is the plane's
  thick-interval path, ``cat0._straight_segment``, where it exists.
  ``cat0_seconds`` and ``cat0_share`` sum the CAT(0) stages a side has
  (modified disk, shortest path, diagonal, straight diagonal);
  ``staged_seconds`` is the whole wrapped call, wrappers included.
  ``memo_misses`` is the number of constructions a call makes, one per
  distinct difference (``len(c.translation_memo)``); ``miss_seconds`` is
  the time spent in them and ``rest_seconds`` the rest of the call, mostly
  its distance loop, timed in a third call with only the memo-miss
  construction wrapped: ``miss_construction`` names it, the first of
  ``euclid._plane_simplices`` (the lattice tuples a miss stores) and
  ``euclid.euclidean_geodesic`` that the side has.
- ``construction_curve``: seconds and ``ref`` per ``euclidean_geodesic``
  call without the reversal check on the same pair family at n = 8, 16,
  24 (the lengths of perfbench's plane-goodness workload) and 32, 64,
  128, sampled as below on one radius n/2 + 2 window per length, built
  untimed (a plane construction stores nothing in its window, so every
  call builds the whole geodesic), and ``ratio_128_32`` = ref(128) /
  ref(32): about 4 when a construction costs O(n), about 16 when it costs
  the interval's area. Not gated.
- ``convexity_curve``: seconds per ``is_convex`` call on the ball of
  radius r = 2, 4, 6, 8 around the spine vertex (0, 0, 0) of
  ``book_window(4, 12)``, and ``ratio_8_2`` = t(8) / t(2), read from
  ``ref``. Both are sampled as below. The ball grows with r, so the curve
  shows how a kernel scales with |A|, which the book-metric workload's
  balls of radius 2-6 cannot. Not gated.
- ``book_goodness_curve``: seconds and ``ref`` per ``goodness_constant``
  call on the selected geodesics of ``BOOK_GOODNESS_PAIRS`` seeded pairs at
  each distance of ``BOOK_GOODNESS_WINDOWS``: n = 4, 8, 12 of
  ``book_window(4, 12)`` and n = 16, 20 of ``book_window(3, 22)``
  (``window`` gives pages and radius), windows without a closed-form
  metric, where every distance is a search. On a side whose complexes
  share search rows within a call, one more call per pair inside an
  enclosing scope reads the vertices those rows settled
  (``rows_settled``); on a side that also keeps the per-call link, ball
  and disk caches, it reads how many common-neighbour sets
  (``links_computed``), closed balls (``balls_computed``) and flat disk
  developments (``disks_computed``) the call computed, and how many
  further requests read one already computed (``links_reused`` and so
  on), one number per pair. Not gated; unlike perfbench's
  ``complexes.bfs_runs``, which counts every off-plane ``true_distance``
  call as a search, it reads what the caches did.
- ``scenario_curve``: seconds and ``ref`` per ``runner.run_scenario`` of
  each bundled scenario file of the side (``scenarios/*.scn``) at the
  file's own seed, the run ``syslab run`` makes, reports written to a
  temporary directory. A file whose run does not pass stops the worker.
  The scenarios workload of perfbench times the files together; this
  curve gives each its own wall time, and ``tasks`` gives each task of
  the file, by name with its kind, the median ``wall_clock_s`` its reports
  recorded over every run the process made. Not gated.

``construction_curve`` and the last three curves are sampled alike. Each
sample times a loop of ``calls`` calls, doubled from 1 until one loop
lasts at least ``SAMPLE_S``, after a garbage collection, and ``seconds``
is the median of ``SAMPLE_REPEATS`` samples divided by ``calls``; a
single sub-millisecond call is too short to time on a shared machine.
``ref`` is the median of the same samples, each divided by the mean of
``perfbench/run.py``'s ``python_reference`` timed just before and just
after it, as ``item_cost`` is: the machine's speed moves from one process
to the next, and the ratio cancels it.
- ``src_lines``: lines of ``src/syslab/*.py`` on each side.
- ``tier1``: wall seconds of one run of the Tier-1 suite (``pytest -q`` over
  ``tests/``) on each side, with pytest's closing summary line.
- ``acceptance``: the same for one run of ``tests/test_acceptance.py`` alone.
- ``startup``: wall seconds of a fresh ``python -c "import syslab.cli"``
  process on each side, interpreter start included (median of
  ``STARTUP_REPEATS``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
PAIRS = 10
FIRST_SEED = 401
REPEATS = 3
CURVE_PROCESSES = 5
CURVE_LENGTHS = (8, 16, 24, 32, 64)
CONSTRUCTION_LENGTHS = (8, 16, 24, 32, 64, 128)
CONVEXITY_RADII = (2, 4, 6, 8)
# (pages, radius) of a book window, its path lengths, and the seed of its pairs
BOOK_GOODNESS_WINDOWS = (((4, 12), (4, 8, 12), "book-goodness"),
                         ((3, 22), (16, 20), "book-goodness:3:22"))
BOOK_GOODNESS_PAIRS = 4
SAMPLE_REPEATS = 5
SAMPLE_S = 0.02
# stage name -> (module, candidate functions, first found wins); the stages
# do not call one another
STAGES = {
    "levels": ("directed", "_safe_levels"),
    "projection": ("directed", "_plane_chain", "_project"),
    "thickness": ("directed", "_layer_segments", "_thickness"),
    "boundary_cycle": ("chardisk", "boundary_cycle"),
    "flat_disk": ("chardisk", "extract_flat_disk"),
    "modified_disk": ("cat0", "modified_disk"),
    "shortest_path": ("cat0", "shortest_path"),
    "diagonal": ("cat0", "euclidean_diagonal"),
    "characteristic_map": ("chardisk", "characteristic_map"),
    "straight_diagonal": ("cat0", "_straight_segment"),
}
CAT0_STAGES = ("modified_disk", "shortest_path", "diagonal", "straight_diagonal")
# what a translation-memo miss of goodness_constant constructs, first found wins
MISS_CONSTRUCTIONS = ("_plane_simplices", "euclidean_geodesic")
STARTUP_REPEATS = 5


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_base(rev: str) -> Path:
    """The files of commit `rev` under .bench_build/<sha>/, with this
    checkout's perfbench/ in place of its own."""
    sha = git("rev-parse", rev)
    tree = BUILD / sha
    if not (tree / "src").is_dir():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    shutil.rmtree(tree / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    return tree


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} ({workload}, seed {seed}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(result.read_text(encoding="utf-8"))


def summary(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def gated(sides: dict, workloads, metrics, seconds: float) -> dict:
    runs = {w: {side: [] for side in sides} for w in workloads}
    for i in range(PAIRS):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for w in workloads:
            for side in order:
                res = run_perfbench(sides[side], w, FIRST_SEED + i, seconds, 0)
                runs[w][side].append(res)
                print(f"pair {i} {w:<15} {side:<6} item_cost "
                      f"{res['metrics']['item_cost']['value']:.4g}", flush=True)
    out = {}
    for w in workloads:
        base, change = runs[w]["base"], runs[w]["change"]
        entry = {"seeds": [FIRST_SEED + i for i in range(PAIRS)]}
        for m in metrics:
            b = [r["metrics"][m]["value"] for r in base]
            c = [r["metrics"][m]["value"] for r in change]
            entry[m] = {"unit": base[0]["metrics"][m]["unit"],
                        "base": summary(b), "change": summary(c)}
        cost = entry["item_cost"]
        cost["change_wins"] = sum(c < b for b, c in zip(cost["base"]["runs"],
                                                       cost["change"]["runs"]))
        entry["failed"] = {side: [r["failed"] for r in runs[w][side]] for side in sides}
        entry["digests_match"] = [
            b["extra"]["outputs_digest.pass0"]["value"]
            == c["extra"]["outputs_digest.pass0"]["value"] for b, c in zip(base, change)]
        out[w] = entry
    return out


def traced(sides: dict, workloads) -> dict:
    return {w: {side: run_perfbench(tree, w, 1, 0, 1)["metrics"]
                for side, tree in sides.items()} for w in workloads}


def side_env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def curve(tree: Path, worker: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), worker],
        env=side_env(tree), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def curves(sides: dict, worker: str) -> dict:
    """One curve worker in CURVE_PROCESSES fresh processes per side,
    alternating which side runs first, summarised by ``across``."""
    runs = {side: [] for side in sides}
    for i in range(CURVE_PROCESSES):
        for side in list(sides) if i % 2 == 0 else list(reversed(sides)):
            runs[side].append(curve(sides[side], worker))
    return {side: across(r) for side, r in runs.items()}


def across(runs: list):
    """The processes' results merged: every float becomes the summary of
    its values over the runs, and any other leaf is the first run's."""
    first = runs[0]
    if isinstance(first, dict):
        return {key: across([r[key] for r in runs]) for key in first}
    if isinstance(first, float):
        return summary(runs)
    return first


def pytest_wall(tree: Path, *paths: str) -> dict:
    """Wall seconds and closing summary line of one pytest run on the side."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", *paths],
        cwd=tree, env=side_env(tree), capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "summary": lines[-1] if lines else ""}


def startup(tree: Path) -> float:
    walls = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import syslab.cli"], cwd=tree,
                       env=side_env(tree), check=True)
        walls.append(time.perf_counter() - t0)
    return round(statistics.median(walls), 4)


def curve_worker() -> dict:
    """Time goodness_constant on the selected geodesic from (n/2, -q/2) to
    (-n/2, q - q/2), q = 3n/8, in a radius-40 window; run with the side's
    src/ on PYTHONPATH. Every timed call gets a window of its own, built
    untimed, so no call reads constructions an earlier one left in the
    window's translation memo."""
    import importlib

    from syslab import eplane, euclid

    spent = dict.fromkeys([*STAGES, "miss"], 0.0)
    miss = next(a for a in MISS_CONSTRUCTIONS if hasattr(euclid, a))
    miss_fn = getattr(euclid, miss)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0
        return wrapper

    originals = {}
    for name, (module, *candidates) in STAGES.items():
        owner = importlib.import_module(f"syslab.{module}")
        attr = next((a for a in candidates if hasattr(owner, a)), None)
        if attr is not None:
            originals[name] = (owner, attr, getattr(owner, attr))
    out = {}
    for n in CURVE_LENGTHS:
        x, y = _curve_pair(n)
        c = eplane.window((0, 0), 40)
        path = euclid.select_vertex_geodesic(
            euclid.euclidean_geodesic(c, x, y, check_reversal=False))
        plain, staged, stages = [], [], {name: [] for name in originals}
        miss_s, rest_s = [], []
        for _ in range(REPEATS):
            c = eplane.window((0, 0), 40)
            t0 = time.perf_counter()
            euclid.goodness_constant(c, path)
            plain.append(time.perf_counter() - t0)
            c = eplane.window((0, 0), 40)
            for name, (owner, attr, fn) in originals.items():
                setattr(owner, attr, timed(name, fn))
            try:
                spent.update(dict.fromkeys(spent, 0.0))
                t0 = time.perf_counter()
                euclid.goodness_constant(c, path)
                staged.append(time.perf_counter() - t0)
            finally:
                for owner, attr, fn in originals.values():
                    setattr(owner, attr, fn)
            for name in originals:
                stages[name].append(spent[name])
            c = eplane.window((0, 0), 40)
            setattr(euclid, miss, timed("miss", miss_fn))
            try:
                spent["miss"] = 0.0
                t0 = time.perf_counter()
                euclid.goodness_constant(c, path)
                whole = time.perf_counter() - t0
            finally:
                setattr(euclid, miss, miss_fn)
            miss_s.append(spent["miss"])
            rest_s.append(whole - spent["miss"])
        medians = {name: statistics.median(t) for name, t in stages.items()}
        cat0_s = sum(medians.get(name, 0.0) for name in CAT0_STAGES)
        out[f"n{n}"] = {"pair": [x, y], "seconds": statistics.median(plain),
                        "staged_seconds": statistics.median(staged),
                        "stages": medians, "cat0_seconds": cat0_s,
                        "cat0_share": cat0_s / statistics.median(staged),
                        "memo_misses": len(c.translation_memo),
                        "miss_construction": miss,
                        "miss_seconds": statistics.median(miss_s),
                        "rest_seconds": statistics.median(rest_s)}
    return out


def _curve_pair(n: int):
    """The pair from (n/2, -q/2) to (-n/2, q - q/2), q = 3n/8."""
    q = 3 * n // 8
    x = (n // 2, -(q // 2))
    return x, (x[0] - n, x[1] + q)


def construction_worker() -> dict:
    """Time euclidean_geodesic without the reversal check on the pair family
    of ``curve_worker``, a loop of calls per sample, in seconds and
    reference units per call; run with the side's src/ on PYTHONPATH."""
    from syslab import eplane, euclid

    reference = python_reference()
    out = {}
    for n in CONSTRUCTION_LENGTHS:
        x, y = _curve_pair(n)
        c = eplane.window((0, 0), n // 2 + 2)
        out[f"n{n}"] = {"pair": [x, y], **sampled(
            lambda: euclid.euclidean_geodesic(c, x, y, check_reversal=False), reference)}
    out["ratio_128_32"] = out["n128"]["ref"] / out["n32"]["ref"]
    return out


def python_reference():
    """``perfbench/run.py``'s plain-Python reference timing, loaded from its
    file: ``perfbench/`` is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.python_reference


def sampled(call, reference) -> dict:
    """Seconds and ``ref`` per call of ``call``, sampled as the module
    docstring describes."""
    import gc

    def loop(calls):
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        return time.perf_counter() - t0

    calls = 1
    while loop(calls) < SAMPLE_S:
        calls *= 2
    times, costs = [], []
    for _ in range(SAMPLE_REPEATS):
        before = reference()
        times.append(loop(calls) / calls)
        costs.append(times[-1] / ((before + reference()) / 2))
    return {"calls": calls, "seconds": statistics.median(times),
            "ref": statistics.median(costs)}


def convexity_worker() -> dict:
    """Time is_convex on spine balls of book_window(4, 12), a loop of calls
    per sample, in seconds and in units of the plain-Python reference timed
    beside each sample; run with the side's src/ on PYTHONPATH."""
    from syslab import complexes, samples

    c = samples.book_window(4, 12)
    reference = python_reference()
    out = {}
    for r in CONVEXITY_RADII:
        ball = tuple(sorted(c.bfs_distances((0, 0, 0), budget=r)))
        if complexes.is_convex(c, ball) is not True:
            raise SystemExit(f"spine ball of {len(ball)} vertices read as not convex")
        out[f"r{r}"] = {"ball_size": len(ball),
                        **sampled(lambda: complexes.is_convex(c, ball), reference)}
    out["ratio_8_2"] = out["r8"]["ref"] / out["r2"]["ref"]
    return out


def book_goodness_worker() -> dict:
    """Time goodness_constant on selected geodesics of seeded pairs of the
    book windows of ``BOOK_GOODNESS_WINDOWS``, a loop over the pairs of one
    length per call, in seconds and reference units per goodness_constant,
    with what the call's caches did (``cache_counts``); run with the side's
    src/ on PYTHONPATH."""
    import random

    from syslab import samples

    reference = python_reference()
    out = {}
    for (pages, radius), lengths, seed in BOOK_GOODNESS_WINDOWS:
        c = samples.book_window(pages, radius)
        for n, entry in book_goodness_lengths(c, lengths, random.Random(seed), reference):
            out[f"n{n}"] = {"window": [pages, radius], **entry}
    return out


def book_goodness_lengths(c, lengths, rng, reference):
    """Per length n, the book_goodness_curve entry of ``BOOK_GOODNESS_PAIRS``
    pairs at distance n drawn by rng from the margin-safe pairs of c."""
    from syslab import directed, euclid
    from syslab.errors import BoundaryUnsafe

    inner = sorted(v for v in c.vertices() if c.margin(v) >= 1)
    for n in lengths:
        paths = []
        while len(paths) < BOOK_GOODNESS_PAIRS:
            x = inner[rng.randrange(len(inner))]
            sphere = sorted(v for v, d in c.bfs_distances(x, budget=n).items() if d == n)
            if not sphere:
                continue
            y = sphere[rng.randrange(len(sphere))]
            try:
                directed.require_pair_safe(c, x, y)
            except BoundaryUnsafe:
                continue
            paths.append(euclid.select_vertex_geodesic(
                euclid.euclidean_geodesic(c, x, y, check_reversal=False)))

        def call():
            for path in paths:
                euclid.goodness_constant(c, path)

        entry = sampled(call, reference)
        entry["seconds"] /= len(paths)
        entry["ref"] /= len(paths)
        if hasattr(c, "_shared_rows"):
            for path in paths:
                for key, count in cache_counts(c, path).items():
                    entry.setdefault(key, []).append(count)
        yield n, {"pairs": [[p[0], p[-1]] for p in paths], **entry}


def cache_counts(c, path) -> dict:
    """What one goodness_constant call on path stored in the caches of
    ``c._shared_rows``, read inside an enclosing scope: the vertices its
    search rows settled and, where the scope also keeps them, the links,
    balls and disks it computed and the requests that reused one."""
    from syslab import chardisk, euclid

    shared = c._shared_rows
    caching = hasattr(shared, "links")
    asked = {"links": 0, "balls": 0, "disks": 0}

    def counting(kind, fn):
        def wrapper(*args):
            asked[kind] += 1
            return fn(*args)
        return wrapper

    extract = chardisk.extract_flat_disk
    if caching:
        c._link = counting("links", c._link)
        c._ball = counting("balls", c._ball)
        chardisk.extract_flat_disk = counting("disks", extract)
    try:
        with shared:
            euclid.goodness_constant(c, path)
            out = {"rows_settled": sum(len(row.dist) for row in shared.rows.values())}
            if caching:
                for kind, requests in asked.items():
                    stored = len(getattr(shared, kind))
                    out[f"{kind}_computed"] = stored
                    out[f"{kind}_reused"] = requests - stored
    finally:
        if caching:
            del c._link, c._ball
            chardisk.extract_flat_disk = extract
    return out


def scenario_worker() -> dict:
    """Time run_scenario on each bundled scenario file of the side, a loop
    of runs per sample, in seconds and reference units per run; run with
    the side's src/ on PYTHONPATH."""
    import tempfile

    from syslab import runner
    from syslab.scenario import load_scenario

    files = Path(runner.__file__).resolve().parents[2] / "scenarios"
    reference = python_reference()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(files.glob("*.scn")):
            scenario = load_scenario(path)
            if runner.run_scenario(scenario, Path(tmp))[1] != 0:
                raise SystemExit(f"scenario {path.name} does not pass")
            walls = {}

            def run():
                for task in runner.run_scenario(scenario, Path(tmp))[0]["tasks"]:
                    walls.setdefault((task["name"], task["kind"]), []).append(
                        task["wall_clock_s"])

            out[path.stem] = sampled(run, reference)
            out[path.stem]["tasks"] = {
                name: {"kind": kind, "wall_clock_s": statistics.median(w)}
                for (name, kind), w in walls.items()}
    return out


def src_lines(tree: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (tree / "src" / "syslab").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--curve-worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--construction-worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--convexity-worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--book-goodness-worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scenario-worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.curve_worker:
        print(json.dumps(curve_worker()))
        return 0
    if args.construction_worker:
        print(json.dumps(construction_worker()))
        return 0
    if args.convexity_worker:
        print(json.dumps(convexity_worker()))
        return 0
    if args.book_goodness_worker:
        print(json.dumps(book_goodness_worker()))
        return 0
    if args.scenario_worker:
        print(json.dumps(scenario_worker()))
        return 0
    if args.pr is None:
        parser.error("--pr is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    sides = {"base": export_base(args.base), "change": ROOT}
    started = time.time()
    result = {
        "base": git("rev-parse", args.base),
        "change": "working tree of " + git("rev-parse", "HEAD"),
        "meta": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "machine": platform.machine(), "pairs": PAIRS, "seconds": seconds},
        "src_lines": {side: src_lines(tree) for side, tree in sides.items()},
        "goodness_curve": curves(sides, "--curve-worker"),
        "construction_curve": curves(sides, "--construction-worker"),
        "convexity_curve": curves(sides, "--convexity-worker"),
        "book_goodness_curve": curves(sides, "--book-goodness-worker"),
        "scenario_curve": curves(sides, "--scenario-worker"),
        "startup": {side: startup(tree) for side, tree in sides.items()},
        "tier1": {side: pytest_wall(tree, "tests") for side, tree in sides.items()},
        "acceptance": {side: pytest_wall(tree, "tests/test_acceptance.py")
                       for side, tree in sides.items()},
        "traced": traced(sides, workloads),
        "gated": gated(sides, workloads, metrics, seconds),
    }
    result["meta"]["wall_s"] = round(time.time() - started, 1)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
