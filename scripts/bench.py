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
- ``goodness_curve``: seconds per ``goodness_constant`` call on one selected
  geodesic at n = 8, 16, 24, 32 (median of ``REPEATS``), and the seconds
  spent in each pipeline stage of ``STAGES`` (``stages``), timed in a
  separate call by a wrapper around each stage function. A stage whose
  function a side lacks is left out of that side. ``cat0_seconds`` and
  ``cat0_share`` sum the three CAT(0) stages (modified disk, shortest path,
  diagonal); ``staged_seconds`` is the whole wrapped call, wrappers
  included.
- ``construction_curve``: seconds per ``euclidean_geodesic`` call without
  the reversal check at n = 32, 64, 128 on the same pair family (median of
  ``CONSTRUCTION_REPEATS``), each call on a fresh radius n/2 + 2 window
  built untimed and followed by a garbage collection before the clock
  starts, and ``ratio_128_32`` = t(128) / t(32): about 4 when a
  construction costs O(n), about 16 when it costs the interval's area.
  Not gated.
- ``convexity_curve``: seconds per ``is_convex`` call on the ball of
  radius r = 2, 4, 6, 8 around the spine vertex (0, 0, 0) of
  ``book_window(4, 12)`` (median of ``CONVEXITY_REPEATS``), with the
  window's ``distance_matrix`` warmed untimed on both sides and a garbage
  collection before each call, and ``ratio_8_2`` = t(8) / t(2). The ball
  grows with r, so the curve shows how a kernel scales with |A|, which the
  book-metric workload's balls of radius 2-6 cannot. Not gated.
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
CURVE_LENGTHS = (8, 16, 24, 32)
CONSTRUCTION_LENGTHS = (32, 64, 128)
CONSTRUCTION_REPEATS = 5
CONVEXITY_RADII = (2, 4, 6, 8)
CONVEXITY_REPEATS = 5
# stage name -> (module, function); the stages do not call one another
STAGES = {
    "levels": ("directed", "_safe_levels"),
    "projection": ("directed", "_project"),
    "thickness": ("directed", "_thickness"),
    "boundary_cycle": ("chardisk", "boundary_cycle"),
    "flat_disk": ("chardisk", "extract_flat_disk"),
    "modified_disk": ("cat0", "modified_disk"),
    "shortest_path": ("cat0", "shortest_path"),
    "diagonal": ("cat0", "euclidean_diagonal"),
    "characteristic_map": ("chardisk", "characteristic_map"),
}
CAT0_STAGES = ("modified_disk", "shortest_path", "diagonal")
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


def curve(tree: Path, worker: str = "--curve-worker") -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), worker],
        env=side_env(tree), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


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

    spent = dict.fromkeys(STAGES, 0.0)

    def timed(name, fn):
        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[name] += time.perf_counter() - t0
        return wrapper

    originals = {}
    for name, (module, attr) in STAGES.items():
        owner = importlib.import_module(f"syslab.{module}")
        if hasattr(owner, attr):
            originals[name] = (owner, attr, getattr(owner, attr))
    out = {}
    for n in CURVE_LENGTHS:
        x, y = _curve_pair(n)
        c = eplane.window((0, 0), 40)
        path = euclid.select_vertex_geodesic(
            euclid.euclidean_geodesic(c, x, y, check_reversal=False))
        plain, staged, stages = [], [], {name: [] for name in originals}
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
        medians = {name: statistics.median(t) for name, t in stages.items()}
        cat0_s = sum(medians[name] for name in CAT0_STAGES)
        out[f"n{n}"] = {"pair": [x, y], "seconds": statistics.median(plain),
                        "staged_seconds": statistics.median(staged),
                        "stages": medians, "cat0_seconds": cat0_s,
                        "cat0_share": cat0_s / statistics.median(staged)}
    return out


def _curve_pair(n: int):
    """The pair from (n/2, -q/2) to (-n/2, q - q/2), q = 3n/8."""
    q = 3 * n // 8
    x = (n // 2, -(q // 2))
    return x, (x[0] - n, x[1] + q)


def construction_worker() -> dict:
    """Time one euclidean_geodesic without the reversal check per call, on
    the pair family of ``curve_worker``; run with the side's src/ on
    PYTHONPATH. Each call gets a fresh window, so nothing an earlier call
    built is reused."""
    import gc

    from syslab import eplane, euclid

    out = {}
    for n in CONSTRUCTION_LENGTHS:
        x, y = _curve_pair(n)
        times = []
        for _ in range(CONSTRUCTION_REPEATS):
            c = eplane.window((0, 0), n // 2 + 2)
            gc.collect()
            t0 = time.perf_counter()
            euclid.euclidean_geodesic(c, x, y, check_reversal=False)
            times.append(time.perf_counter() - t0)
        out[f"n{n}"] = {"pair": [x, y], "seconds": statistics.median(times)}
    out["ratio_128_32"] = out["n128"]["seconds"] / out["n32"]["seconds"]
    return out


def convexity_worker() -> dict:
    """Time is_convex on spine balls of book_window(4, 12); run with the
    side's src/ on PYTHONPATH."""
    import gc

    from syslab import complexes, samples

    c = samples.book_window(4, 12)
    c.distance_matrix()
    out = {}
    for r in CONVEXITY_RADII:
        ball = tuple(sorted(c.bfs_distances((0, 0, 0), budget=r)))
        times = []
        for _ in range(CONVEXITY_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            convex = complexes.is_convex(c, ball, 2 * r)
            times.append(time.perf_counter() - t0)
        if convex is not True:
            raise SystemExit(f"spine ball of radius {r} read as not convex")
        out[f"r{r}"] = {"ball_size": len(ball), "seconds": statistics.median(times)}
    out["ratio_8_2"] = out["r8"]["seconds"] / out["r2"]["seconds"]
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
        "goodness_curve": {side: curve(tree) for side, tree in sides.items()},
        "construction_curve": {side: curve(tree, "--construction-worker")
                               for side, tree in sides.items()},
        "convexity_curve": {side: curve(tree, "--convexity-worker")
                            for side, tree in sides.items()},
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
