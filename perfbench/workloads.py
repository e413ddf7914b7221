"""The benchmark's workloads: seeded inputs, the library calls, output checks.

Every workload hands the library only inputs generated from the seed, in
passes: pass p of seed s always holds the same items. Each item belongs to a
stratum inside a group (one reported size or kind). The items of a stratum
cost the library the same work: they are translates of one input shape, and
every geodesic item runs on a window translated along with its pair and
built for that item alone, so no cache outlives one item. The seed picks the
translations. Every pass visits every stratum, and the run reports, per
stratum, the median of its items (see ``run.stratum_medians``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

from syslab import complexes, directed, eplane, euclid, runner, samples, scenario
from syslab.errors import BoundaryUnsafe

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SPAN = 10_000     # translations are drawn from [-SPAN, SPAN]


class Item(NamedTuple):
    group: str      # reported size or kind, e.g. "n24" or "convexity"
    stratum: str    # translates of one input shape
    args: tuple
    reference: str = "python"   # kind of work timed next to it, see run.REFERENCES


def digest(value) -> str:
    """sha256 of a JSON rendering of plain data (tuples become lists)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pass_rng(workload: str, seed: int, p: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{p}")


def _shift(v, t):
    return (v[0] + t[0], v[1] + t[1]) + tuple(v[2:])


def _check_vertex_geodesic(path, x, y, n, adjacent) -> str | None:
    if path[0] != x or path[-1] != y or len(path) != n + 1:
        return f"selected path {path} does not run from {x} to {y} in {n} steps"
    for u, v in zip(path, path[1:]):
        if not adjacent(u, v):
            return f"selected path steps from {u} to non-neighbour {v}"
    return None


def _geodesic_item(c, item):
    """Euclidean geodesic with the reversal check, selection, goodness."""
    _, x, y, _ = item.args
    path = euclid.select_vertex_geodesic(euclid.euclidean_geodesic(c, x, y))
    return path, euclid.goodness_constant(c, path).c_star


# -- plane-goodness -------------------------------------------------------------


class PlaneGoodness:
    """Goodness of the selected vertex geodesic on radius-20 plane windows.

    Up to a symmetry of the lattice, every difference vector of length n is
    (-n, q) with 0 <= q <= n/2: q = 0 runs along a lattice line and q = n/2
    along the diagonal between two of them. Per pass and length n in
    (8, 16, 24) there are four pairs: one along a lattice line (no thick
    layer) and three generic ones, q = n/8, n/4 and 3n/8. The seed picks
    where each pair and its window sit.
    """

    name = "plane-goodness"
    pass_metric = "pass_s"
    RADIUS = 20
    LENGTHS = (8, 16, 24)
    C_STAR_MAX = 3      # the value acceptance criterion 4 expects

    def shapes(self, n):
        return [(-n, 0)] + [(-n, round(k * n / 8)) for k in (1, 2, 3)]

    def setup(self, seed):
        c = eplane.window((0, 0), self.RADIUS)
        pairs = {}
        for n in self.LENGTHS:
            for d in self.shapes(n):
                x = (n // 2, -(d[1] // 2))
                y = _shift(x, d)
                directed.require_pair_safe(c, x, y)
                pairs[(n, d)] = (x, y)
        return {"seed": seed, "pairs": pairs}

    def items(self, state, p):
        rng = _pass_rng(self.name, state["seed"], p)
        per_length = []
        for n in self.LENGTHS:
            batch = []
            for d in self.shapes(n):
                t = (rng.randint(-SPAN, SPAN), rng.randint(-SPAN, SPAN))
                x, y = state["pairs"][(n, d)]
                batch.append(Item(f"n{n}", f"n{n}:q{d[1]}", (t, _shift(x, t), _shift(y, t), n)))
            per_length.append(batch)
        return [item for batch in zip(*per_length) for item in batch]

    def prepare(self, state, item):
        center, x, y, _ = item.args
        c = eplane.window(center, self.RADIUS)
        directed.require_pair_safe(c, x, y)
        return c

    run = staticmethod(_geodesic_item)

    def check(self, c, item, output):
        _, x, y, n = item.args
        path, c_star = output
        if eplane.lattice_distance(x, y) != n:
            return f"pair {x}, {y} is not at distance {n}"
        error = _check_vertex_geodesic(
            path, x, y, n, lambda u, v: eplane.lattice_distance(u, v) == 1)
        if error is None and c_star > self.C_STAR_MAX:
            error = f"c_star {c_star} > {self.C_STAR_MAX} for {x} -> {y}"
        return error

    def canonical(self, item, output):
        return [item.args, output]

    def group_metric(self, group):
        return f"goodness_per_s.{group}", "per_s"


# -- book-metric ----------------------------------------------------------------


class BookMetric:
    """Geodesics and ball convexity on 4-page book windows of radius 12.

    Per pass: two pair shapes at each length 4..12, fixed once by a constant
    seed among the margin-safe pairs of ``samples.book_window(4, 12)``, each
    translated along the spine together with its window; and one ball at
    each radius 2..6 around a spine vertex and around a vertex two rows up a
    page, in one shared window. The spine ball of radius 6 is the largest
    input, so every pass reaches the peak memory of ``complexes.is_convex``.
    """

    name = "book-metric"
    pass_metric = "pass_s"
    PAGES = 4
    RADIUS = 12
    LENGTHS = tuple(range(4, 13))
    SHAPES_PER_LENGTH = 2
    BALL_RADII = tuple(range(2, 7))
    PAGE_ROW = 2

    def setup(self, seed):
        c = samples.book_window(self.PAGES, self.RADIUS)
        c.distance_matrix()     # lazy all-pairs cache that is_convex reads
        rng = random.Random(f"{self.name}:shapes")
        inner = sorted(v for v in c.vertices() if c.margin(v) >= 1)
        pairs = {}
        for n in self.LENGTHS:
            for i in range(self.SHAPES_PER_LENGTH):
                while True:
                    x = inner[rng.randrange(len(inner))]
                    sphere = sorted(v for v, d in c.bfs_distances(x, budget=n).items()
                                    if d == n)
                    if sphere:
                        y = sphere[rng.randrange(len(sphere))]
                        try:
                            directed.require_pair_safe(c, x, y)
                            break
                        except BoundaryUnsafe:
                            pass
                pairs[(n, i)] = (x, y)
        return {"seed": seed, "c": c, "pairs": pairs}

    def items(self, state, p):
        rng = _pass_rng(self.name, state["seed"], p)
        c = state["c"]
        out = []
        for (n, i), (x, y) in state["pairs"].items():
            t = (rng.randint(-SPAN, SPAN), 0)
            out.append(Item("geodesic", f"n{n}:{i}",
                            ((t[0], 0, 0), _shift(x, t), _shift(y, t), n)))
        for r in self.BALL_RADII:
            for kind, row in (("spine", 0), ("page", self.PAGE_ROW)):
                room = self.RADIUS - r - row     # keeps the whole ball in the window
                page = rng.randint(1, self.PAGES) if row else 0
                center = (rng.randint(-room, room), row, page)
                ball = tuple(sorted(c.bfs_distances(center, budget=r)))
                out.append(Item("convexity", f"r{r}:{kind}", (center, r, ball), "numpy"))
        rng.shuffle(out)
        return out

    def prepare(self, state, item):
        if item.group == "convexity":
            return state["c"]
        center, x, y, _ = item.args
        c = complexes.materialize_window(center, samples.book_neighbors(self.PAGES),
                                         self.RADIUS, convex=True)
        directed.require_pair_safe(c, x, y)
        return c

    def run(self, c, item):
        if item.group == "convexity":
            _, r, ball = item.args
            return complexes.is_convex(c, ball, 2 * r)
        return _geodesic_item(c, item)

    def check(self, c, item, output):
        if item.group == "convexity":
            center, r, _ = item.args
            return None if output is True else f"ball of radius {r} at {center} not convex"
        _, x, y, n = item.args
        if c.true_distance(x, y) != n:
            return f"pair {x}, {y} is not at distance {n}"
        return _check_vertex_geodesic(output[0], x, y, n, c.adjacent)

    def canonical(self, item, output):
        if item.group == "convexity":
            return [item.args[:2], output]
        return [item.args, output]

    def group_metric(self, group):
        return f"{group}_per_s", "per_s"


# -- scenarios ----------------------------------------------------------------------


class Scenarios:
    """Passes over the bundled scenario files through ``runner.run_scenario``.

    The timed passes run every file at its own seed, as ``syslab run`` does
    by default, and each report (without its wall-clock fields) must match
    the digest stored for it. A nonzero seed s adds one untimed pass after
    the timed phase in which file i runs at seed 10000*s + i, as ``syslab
    run --seed`` would; those reports must pass. The timed passes keep the
    files' seeds because the cost of the goodness scenario alone varies
    threefold with its seed.
    """

    name = "scenarios"
    pass_metric = "scenario_pass_s"
    DIGESTS = Path(__file__).resolve().parent / "scenario_digests.json"
    FIGURE = "pipeline-42.svg"
    FIGURE_SHA256 = "6b809efb1b7b61ad8556ed4456ef8c6ad54a45ea3d0e5a5bd997217144d9b180"

    def setup(self, seed):
        expected = json.loads(self.DIGESTS.read_text(encoding="utf-8"))
        loaded = {name: scenario.load_scenario(ROOT / "scenarios" / f"{name}.scn")
                  for name in sorted(expected)}
        out_dir = OUT / "scenarios"
        out_dir.mkdir(parents=True, exist_ok=True)
        return {"seed": seed, "expected": expected, "scenarios": loaded,
                "out": out_dir}

    def items(self, state, p):
        return [Item("scenario", name, (name, None)) for name in state["scenarios"]]

    def verification_items(self, state):
        """The files at seeds drawn from the benchmark seed, checked untimed."""
        seed = state["seed"]
        if seed == 0:
            return []
        return [Item("scenario", name, (name, 10000 * seed + i))
                for i, name in enumerate(state["scenarios"])]

    def prepare(self, state, item):
        return state

    def run(self, state, item):
        name, seed = item.args
        sc = state["scenarios"][name]
        if seed is not None:
            sc = replace(sc, seed=seed)
        report, code = runner.run_scenario(sc, state["out"])
        return report, code

    def check(self, state, item, output):
        name, seed = item.args
        report, code = output
        if code != 0 or not report["pass"]:
            failed = [t["name"] for t in report["tasks"] if not t["pass"]]
            return f"scenario {name} failed tasks {failed}"
        if name == "pipeline-42":
            svg = (state["out"] / self.FIGURE).read_bytes()
            if hashlib.sha256(svg).hexdigest() != self.FIGURE_SHA256:
                return f"{self.FIGURE} does not match the figure anchor"
        if seed is None and report_digest(report) != state["expected"][name]:
            return f"report of {name} differs from its stored digest"
        return None

    def canonical(self, item, output):
        return [list(item.args), report_digest(output[0])]

    def group_metric(self, group):
        return "scenario_per_s", "per_s"


def report_digest(report) -> str:
    """Digest of a scenario report without its wall-clock fields."""
    tasks = [{k: v for k, v in t.items() if k != "wall_clock_s"} for t in report["tasks"]]
    return digest({**report, "tasks": tasks})


WORKLOADS = {w.name: w for w in (PlaneGoodness(), BookMetric(), Scenarios())}
