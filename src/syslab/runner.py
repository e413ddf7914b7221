"""Scenario execution and JSON report emission.

Every asserted inequality in a report names its constant, the bound, the
measured value and a witness; reports are deterministic given the scenario
and seed (wall-clock timings are recorded but excluded from that
contract). Exit code 0 means every assertion passed, 1 an assertion or
construction failed or a task raised an unexpected error, 2 the input
could not be parsed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import eplane, render, samples, treestudy
from .complexes import FlagComplex
from .directed import directed_geodesic, require_pair_safe
from .errors import BoundaryUnsafe, TaskFailed
from .euclid import (euclidean_geodesic, goodness_constant,
                     select_vertex_geodesic, verify_contracting)
from .isodyn import (check_min_proximity, displacement_set, is_hyperbolic,
                     min_set, translation_length)
from .scenario import Scenario

SCHEMA = "report/1"


def jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    return repr(value)


@dataclass
class Assertion:
    name: str
    constant: str
    bound: object
    measured: object
    ok: bool
    witness: object = None

    def as_json(self):
        return {"name": self.name, "constant": self.constant,
                "bound": jsonable(self.bound), "measured": jsonable(self.measured),
                "pass": self.ok, "witness": jsonable(self.witness)}


@dataclass
class TaskRecord:
    name: str
    kind: str
    inputs: Dict
    outputs: Dict = field(default_factory=dict)
    assertions: List[Assertion] = field(default_factory=list)
    error: Optional[str] = None
    wall_clock_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and all(a.ok for a in self.assertions)

    def as_json(self):
        return {"name": self.name, "kind": self.kind,
                "inputs": jsonable(self.inputs), "outputs": jsonable(self.outputs),
                "assertions": [a.as_json() for a in self.assertions],
                "error": self.error, "pass": self.ok,
                "wall_clock_s": round(self.wall_clock_s, 6)}


def run_scenario(scenario: Scenario, out_dir: Path) -> Tuple[Dict, int]:
    """Execute all tasks in order; write partial results even on failure.

    Each named complex is built on first use and shared by the later tasks
    of this run; none outlives it.
    """
    records: List[TaskRecord] = []
    built: Dict[str, FlagComplex] = {}
    for index, task in enumerate(scenario.tasks):
        rng = random.Random((scenario.seed, index, task.name).__repr__())
        record = TaskRecord(task.name, task.kind, dict(task.params))
        start = time.perf_counter()
        try:
            name = task.values.get("complex")
            if name is not None and name not in built:
                built[name] = scenario.complex(name)
            _HANDLERS[task.kind](scenario, task, record, rng, out_dir, built.get(name))
        except Exception as exc:  # recorded, so the report is still written
            record.error = f"{type(exc).__name__}: {exc}"
        record.wall_clock_s = time.perf_counter() - start
        records.append(record)
    ok = all(r.ok for r in records)
    report = {
        "schema": SCHEMA,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "constants": {"C": scenario.constants.C, "D": scenario.constants.D,
                      "empirical": scenario.constants.empirical},
        "pass": ok,
        "tasks": [r.as_json() for r in records],
    }
    return report, 0 if ok else 1


def write_report(report: Dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# -- samplers -------------------------------------------------------------------


def _sample_space(c: FlagComplex, name: str) -> List:
    """The vertices pairs are drawn from, sorted: those of margin >= 1."""
    verts = sorted(v for v in c.vertices() if c.is_complete or c.margin(v) >= 1)
    if len(verts) < 2:
        raise TaskFailed(f"complex {name!r} ({c.name}) has {len(verts)} vertices "
                         f"of margin >= 1; sampling needs two")
    return verts


def _sample_safe_pair(c: FlagComplex, verts: List, rng, max_distance: int,
                      predicate=None, max_tries: int = 5000):
    """Draw x, y from the sample space until the pair is margin-safe and
    1 <= d(x, y) <= max_distance. On a plane window the lattice distance
    rejects far pairs before the margin rule, which there checks only the
    four corners of the interval box; elsewhere the rule scans the interval.
    The draws are the same either way."""
    for _ in range(max_tries):
        x = verts[rng.randrange(len(verts))]
        y = verts[rng.randrange(len(verts))]
        if x == y:
            continue
        if predicate is not None and not (predicate(x) and predicate(y)):
            continue
        if c.plane_backed and c.metric_hint(x, y) > max_distance:
            continue
        try:
            d = require_pair_safe(c, x, y)
        except BoundaryUnsafe:
            continue
        if 1 <= d <= max_distance:
            return x, y, d
    raise TaskFailed("could not sample a margin-safe pair")


# -- task handlers -----------------------------------------------------------------


def _task_pipeline(scenario, task, record, rng, out_dir, c):
    x, y = task.values["from"], task.values["to"]
    euclid = euclidean_geodesic(c, x, y, check_reversal=True)
    layer_seq = euclid.layers
    selected = select_vertex_geodesic(euclid)
    report = goodness_constant(c, selected)
    record.outputs.update({
        "distance": layer_seq.n,
        "thickness_profile": layer_seq.thickness_profile(),
        "thick_intervals": [(cycle.interval.j, cycle.interval.k)
                            for cycle, _, _ in euclid.disks],
        "euclidean_geodesic": [list(s.verts) for s in euclid],
        "selected_geodesic": list(selected),
        "goodness": report.c_star,
    })
    record.assertions.append(Assertion(
        "delta-in-layers", "definition", True, True, True))
    record.assertions.append(Assertion(
        "reversal-symmetry", "definition", True, True, True))
    record.assertions.append(Assertion(
        "selected-goodness", "C", scenario.constants.C, report.c_star,
        report.c_star <= scenario.constants.C, report.witness))


def _task_goodness(scenario, task, record, rng, out_dir, c):
    n_pairs = task.values["pairs"]
    max_d = task.values["max_distance"]
    verts = _sample_space(c, task.values["complex"])
    worst_sel = (0, None)
    worst_corner = (0, None)
    for _ in range(n_pairs):
        x, y, _ = _sample_safe_pair(c, verts, rng, max_d)
        selected = select_vertex_geodesic(
            euclidean_geodesic(c, x, y, check_reversal=False))
        rep = goodness_constant(c, selected)
        if rep.c_star > worst_sel[0]:
            worst_sel = (rep.c_star, (x, y, rep.witness))
        corner = eplane.corner_geodesic(x, y)
        rep2 = goodness_constant(c, corner)
        if rep2.c_star > worst_corner[0]:
            worst_corner = (rep2.c_star, (x, y, rep2.witness))
    record.outputs.update({"pairs": n_pairs,
                           "selected_max": worst_sel[0],
                           "corner_max": worst_corner[0]})
    C = scenario.constants.C
    record.assertions.append(Assertion(
        "selected-goodness", "C", C, worst_sel[0], worst_sel[0] <= C, worst_sel[1]))
    record.assertions.append(Assertion(
        "corner-goodness", "C", C, worst_corner[0], worst_corner[0] <= C,
        worst_corner[1]))
    if "staircase_map" in task.values:
        _goodness_staircase(scenario, task, record, c)
    if "ambient" in task.values:
        _goodness_ambient(scenario, task, record, c)


def _goodness_staircase(scenario, task, record, c):
    """Line-hugging invariant geodesics obey the Hausdorff-distance bound."""
    import math

    from .isodyn import axis_line_max_distance_sq, invariant_geodesic_on_plane
    h = task.values["staircase_map"]
    length = task.values["staircase_length"]
    origin = task.values["staircase_origin"]
    gamma = invariant_geodesic_on_plane(h, origin, length)
    hausdorff = math.sqrt(float(axis_line_max_distance_sq(gamma, h, origin)))
    bound = 4 * hausdorff / math.sqrt(3.0) + 1
    measured = goodness_constant(c, gamma).c_star
    record.outputs["staircase_hausdorff"] = hausdorff
    record.assertions.append(Assertion(
        "staircase-goodness", "4K/sqrt3+1", bound, measured,
        measured <= bound + 1e-9, {"origin": origin, "length": length}))


def _goodness_ambient(scenario, task, record, flat):
    """Goodness measured inside a larger sample degrades by at most 10."""
    ambient = samples.BY_NAME[task.values["ambient"]]()
    embed_map = samples.book_flat_embedding
    geodesics = [tuple((i, 0) for i in range(-4, 5)),
                 tuple((i // 2 + i % 2, i // 2) for i in range(-4, 5))]
    worst = None
    for g in geodesics:
        flat_c = goodness_constant(flat, g).c_star
        mapped = tuple(embed_map(v) for v in g)
        ambient_c = goodness_constant(ambient, mapped).c_star
        entry = (ambient_c, flat_c + 10, (g[0], g[-1]))
        if worst is None or entry[0] - entry[1] > worst[0] - worst[1]:
            worst = entry
    record.outputs["ambient_sample"] = task.values["ambient"]
    record.assertions.append(Assertion(
        "flat-ambient-goodness", "C'+10", worst[1], worst[0],
        worst[0] <= worst[1], worst[2]))


def _task_displacement(scenario, task, record, rng, out_dir, c):
    h = scenario.isometry(task.values["isometry"])
    n_pairs = task.values["pairs"]
    max_d = task.values["max_distance"]
    if not is_hyperbolic(h):
        raise TaskFailed(f"{task.values['isometry']} is not hyperbolic")
    L = translation_length(h)
    mset = min_set(h, c)
    bound = 9 * L + 6
    verts = _sample_space(c, task.values["complex"])
    pairs = []
    for _ in range(n_pairs):
        x, y, _ = _sample_safe_pair(c, verts, rng, max_d,
                                    predicate=lambda v: v in mset.vertices)
        pairs.append((x, y))
    prox = check_min_proximity(c, h, pairs)
    record.outputs.update({
        "translation_length": L,
        "min_set_size": len(mset),
        "displacement_bound": bound,
        "empirical_max_displacement": prox.empirical_max,
    })
    worst = max(prox.entries, key=lambda e: e.max_displacement)
    record.assertions.append(Assertion(
        "min-proximity", "9L+6", bound, prox.empirical_max, prox.ok,
        {"pair": worst.pair, "vertex": worst.witness_vertex}))
    # fellow traveller: directed geodesics between the same pairs move at
    # most 3*max endpoint displacement + 1 under h
    ft_ok = True
    ft_worst = (0, None)
    for x, y in pairs:
        ft_bound = 3 * max(h.displacement(x), h.displacement(y)) + 1
        for simplex in directed_geodesic(c, x, y):
            for s in simplex:
                d = h.displacement(s)
                if d > ft_worst[0]:
                    ft_worst = (d, (x, y, s))
                if d > ft_bound:
                    ft_ok = False
    record.assertions.append(Assertion(
        "fellow-traveller", "3max+1", 3 * L + 1, ft_worst[0], ft_ok,
        ft_worst[1]))
    # neighborhood growth: B_C(disp_K) inside disp_{K + 2C}
    K = L + 1
    grow = 2
    disp = displacement_set(h, K, c)
    bigger = displacement_set(h, K + 2 * grow, c)
    ok = True
    witness = None
    for v in disp.vertices:
        if not c.is_complete and c.margin(v) < grow:
            continue
        for u in c.bfs_distances(v, budget=grow):
            if u not in bigger.vertices:
                ok, witness = False, (v, u)
                break
        if not ok:
            break
    record.assertions.append(Assertion(
        "displacement-neighborhood", "K+2C", K + 2 * grow,
        K + 2 * grow if ok else "violated", ok, witness))


def _task_contracting(scenario, task, record, rng, out_dir, c):
    n_pairs = task.values["pairs"]
    n_doubling = task.values["doubling"]
    max_d = task.values["max_distance"]
    cs = task.values["cs"]
    origin = task.values["origin"]
    verts = _sample_space(c, task.values["complex"])
    rays = []
    seen = set()
    want = max(8, min(40, n_pairs))
    attempts = 0
    # a ray needs both ends in the window, so an origin outside it, near or
    # far, fails at once with one TaskFailed
    if origin not in c:
        raise TaskFailed(f"no margin-safe ray from origin {origin} "
                         f"(origin not in the window)")
    while len(rays) < want and attempts < 50 * want:
        attempts += 1
        x, y, d = _sample_safe_pair(c, verts, rng, max_d)
        target = (origin[0] + (y[0] - x[0]), origin[1] + (y[1] - x[1]))
        if target in seen or target not in c:
            continue
        try:
            require_pair_safe(c, origin, target)
        except BoundaryUnsafe:
            continue
        seen.add(target)
        rays.append(select_vertex_geodesic(
            euclidean_geodesic(c, origin, target, check_reversal=False)))
    if not rays:
        raise TaskFailed(f"no margin-safe ray from origin {origin} "
                         f"after {attempts} attempts")
    max_slack = Fraction(-10 ** 9)
    violations = 0
    for _ in range(n_pairs):
        g1 = rays[rng.randrange(len(rays))]
        g2 = rays[rng.randrange(len(rays))]
        rep = verify_contracting(c, g1, g2, cs, constants=scenario.constants)
        violations += len(rep.violations)
        max_slack = max(max_slack, rep.max_slack)
    doubling_violations = 0
    doubling_slack = Fraction(-10 ** 9)
    for _ in range(n_doubling):
        g1 = rays[rng.randrange(len(rays))]
        shift = (rng.randint(-2, 2), rng.randint(-2, 2))
        g2 = tuple((v[0] + shift[0], v[1] + shift[1]) for v in g1)
        if any(v not in c for v in g2):
            continue
        sep = eplane.lattice_distance((0, 0), shift)
        rep = verify_contracting(c, g1, g2, cs, constants=scenario.constants,
                                 doubling_bound=max(sep, 1))
        doubling_violations += len(rep.violations)
        doubling_slack = max(doubling_slack, rep.max_slack)
    record.outputs.update({
        "rays": len(rays), "pairs": n_pairs,
        "empirical_max_slack": str(max_slack),
        "doubling_max_slack": str(doubling_slack),
    })
    record.assertions.append(Assertion(
        "contracting", "D", scenario.constants.D, str(max_slack),
        violations == 0, None))
    record.assertions.append(Assertion(
        "contracting-doubling", "2D+1", 2 * scenario.constants.D + 1,
        str(doubling_slack), doubling_violations == 0, None))


def _task_extendability(scenario, task, record, rng, out_dir, c):
    depth = task.values["depth"]
    table = treestudy.tree_extendability(depth)
    expected = {samples.branch_tip(n): n for n in range(2, depth)}
    mismatches = [(e.y, e.E, expected[e.y]) for e in table.entries
                  if expected.get(e.y) != e.E]
    record.outputs["tree_E"] = [[list(e.y), e.E] for e in table.entries]
    record.assertions.append(Assertion(
        "tree-unbounded-E", "E(0, tip_n) = n", "exact",
        table.max_E(), not mismatches, mismatches or None))
    n_control = task.values["control_pairs"]
    span = task.values["control_span"]
    pairs = []
    for _ in range(n_control):
        x = (rng.randint(-span, span), rng.randint(-span, span))
        y = (rng.randint(-span, span), rng.randint(-span, span))
        if x != y:
            pairs.append((x, y))
    control = treestudy.plane_control(pairs)
    record.outputs["control_max_E"] = control.max_E()
    record.assertions.append(Assertion(
        "plane-bounded-E", "line-hugging ray", 1, control.max_E(),
        control.max_E() <= 1, None))


def _task_render(scenario, task, record, rng, out_dir, c):
    svg = render.render_pipeline_svg(c, task.values["from"], task.values["to"])
    out_name = task.values.get("out", f"{task.name}.svg")
    path = out_dir / out_name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(svg, encoding="utf-8")
    record.outputs.update({
        "file": out_name,
        "bytes": len(svg.encode("utf-8")),
        "sha256": hashlib.sha256(svg.encode("utf-8")).hexdigest(),
    })
    record.assertions.append(Assertion(
        "rendered", "deterministic svg", True, True, True))


_HANDLERS = {
    "geodesic-pipeline": _task_pipeline,
    "goodness-sweep": _task_goodness,
    "displacement-study": _task_displacement,
    "contracting-suite": _task_contracting,
    "extendability-study": _task_extendability,
    "figure-render": _task_render,
}
