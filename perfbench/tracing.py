"""Per-layer tracing of the syslab library, from outside the library.

``Tracer.install()`` replaces every public syslab function at every module
binding site (the defining module and each ``from .x import y`` copy, so
``cat0.orient`` and ``exact.orient`` share one wrapper) and the public and
arithmetic methods of ``FlagComplex``, ``ExactScalar``, ``PlanePoint`` and
``Scenario``. ``Tracer.restore()`` puts every original back.

Each wrapped call pushes a frame on the tracer's stack, so a call's self
time is its duration minus the time of the wrapped calls it made. Calls of
the coarse stage functions in ``SPANS`` are also kept as spans (name, start,
end, span id, parent span id, item id) for the span file; the other
wrapped calls are too numerous to keep one by one and are only summed per
function. Install before building complexes: ``eplane.window`` captures
``lattice_distance`` as the complex's ``metric_hint`` when it runs.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
import types

CLASSES = ("complexes.FlagComplex", "exact.ExactScalar", "exact.PlanePoint",
           "scenario.Scenario")

# Dunder methods that do exact arithmetic; __eq__ and __hash__ stay untouched
# so that dict and set behaviour is exactly the library's own.
ARITHMETIC = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__abs__",
              "__lt__", "__le__", "__gt__", "__ge__")

SPANS = frozenset((
    "euclid.euclidean_geodesic", "euclid.select_vertex_geodesic",
    "euclid.goodness_constant", "euclid.verify_contracting",
    "directed.require_pair_safe", "directed.directed_geodesic", "directed.layers",
    "directed.thick_intervals",
    "chardisk.boundary_cycle", "chardisk.extract_flat_disk",
    "chardisk.characteristic_map",
    "cat0.modified_disk", "cat0.shortest_path", "cat0.euclidean_diagonal",
    "complexes.is_convex", "complexes.FlagComplex.distance_matrix",
    "complexes.materialize_window", "eplane.window", "samples.book_window",
    "scenario.load_scenario", "scenario.Scenario.complex", "runner.run_scenario",
    "render.render_pipeline_svg", "treestudy.tree_extendability",
    "treestudy.plane_control", "isodyn.translation_length", "isodyn.min_set",
    "isodyn.displacement_set", "isodyn.check_min_proximity",
    "isodyn.invariant_geodesic_on_plane",
))


def library_modules():
    """Every imported syslab module, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "syslab" or name.startswith("syslab.")]


def binding_snapshot():
    """Identity of every module attribute and class attribute the tracer may touch."""
    snap = {}
    for module in library_modules():
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("syslab"):
                for attr, member in vars(value).items():
                    snap[(module.__name__, name, attr)] = id(member)
    return snap


def _key(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Wrappers, per-function totals, spans and derived per-layer counters."""

    def __init__(self):
        self.active = True
        self.item = "setup"
        self.stats = {}           # key -> [calls, self seconds, total seconds]
        self.spans = []           # (key, start, end, span id, parent id, item)
        self.counters = {"bfs_runs": 0, "polygon_corners": 0, "degenerate_disks": 0,
                         "modified_disks": 0, "geodesics": 0, "thick_geodesics": 0,
                         "geodesic_n_total": 0, "plane_geodesics": 0,
                         "repeated_diffs": 0}
        self.goodness_ms_by_n = {}     # n -> [calls, total seconds]
        self.scenario_s = {}           # scenario name -> seconds
        self._seen_diffs = set()
        self._stack = [[0.0, 0]]       # frames: [child seconds, span id]
        self._ids = itertools.count(1)
        self._patches = []
        self._wrappers = {}
        self._epoch = time.perf_counter()
        self._observers = {
            "euclid.euclidean_geodesic": self._observe_geodesic,
            "euclid.goodness_constant": self._observe_goodness,
            "cat0.modified_disk": self._observe_modified_disk,
            "complexes.FlagComplex.true_distance": self._observe_true_distance,
            "complexes.FlagComplex.bfs_distances": self._observe_bfs,
            "runner.run_scenario": self._observe_scenario,
        }

    # -- installing and restoring -------------------------------------------

    def install(self):
        for module in library_modules():
            for name, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not name.startswith("_")
                        and value.__module__.startswith("syslab")
                        and not value.__name__.startswith("_")):
                    self._patch(module, name, value)
        for dotted in CLASSES:
            module_name, cls_name = dotted.split(".")
            cls = getattr(sys.modules[f"syslab.{module_name}"], cls_name)
            for name, value in list(vars(cls).items()):
                if isinstance(value, types.FunctionType) and (
                        not name.startswith("_") or name in ARITHMETIC):
                    self._patch(cls, name, value)

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, fn):
        wrapper = self._wrappers.get(fn)
        if wrapper is None:
            wrapper = self._wrappers[fn] = self._wrap(fn)
        self._patches.append((owner, name, fn))
        setattr(owner, name, wrapper)

    # -- the wrappers ---------------------------------------------------------

    def _wrap(self, fn):
        key = _key(fn)
        st = self.stats.setdefault(key, [0, 0.0, 0.0])
        keep_span = key in SPANS
        observer = self._observers.get(key)
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        def enter():
            frame = [0.0, next(ids) if keep_span else stack[-1][1]]
            parent = stack[-1][1]
            stack.append(frame)
            return frame, parent

        def leave(frame, parent, t0, t1):
            stack.pop()
            dur = t1 - t0
            stack[-1][0] += dur
            st[0] += 1
            st[1] += dur - frame[0]
            st[2] += dur
            if keep_span:
                spans.append((key, t0 - tracer._epoch, t1 - tracer._epoch,
                              frame[1], parent, tracer.item))
            return dur

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not tracer.active:
                    yield from it
                    return
                while True:
                    frame, parent = enter()
                    t0 = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        leave(frame, parent, t0, clock())
                        return
                    except BaseException:
                        leave(frame, parent, t0, clock())
                        raise
                    leave(frame, parent, t0, clock())
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame, parent = enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = leave(frame, parent, t0, clock())
            if observer is not None:
                observer(args, kwargs, result, dur)
            return result
        return wrapper

    # -- derived counters -------------------------------------------------------

    def _observe_geodesic(self, args, kwargs, result, dur):
        c = args[0]
        x, y = result.x, result.y
        n = len(result)
        self.counters["geodesics"] += 1
        self.counters["geodesic_n_total"] += n
        if "disk" in result.provenance:
            self.counters["thick_geodesics"] += 1
        if c.plane_backed:
            diff = (y[0] - x[0], y[1] - x[1])
            self.counters["plane_geodesics"] += 1
            if diff in self._seen_diffs:
                self.counters["repeated_diffs"] += 1
            else:
                self._seen_diffs.add(diff)

    def _observe_goodness(self, args, kwargs, result, dur):
        slot = self.goodness_ms_by_n.setdefault(len(result.geodesic) - 1, [0, 0.0])
        slot[0] += 1
        slot[1] += dur

    def _observe_modified_disk(self, args, kwargs, result, dur):
        self.counters["modified_disks"] += 1
        self.counters["polygon_corners"] += len(result.polygon)
        if result.degenerate:
            self.counters["degenerate_disks"] += 1

    def _observe_true_distance(self, args, kwargs, result, dur):
        c, x, y = args[0], args[1], args[2]
        if c.metric_hint is None and x != y:
            self.counters["bfs_runs"] += 1

    def _observe_bfs(self, args, kwargs, result, dur):
        self.counters["bfs_runs"] += 1

    def _observe_scenario(self, args, kwargs, result, dur):
        name = result[0]["scenario"]
        self.scenario_s[name] = self.scenario_s.get(name, 0.0) + dur

    # -- reading the results ------------------------------------------------------

    def calls(self, key):
        return self.stats.get(key, [0, 0.0, 0.0])[0]

    def self_s(self, key):
        return self.stats.get(key, [0, 0.0, 0.0])[1]

    def module_totals(self, module):
        """(calls, self seconds) summed over every wrapped function of a module."""
        calls = self_s = 0
        for key, (n, s, _) in self.stats.items():
            if key.split(".", 1)[0] == module:
                calls += n
                self_s += s
        return calls, self_s
