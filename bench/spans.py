"""Per-layer spans recorded from outside the program.

The traced run wraps the public functions of each graspnav module, from
the benchmark's own files, and records one span per call: name, start,
end, the span that caused it, and the operation (trace) it belongs to.
Spans stay in memory until the run ends. A span's self time is its
duration minus the time covered by its child spans (the span model of
Sigelman et al., "Dapper", Google TR 2010). Work counts are computed from
each call's arguments or result, never from inside the program.

Several modules import these functions by name (``from .nav import
validate_candidates``), so a wrapper is installed under every name in
every loaded graspnav module that refers to the original function.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations_s: list[float] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


class Recorder:
    """Collects nested spans and per-name totals for one process."""

    def __init__(self):
        self.trace = 0
        self.spans: list[tuple] = []
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[list] = []   # [span id, name, start, child time]
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((self.trace, span_id, parent[0] if parent else None,
                           name, start, end, duration - child))
        stats = self.stats.setdefault(name, LayerStats())
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child
        stats.durations_s.append(duration)

    def count(self, name: str, counts: dict[str, int]) -> None:
        totals = self.stats.setdefault(name, LayerStats()).counts
        for key, n in counts.items():
            totals[key] = totals.get(key, 0) + int(n)

    def write(self, path: Path) -> None:
        """Write every span as one NDJSON line, times in ms from the first."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for trace, span_id, parent, name, start, end, self_s in self.spans:
                fh.write(json.dumps({
                    "trace": trace, "id": span_id, "parent": parent,
                    "name": name, "start_ms": (start - t0) * 1e3,
                    "end_ms": (end - t0) * 1e3, "self_ms": self_s * 1e3}) + "\n")


# ---------------------------------------------------------------------------
# What is wrapped, and the work each call does
# ---------------------------------------------------------------------------

def _render_counts(args, result):
    intr = args["intrinsics"]
    return {"ray_box_tests": intr.width * intr.height * len(args["primitives"])}


def _ransac_counts(args, result):
    n = len(args["points"])
    return {"points": n, "point_tests": n * args["params"].iterations}


def _nav_counts(args, result):
    return {"candidates": len(args["candidates"])}


def _index_counts(args, result):
    return {"points_indexed": len(args["points"])}


def _read_ply_counts(args, result):
    return {"bytes": Path(args["path"]).stat().st_size, "points": len(result[0])}


def _frame_counts(args, result):
    path = Path(args["path"])
    raw = json.loads(path.read_text())
    depth = path.parent / raw["depth_file"]
    return {"bytes": path.stat().st_size + depth.stat().st_size}


def _select_counts(args, result):
    return {"pairs": len(args["grasps"]) * len(args["bodies"])}


def _scenegen_counts(args, result):
    return {"points": len(result.scene.points)}


# (module, attribute or Class.method, span name, counter)
TARGETS = (
    ("graspnav.sim.render", "render_depth", "sim.render.render_depth",
     _render_counts),
    ("graspnav.geometry", "ransac_plane", "geometry.ransac_plane",
     _ransac_counts),
    ("graspnav.sim.detector", "detect_boxes", "sim.detector.detect_boxes",
     None),
    ("graspnav.drawer", "match_handles_to_drawers",
     "drawer.match_handles_to_drawers", None),
    ("graspnav.drawer", "solve_assignment", "drawer.solve_assignment", None),
    ("graspnav.drawer", "view_target", "drawer.view_target", None),
    ("graspnav.drawer", "refine_target", "drawer.refine_target", None),
    ("graspnav.drawer", "fuse_views", "drawer.fuse_views", None),
    ("graspnav.drawer", "load_detection_frame", "drawer.load_detection_frame",
     _frame_counts),
    ("graspnav.nav", "validate_candidates", "nav.validate_candidates",
     _nav_counts),
    ("graspnav.geometry", "line_of_sight", "geometry.line_of_sight", None),
    ("graspnav.geometry", "PointIndex.__init__", "geometry.PointIndex",
     _index_counts),
    ("graspnav.scene", "read_ply", "scene.read_ply", _read_ply_counts),
    ("graspnav.scene", "read_instances", "scene.read_instances", None),
    ("graspnav.scene", "PointCloudScene.query_instance",
     "scene.PointCloudScene.query_instance", None),
    ("graspnav.scene", "PointCloudScene.distance_to_obstacles",
     "scene.PointCloudScene.distance_to_obstacles", None),
    ("graspnav.grasp", "load_grasp_batch", "grasp.load_grasp_batch", None),
    ("graspnav.grasp", "merge_rotation_sweeps", "grasp.merge_rotation_sweeps",
     None),
    ("graspnav.grasp", "filter_grasps", "grasp.filter_grasps", None),
    ("graspnav.optimizer", "select_best", "optimizer.select_best",
     _select_counts),
    ("graspnav.sim.scenegen", "generate_scene", "sim.scenegen.generate_scene",
     _scenegen_counts),
    ("graspnav.sim.episodes", "run_search_episode",
     "sim.episodes.run_search_episode", None),
    ("graspnav.sim.episodes", "run_grasp_episode",
     "sim.episodes.run_grasp_episode", None),
    ("graspnav.cli", "main", "cli.main", None),
)


def _wrap(recorder: Recorder, name: str, fn, counter):
    signature = inspect.signature(fn) if counter else None

    def wrapper(*args, **kwargs):
        recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            recorder.count(name, counter(bound.arguments, result))
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    return wrapper


class Installed:
    """Wrappers in place; ``remove`` puts every original back."""

    def __init__(self, recorder: Recorder):
        self._undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "graspnav"
                                         or n.startswith("graspnav."))]
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._set(cls, method, _wrap(recorder, name, original, counter))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(recorder, name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# span name -> the counts reported besides its self time
_LAYER_COUNTS = {
    "sim.render.render_depth": ("calls", "ray_box_tests"),
    "geometry.ransac_plane": ("calls", "points", "point_tests"),
    "sim.detector.detect_boxes": ("calls",),
    "drawer.match_handles_to_drawers": (),
    "drawer.solve_assignment": ("calls",),
    "drawer.view_target": (),
    "drawer.refine_target": (),
    "drawer.fuse_views": (),
    "drawer.load_detection_frame": ("bytes",),
    "nav.validate_candidates": ("calls", "candidates"),
    "geometry.line_of_sight": ("calls",),
    "scene.read_ply": ("bytes", "points"),
    "scene.read_instances": (),
    "scene.PointCloudScene.query_instance": (),
    "scene.PointCloudScene.distance_to_obstacles": ("calls",),
    "grasp.load_grasp_batch": (),
    "grasp.merge_rotation_sweeps": (),
    "grasp.filter_grasps": (),
    "optimizer.select_best": ("calls", "pairs"),
    "sim.scenegen.generate_scene": ("calls", "points"),
    "cli.main": ("calls",),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    metrics = {}
    for span, counts in _LAYER_COUNTS.items():
        for key in counts:
            metrics[f"{span}.{key}"] = ("bytes" if key == "bytes" else "count",
                                        "lower")
        metrics[f"{span}.self_ms"] = ("ms", "lower")
    metrics["geometry.PointIndex.builds"] = ("count", "lower")
    metrics["geometry.PointIndex.points_indexed"] = ("count", "lower")
    metrics["geometry.PointIndex.build_ms"] = ("ms", "lower")
    for task in ("search", "grasp"):
        for key in ("p50_ms", "p90_ms", "self_ms"):
            metrics[f"sim.episodes.run_{task}_episode.{key}"] = ("ms", "lower")
    metrics["traced.ops_per_s"] = ("1/s", "higher")
    metrics["traced.invocation_p50_ms"] = ("ms", "lower")
    return metrics


# metric name -> (unit, better), in BENCHMARK.json order
PER_LAYER = _per_layer()


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name.startswith("traced."):
            continue
        span, key = name.rsplit(".", 1)
        if span == "geometry.PointIndex":
            stats = recorder.stats.get(span, LayerStats())
            value = {"builds": stats.calls, "build_ms": stats.total_s * 1e3,
                     "points_indexed": stats.counts.get("points_indexed", 0)
                     }[key]
        else:
            stats = recorder.stats.get(span, LayerStats())
            if key == "calls":
                value = stats.calls
            elif key == "self_ms":
                value = stats.self_s * 1e3
            elif key == "p50_ms":
                value = _quantile(stats.durations_s, 0.50) * 1e3
            elif key == "p90_ms":
                value = _quantile(stats.durations_s, 0.90) * 1e3
            else:
                value = stats.counts.get(key, 0)
        out[name] = value
    return out
