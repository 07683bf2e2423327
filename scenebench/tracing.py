"""Spans around the scorer's public functions, for the traced run only.

``traced(tracer)`` wraps every function in ``TRACED`` in each scenescore
module namespace that binds it: ``from .geometry import x`` copies the name
into ``metrics``, ``relations`` and ``scene``, so calls made inside the
package are seen as well as calls from outside.  Spans nest per thread.  A
span's self time is its duration minus the time its child spans cover.
Work counts are computed from call arguments, so they are work *offered*
to a call, not work it ended up doing.  Spans stay in memory until
``write_spans`` runs at the end of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("annotations", "meshio", "scene", "geometry", "relations", "judge", "metrics")


def _pairs(a):
    return {"tri_pairs_offered": len(a["mesh_a"]) * len(a["mesh_b"])}


def _rays(a):
    return {"ray_tri_offered": len(np.atleast_2d(a["origins"])) * len(a["triangles"])}


# layer -> public function -> work counter over the bound call arguments
TRACED = {
    "annotations": {"load_entry": None},
    "meshio": {"load_mesh": lambda a: {"bytes": os.path.getsize(a["path"])}},
    "scene": {"load_scene": None, "SceneInstance.occupancy": None},
    "geometry": {
        "rasterize_triangles_2d": lambda a: {"triangles": len(a["tris_2d"])},
        "floor_cover_mask": lambda a: {"cells": a["shape"][0] * a["shape"][1]},
        "flood_components": lambda a: {"cells": a["mask"].grid.size},
        "cells_in_rect": None,
        "mesh_pair_intersects": _pairs,
        "ray_mesh_distances": _rays,
        "ray_hit_fraction": _rays,
        "support_hull_check": None,
        "sample_mesh_surface": None,
        "sample_points_obb": None,
        "closest_surface_distance": _pairs,
    },
    "relations": {
        "score_distance_band": None,
        "score_object_distance": None,
        "score_containment": None,
        "score_face": None,
        "score_side_family": None,
        "score_middle_of": None,
        "score_surround": None,
        "score_room_relation": None,
        "score_wall_relation": None,
        "count_satisfied": None,   # counts candidates as they are consumed
    },
    "metrics": {
        "evaluate_scene": None,
        "match_objects": None,
        "eval_attribute": None,
        "eval_oo": None,
        "eval_oa": None,
        "eval_collision": None,
        "eval_support": None,
        "eval_navigability": None,
        "eval_accessibility": None,
        "eval_oob": None,
    },
}
SCENE_SPAN = "metrics.evaluate_scene"


@dataclass
class Span:
    id: int
    name: str               # "<layer>.<function>"
    trace: int              # shared by the spans of one scene
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.trace = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            s = Span(len(self.spans), name, self.trace, stack[-1].id if stack else None)
            self.spans.append(s)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()


def _wrap(fn, name: str, count, tracer: Tracer):
    sig = inspect.signature(fn)
    counts_candidates = name == "relations.count_satisfied"

    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tracer.span(name) as s:
            if count is not None:
                s.counts.update(count(sig.bind(*args, **kwargs).arguments))
            if counts_candidates:
                bound = sig.bind(*args, **kwargs)
                items = bound.arguments["candidate_tuples"]
                bound.arguments["candidate_tuples"] = _counted(items, s)
                return fn(*bound.args, **bound.kwargs)
            return fn(*args, **kwargs)

    return call


def _counted(items, span: Span):
    span.counts["candidates"] = 0
    for item in items:
        span.counts["candidates"] += 1
        yield item


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    modules = {name: importlib.import_module(f"scenescore.{name}") for name in LAYERS}
    undo = []
    try:
        for layer, functions in TRACED.items():
            home = modules[layer]
            for attr, count in functions.items():
                name = f"{layer}.{attr}"
                if "." in attr:  # a method: wrap it on its class
                    cls_name, method = attr.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[method]
                    setattr(owner, method, _wrap(original, name, count, tracer))
                    undo.append((owner, method, original))
                    continue
                original = getattr(home, attr)
                wrapper = _wrap(original, name, count, tracer)
                for module in modules.values():
                    if module.__dict__.get(attr) is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - covered(s.start, s.end, children[s.id]) for s in spans]


def scene_self_times(spans: list[Span], trace: int) -> tuple[dict, float]:
    """Self time per span name inside one scene's evaluate_scene span, and its duration."""
    mine = [s for s in spans if s.trace == trace]
    root = next(s for s in mine if s.name == SCENE_SPAN)
    inside = defaultdict(float)
    for s, self_s in zip(mine, self_times(mine)):
        if root.start <= s.start and s.end <= root.end:
            inside[s.name] += self_s
    return dict(inside), root.end - root.start


def scene_totals(spans: list[Span], trace: int) -> dict:
    """Per-function sums for one scene, plus each layer's share of scene time.

    Keys are ``<span name>.calls``, ``.s``, ``.self_s`` and one per work
    count, and ``share.<layer>``: the layer's self time inside the
    ``evaluate_scene`` span over that span's duration.
    """
    mine = [s for s in spans if s.trace == trace]
    out = defaultdict(float)
    for s, self_s in zip(mine, self_times(mine)):
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.s"] += s.end - s.start
        out[f"{s.name}.self_s"] += self_s
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] += value
    inside, duration = scene_self_times(spans, trace)
    for name, self_s in inside.items():
        out[f"share.{name.split('.')[0]}"] += self_s / duration
    return dict(out)


def write_spans(spans: list[Span], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")
    return path
