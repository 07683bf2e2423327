"""The benchmark's measurement: preparation, the closed load-and-score loop,
the correctness gate and the metric definitions.  ``run.py`` is the command
line; it puts this checkout's ``src`` on the path before importing this.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Called through their modules, so that the traced run's wrappers see them.
from scenescore import annotations, metrics
from scenescore import scene as scene_module
from scenescore.judge import CachingJudge, replay_judge

from scenebench import scenes
from scenebench.judges import MeteredJudge, OracleJudge
from scenebench.tracing import Tracer, scene_self_times, scene_totals, traced, write_spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "scenebench"
SETUP_REPEATS = 3   # loads per scene; the last one is scored
METRIC_KEYS = ("cnt", "atr", "oor", "oar", "col", "sup", "nav", "acc", "oob")


@dataclass(frozen=True)
class Workload:
    latency_s: float    # modelled VLM latency per judge call
    replay: bool        # score through a preloaded CachingJudge transcript


WORKLOADS = {
    "judge_bound": Workload(latency_s=0.05, replay=False),
    "geometry_bound": Workload(latency_s=0.0, replay=True),
}
MAX_IN_FLIGHT = 4   # RemoteJudgeConfig.max_in_flight's default

END_TO_END = {
    "scene_s_p50": "s",
    "scenes_per_min": "scenes/min",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "judge_calls_per_scene": "calls",
    "ok_frac": "ratio",
}

JUDGE_TASKS = ("match_category", "verify_attribute", "support_type", "functional_sides",
               "map_oo_relation", "map_oa_relation")
SHARE_LAYERS = ("judge", "metrics", "geometry", "relations", "scene")
# Traced functions and the per-scene quantities reported for each.
LAYER_FUNCTIONS = (
    *((f"metrics.{f}", "s self_s") for f in (
        "match_objects", "eval_attribute", "eval_oo", "eval_oa", "eval_collision",
        "eval_support", "eval_navigability", "eval_accessibility", "eval_oob")),
    ("geometry.rasterize_triangles_2d", "calls s triangles"),
    ("geometry.floor_cover_mask", "calls s cells"),
    ("geometry.flood_components", "calls s cells"),
    ("geometry.cells_in_rect", "calls s"),
    ("geometry.mesh_pair_intersects", "calls s tri_pairs_offered"),
    ("geometry.ray_mesh_distances", "calls s ray_tri_offered"),
    ("geometry.ray_hit_fraction", "calls s ray_tri_offered"),
    ("geometry.support_hull_check", "calls s"),
    ("geometry.sample_mesh_surface", "s"),
    ("geometry.sample_points_obb", "s"),
    ("geometry.closest_surface_distance", "calls s tri_pairs_offered"),
    *((f"relations.{f}", "calls s") for f in (
        "score_distance_band", "score_object_distance", "score_containment", "score_face",
        "score_side_family", "score_middle_of", "score_surround", "score_room_relation",
        "score_wall_relation")),
    ("relations.count_satisfied", "candidates"),
    ("scene.load_scene", "s"),
    ("scene.SceneInstance.occupancy", "calls s"),
    ("meshio.load_mesh", "calls s bytes"),
    ("annotations.load_entry", "calls s"),
)


def _unit(name: str) -> str:
    quantity = name.rsplit(".", 1)[1]
    if name.startswith("share.") or quantity == "unique_frac":
        return "ratio"
    if name.startswith("trace.") or quantity in ("s", "self_s", "wait_s", "busy_s"):
        return "s"
    return "bytes" if quantity == "bytes" else "count"


def _per_layer() -> dict:
    names = ["judge.calls", *(f"judge.calls.{t}" for t in JUDGE_TASKS),
             "judge.unique_frac", "judge.wait_s", "judge.busy_s", "judge.in_flight_max"]
    names += [f"{fn}.{q}" for fn, quantities in LAYER_FUNCTIONS for q in quantities.split()]
    names += [f"share.{layer}" for layer in SHARE_LAYERS]
    names += ["trace.scene_s_p50_traced", "trace.scene_s_p50_untraced", "trace.overhead_s"]
    return {n: _unit(n) for n in names}


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


class Run:
    """Prepares one workload, then loads and scores its scenes in turn."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.transcript = work / "transcript.jsonl"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    # -- preparation (untimed) --------------------------------------------

    def prepare(self) -> None:
        """Score a low-detail copy of the layout once, untimed.

        It absorbs imports and first calls and, for replay workloads,
        records the judge transcript every scene of the run replays.
        """
        # A process that has scored a full scene has freed large numpy
        # temporaries, which raises glibc's dynamic mmap threshold (up to
        # 32 MiB), so later temporaries of that size reuse heap memory.  The
        # low-detail copy frees none that large; free one here, or the first
        # timed scene pays for fresh pages that later scenes do not.
        np.empty(4_000_000)
        manifest, truth = self.write(-1, low_detail=True)
        scene, entry, _ = self.load(manifest, repeats=1)
        judge = OracleJudge(truth)
        if self.workload.replay:
            judge = CachingJudge(judge, transcript_path=self.transcript)
        report = metrics.evaluate_scene(scene, entry, judge)
        if report.errors:
            self.problems.append(f"warm-up scene: errors {report.errors}")

    def write(self, index: int, low_detail: bool = False):
        layout = scenes.build_layout(self.name, self.seed, index)
        tag = "warmup" if index < 0 else f"scene_{index:03d}"
        manifest = scenes.write_scene(layout, self.work / tag, low_detail)
        truth = json.loads((manifest.parent / "truth.json").read_text(encoding="utf-8"))
        return manifest, truth

    def judge_for(self, truth: dict, tracer=None):
        inner = replay_judge(self.transcript) if self.workload.replay else OracleJudge(truth)
        return MeteredJudge(inner, self.workload.latency_s, MAX_IN_FLIGHT, tracer)

    # -- timed steps --------------------------------------------------------

    def load(self, manifest: Path, repeats: int = SETUP_REPEATS):
        """Load the scene `repeats` times; return the last load and all times."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            scene = scene_module.load_scene(manifest)
            entry = annotations.load_entry(manifest.parent / "entry", scenes.DIFFICULTY)
            times.append(time.perf_counter() - start)
        return scene, entry, times

    def score(self, scene, entry, judge):
        gc.collect()
        start = time.perf_counter()
        try:
            report = metrics.evaluate_scene(scene, entry, judge)
        except Exception as exc:  # a failed scene is counted, the run goes on
            report = None
            self.problems.append(f"evaluate_scene raised {exc!r}")
        return report, time.perf_counter() - start

    # -- correctness --------------------------------------------------------

    def check(self, report, truth: dict, label: str) -> list:
        """Gate one report; return the intended pairs COL missed but does not gate."""
        self.attempted += len(METRIC_KEYS)
        if report is None:
            self.failed += len(METRIC_KEYS)
            return []
        failed = set(report.errors) & set(METRIC_KEYS)
        if "matching" in report.errors:
            failed |= {"cnt", "atr", "oor", "oar"}
        self.failed += len(failed)
        if report.errors:
            self.problems.append(f"{label}: errors {report.errors}")
        for kind in ("cnt", "atr"):
            for spec in getattr(report, kind):
                if not spec.passed:
                    self.problems.append(f"{label}: {kind.upper()} spec '{spec.spec}' failed")
        reported = {frozenset(p) for p in report.colliding_pairs}
        intended = {frozenset(p) for p in truth["colliding_pairs"]}
        ungated = {frozenset(p) for p in truth["ungated_pairs"]}
        if reported - ungated != intended - ungated:
            self.problems.append(
                f"{label}: COL pairs {sorted(map(sorted, reported))}, "
                f"expected {sorted(map(sorted, intended))}"
            )
        return sorted(sorted(p) for p in (intended & ungated) - reported)


def digest(report) -> str:
    text = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def judge_stats(judge) -> dict:
    out = {"judge.calls": judge.calls}
    for task in JUDGE_TASKS:
        out[f"judge.calls.{task}"] = judge.calls_by_task[task]
    out["judge.unique_frac"] = len(judge.hashes) / judge.calls if judge.calls else 0.0
    out["judge.wait_s"] = judge.wait_s
    out["judge.busy_s"] = judge.busy_s
    out["judge.in_flight_max"] = judge.in_flight_max
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(name, seed, work)
        run.prepare()
        tracer = Tracer()
        scene_s, traced_s, setup, calls, digests, layer_rows = [], [], [], [], [], []
        costs = []
        measured = 0.0
        index = 0
        print(f"# {name} seed {seed}: closed loop, 1 client, {seconds:g} s budget"
              f"{', traced' if trace else ''}")
        while True:
            manifest, truth = run.write(index)
            label = f"{name} scene {index}"
            scene, entry, loads = run.load(manifest)
            judge = run.judge_for(truth)
            report, elapsed = run.score(scene, entry, judge)
            missed = run.check(report, truth, label)
            cost = loads[-1] + elapsed
            setup += loads
            scene_s.append(elapsed)
            calls.append(judge.calls)
            digests.append(digest(report) if report else "none")
            line = (f"scene {index:03d} load_s {loads[-1]:.4f} score_s {elapsed:.4f} "
                    f"judge_calls {judge.calls} report {digests[-1][:16]}")
            if missed:
                line += f" col_missed_ungated {missed}"
            if trace:
                tracer.trace = index
                with traced(tracer):
                    t_scene, t_entry, t_loads = run.load(manifest, repeats=1)
                    t_judge = run.judge_for(truth, tracer)
                    t_report, t_elapsed = run.score(t_scene, t_entry, t_judge)
                run.check(t_report, truth, label + " (traced)")
                if t_report is not None and report is not None and digest(t_report) != digests[-1]:
                    run.problems.append(f"{label}: traced report differs from untraced")
                traced_s.append(t_elapsed)
                layer_rows.append({**scene_totals(tracer.spans, index), **judge_stats(t_judge)})
                cost += t_loads[-1] + t_elapsed
                line += f" traced_score_s {t_elapsed:.4f}"
            print(line, flush=True)
            costs.append(cost)
            measured += cost
            index += 1
            if measured + cost > seconds:
                break

        all_digest = hashlib.sha256("".join(digests).encode()).hexdigest()
        print(f"report_digest {name} seed {seed} scenes {index} {all_digest}")
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            values = {n: statistics.median(row.get(n, 0.0) for row in layer_rows)
                      for n in PER_LAYER}
            values["trace.scene_s_p50_traced"] = statistics.median(traced_s)
            values["trace.scene_s_p50_untraced"] = statistics.median(scene_s)
            values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(scene_s)
            units = PER_LAYER
            path = write_spans(tracer.spans, WORK / "traces" / f"{name}-seed{seed}.jsonl")
            print(f"# spans written to {path.relative_to(ROOT)}")
            print_self_time(tracer.spans, index)
        else:
            values = {
                "scene_s_p50": statistics.median(scene_s),
                "scenes_per_min": 60.0 / statistics.median(costs),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_mb,
                "judge_calls_per_scene": float(statistics.median(calls)),
                "ok_frac": 1.0 - run.failed / run.attempted,
            }
            units = END_TO_END
        for problem in run.problems:
            print(f"CHECK FAILED {problem}")
        for n, v in values.items():
            print(f"{n} {v} {units[n]}")
        return {
            "correct": not run.problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_self_time(spans, scenes_traced: int) -> None:
    """Self time per function inside evaluate_scene, summed over the traced scenes."""
    totals: dict = {}
    scene_total = 0.0
    for trace in range(scenes_traced):
        inside, duration = scene_self_times(spans, trace)
        scene_total += duration
        for name, self_s in inside.items():
            totals[name] = totals.get(name, 0.0) + self_s
    print("# self time inside evaluate_scene, share of scene time:")
    for name, v in sorted(totals.items(), key=lambda kv: -kv[1])[:12]:
        print(f"#   {name:45s} {v / scene_total:6.3f}")
