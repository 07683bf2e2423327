"""Tests for the benchmark's own parts, at tiny sizes."""

import json
import sys
import threading
from pathlib import Path

import pytest

from scenebench import bench, scenes, tracing
from scenebench.judges import MeteredJudge, OracleJudge
from scenescore import geometry, metrics
from scenescore.judge import Judge, JudgeRequest, MissingFixtureEntry
from scenescore.metrics import SceneReport


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload,low_detail", [
    ("judge_bound", False), ("geometry_bound", True),
])
def test_generator_is_deterministic(tmp_path, workload, low_detail):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        scenes.write_scene(scenes.build_layout(workload, seed, 0), tmp_path / name, low_detail)
    a, b, c = (_tree(tmp_path / n) for n in "abc")
    assert a == b
    assert a["scene.json"] != c["scene.json"]
    assert a["entry/counts.csv"] == c["entry/counts.csv"]


def test_scene_index_changes_placements_only():
    first = scenes.build_layout("geometry_bound", 3, 0)
    second = scenes.build_layout("geometry_bound", 3, 1)
    assert [o.kind for o in first.objects] == [o.kind for o in second.objects]
    assert first.oo == second.oo and first.oa == second.oa
    assert [(o.x, o.y) for o in first.objects] != [(o.x, o.y) for o in second.objects]


def test_uv_sphere_triangle_count():
    assert len(scenes.uv_sphere(1.0, 15, 25)) == 2 * 25 * 14
    assert len(scenes.striped_bottom_box((1.0, 1.0, 1.0), 344)) == 700


def _span(i, start, end, parent=None):
    return tracing.Span(i, f"geometry.s{i}", 0, parent, start, end)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),   # overlaps span 1, as from another thread
        _span(3, 8.0, 12.0, parent=0),  # clipped to the parent
        _span(4, 1.5, 2.5, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_nested_call_self_time(monkeypatch):
    ticks = iter([0.0, 2.0, 5.0, 10.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    tracer = tracing.Tracer()
    with tracer.span("metrics.outer"):
        with tracer.span("geometry.inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == outer.id
    assert tracing.self_times(tracer.spans) == [7.0, 3.0]


def test_traced_wraps_every_binding_and_restores():
    original = geometry.mesh_pair_intersects
    tracer = tracing.Tracer()
    a = geometry.box_mesh((1, 1, 1))
    b = geometry.box_mesh((1, 1, 1), center=(3, 0, 0))
    with tracing.traced(tracer):
        assert metrics.mesh_pair_intersects is geometry.mesh_pair_intersects
        assert geometry.mesh_pair_intersects is not original
        geometry.closest_surface_distance(a, b)
    assert geometry.mesh_pair_intersects is original
    assert metrics.mesh_pair_intersects is original
    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("geometry.closest_surface_distance",
                                        "geometry.mesh_pair_intersects")
    assert inner.parent == outer.id
    assert outer.counts == {"tri_pairs_offered": 144}


class _Echo(Judge):
    def judge(self, request):
        return {"satisfied": True}


def test_latency_judge_caps_calls_in_flight():
    judge = MeteredJudge(_Echo(), latency_s=0.01, max_in_flight=4)
    request = JudgeRequest("verify_attribute", {"object_description": "x",
                                                "category": "c", "attribute": "a"})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=lambda: [judge.judge(request) for _ in range(3)])
                   for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert judge.calls == 48 and judge.calls_by_task["verify_attribute"] == 48
    assert judge.in_flight_max == 4
    assert 0.0 < judge.busy_s <= judge.wait_s


def test_oracle_answers_from_truth_and_validates():
    truth = {"descriptions": {"red chair": {"category": "chair", "attributes": ["red"],
                                            "support_type": "ground", "sides": ["front"]}},
             "oo_mappings": {}, "oa_mappings": {}}
    oracle = OracleJudge(truth)
    match = JudgeRequest("match_category", {"object_description": "red chair",
                                            "categories": ["table", "chair"]})
    assert oracle.judge(match) == {"matched": True, "matched_category": "chair"}
    with pytest.raises(MissingFixtureEntry):
        oracle.judge(JudgeRequest("map_oo_relation", {"relation_text": "near"}))


def test_gate_ignores_only_ungated_pairs(tmp_path):
    checker = bench.Run("judge_bound", 0, tmp_path)
    truth = {"colliding_pairs": [["a", "b"], ["c", "d"]], "ungated_pairs": [["c", "d"]]}
    ok = SceneReport("s", "e", "medium", colliding_pairs=[("b", "a")])
    assert checker.check(ok, truth, "ok") == [["c", "d"]]
    assert checker.problems == []
    missing = SceneReport("s", "e", "medium", colliding_pairs=[("c", "d")])
    checker.check(missing, truth, "missing")
    broken = SceneReport("s", "e", "medium", colliding_pairs=[("a", "b")],
                         errors={"matching": "boom"})
    checker.check(broken, truth, "broken")
    assert [p.split(":")[0] for p in checker.problems] == ["missing", "broken"]
    assert (checker.attempted, checker.failed) == (27, 4)


def test_metric_names_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
