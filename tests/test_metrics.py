import dataclasses
import itertools
import json
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import make_box_object, make_room_scene, make_striped_object
from scenescore.annotations import DatasetEntry, parse_spec_line
from scenescore.geometry import ray_hit_fraction
from scenescore import geometry, metrics
from scenescore.judge import (
    Judge,
    JudgeError,
    JudgeRequest,
    MockJudge,
    transcript_hash,
    validate_response,
)
from scenescore.metrics import (
    CategoryAssignment,
    EvalConfig,
    SceneGeometry,
    classify_out_of_bounds,
    eval_accessibility,
    eval_attribute,
    eval_collision,
    eval_count,
    eval_navigability,
    eval_oa,
    eval_oo,
    eval_oob,
    eval_support,
    evaluate_scene,
    match_objects,
    side_band_score,
    support_contacts,
    support_direction,
)
from scenescore.scene import SceneInstance


def match_row(description, categories, matched):
    return {
        "task": "match_category",
        "payload": {"object_description": description, "categories": list(categories)},
        "response": {"matched": matched is not None, "matched_category": matched or ""},
    }


def attribute_row(description, category, attribute, satisfied):
    return {
        "task": "verify_attribute",
        "payload": {
            "object_description": description,
            "category": category,
            "attribute": attribute,
        },
        "response": {"satisfied": satisfied},
    }


def oo_map_row(relation_text, anchor, others, counts, types, sides):
    return {
        "task": "map_oo_relation",
        "payload": {
            "relation_text": relation_text,
            "anchor_category": anchor,
            "other_categories": list(others),
            "other_counts": list(counts),
        },
        "response": {"relation_types": types, "sides": sides}
        if types is not None
        else {"relation_types": None, "reason": "no matching relation"},
    }


def oa_map_row(relation_text, category, arch_ref, floor_ids, rel_type, arch_type,
               floors=()):
    return {
        "task": "map_oa_relation",
        "payload": {
            "relation_text": relation_text,
            "category": category,
            "arch_ref": arch_ref,
            "floor_ids": list(floor_ids),
        },
        "response": {
            "relation_type": rel_type,
            "arch_type": arch_type,
            "specific_floors": list(floors),
        },
    }


def support_row(description, kind):
    return {
        "task": "support_type",
        "payload": {"object_description": description},
        "response": {"support_type": kind},
    }


def sides_row(description, sides):
    return {
        "task": "functional_sides",
        "payload": {"object_description": description},
        "response": {"sides": list(sides)},
    }


CONFIG = EvalConfig(samples=500, seed=7)


class TestMatching:
    def test_beds_and_desk(self):
        objs = [
            make_box_object("b1", [2, 1.6, 0.5], [1.5, 1, 0.25], description="queen bed"),
            make_box_object("b2", [2, 1.6, 0.5], [4.5, 1, 0.25], description="twin bed"),
            make_box_object("d1", [1.2, 0.6, 0.75], [3, 5, 0.375], description="oak desk"),
        ]
        scene = make_room_scene(objects=objs)
        judge = MockJudge(
            [
                match_row("queen bed", ["bed", "desk"], "bed"),
                match_row("twin bed", ["bed", "desk"], "bed"),
                match_row("oak desk", ["bed", "desk"], "desk"),
            ]
        )
        a = match_objects(scene, ["bed", "desk"], judge)
        assert a.by_category == {"bed": ["b1", "b2"], "desk": ["d1"]}
        assert a.unmatched_objects == ()

    def test_unmatched_object(self):
        scene = make_room_scene(
            objects=[make_box_object("s", [2, 0.9, 0.8], [3, 3, 0.4], description="sofa")]
        )
        judge = MockJudge([match_row("sofa", ["bed"], None)])
        a = match_objects(scene, ["bed"], judge)
        assert a.by_category == {"bed": []}
        assert a.unmatched_objects == ("s",)

    def test_empty_scene(self):
        scene = make_room_scene(objects=[])
        a = match_objects(scene, ["bed", "desk"], MockJudge([]))
        assert a.by_category == {"bed": [], "desk": []}

    def test_judge_error_carries_object_id(self):
        scene = make_room_scene(
            objects=[make_box_object("x", [1, 1, 1], [3, 3, 0.5], description="thing")]
        )
        with pytest.raises(JudgeError, match="object 'x'"):
            match_objects(scene, ["bed"], MockJudge([]))


class TestCount:
    def _assignment(self, **kwargs):
        return CategoryAssignment(by_category=kwargs, unmatched_objects=())

    def test_examples(self):
        a = self._assignment(bed=["b1"], chair=[])
        r = eval_count(a, [parse_spec_line("count", "eq,1,bed")])
        assert r[0].passed
        r = eval_count(a, [parse_spec_line("count", "ge,2,chair")])
        assert not r[0].passed
        r = eval_count(a, [parse_spec_line("count", "eq,0,chair")])
        assert r[0].passed


class TestAttribute:
    def test_satisfied_and_not(self):
        scene = make_room_scene(
            objects=[make_box_object("b1", [2, 1.6, 0.5], [3, 3, 0.25], description="red bed")]
        )
        a = CategoryAssignment({"bed": ["b1"]}, ())
        spec = parse_spec_line("attribute", "eq,1,bed,red")
        judge = MockJudge([attribute_row("red bed", "bed", "red", True)])
        assert eval_attribute(scene, a, [spec], judge)[0].passed
        judge = MockJudge([attribute_row("red bed", "bed", "red", False)])
        assert not eval_attribute(scene, a, [spec], judge)[0].passed

    def test_no_instances_auto_fail(self):
        scene = make_room_scene(objects=[])
        a = CategoryAssignment({"bed": []}, ())
        spec = parse_spec_line("attribute", "eq,1,bed,red")
        (r,) = eval_attribute(scene, a, [spec], MockJudge([]))
        assert not r.passed
        assert "no matched instances" in r.reason


class TestOO:
    def _scene(self):
        bed = make_box_object("bed1", [1.6, 2.0, 0.5], [3, 3, 0.25], description="bed")
        ns = make_box_object("ns1", [0.4, 0.4, 0.5], [3 - 0.8 - 0.35, 3, 0.25],
                             description="nightstand")
        return make_room_scene(objects=[bed, ns])

    def test_left_of_fixture_passes(self):
        scene = self._scene()
        a = CategoryAssignment({"bed": ["bed1"], "nightstand": ["ns1"]}, ())
        spec = parse_spec_line("oo", "eq,1,left,0,bed,nightstand")
        judge = MockJudge(
            [oo_map_row("left", "bed", ["nightstand"], [1], ["side_of"], ["left"])]
        )
        (r,) = eval_oo(SceneGeometry(scene, CONFIG), a, [spec], judge)
        assert r.passed and r.satisfied_count == 1

    def test_facing_away_fails(self):
        desk = make_box_object("desk1", [1.2, 0.6, 0.75], [3, 3, 0.375], description="desk")
        chair = make_box_object("chair1", [0.5, 0.5, 0.9], [3, 1.8, 0.45], yaw=180,
                                description="chair")  # faces away from the desk
        scene = make_room_scene(objects=[desk, chair])
        a = CategoryAssignment({"desk": ["desk1"], "chair": ["chair1"]}, ())
        spec = parse_spec_line("oo", "eq,1,facing,0,desk,chair")
        judge = MockJudge([oo_map_row("facing", "desk", ["chair"], [1], ["face"], [None])])
        (r,) = eval_oo(SceneGeometry(scene, CONFIG), a, [spec], judge)
        assert not r.passed

    def test_surround_ring_passes(self):
        table = make_box_object("t", [1, 1, 0.7], [3, 3, 0.35], description="table")
        chairs = [
            make_box_object(f"c{i}", [0.45, 0.45, 0.9],
                            [3 + 1.2 * np.cos(a), 3 + 1.2 * np.sin(a), 0.45],
                            description="chair")
            for i, a in enumerate(np.linspace(0, 2 * np.pi, 4, endpoint=False))
        ]
        scene = make_room_scene(objects=[table] + chairs)
        a = CategoryAssignment(
            {"table": ["t"], "chair": [c.id for c in chairs]}, ()
        )
        spec = parse_spec_line("oo", "eq,1,surround,4,chair,chair,chair,chair,table")
        judge = MockJudge(
            [oo_map_row("surround", "table", ["chair"], [4], ["surround"], [None])]
        )
        (r,) = eval_oo(SceneGeometry(scene, CONFIG), a, [spec], judge)
        assert r.passed and r.satisfied_count == 1 and r.candidate_count == 1

    def test_over_satisfaction_fails_eq(self):
        bed = make_box_object("bed1", [1.6, 2.0, 0.5], [3, 3, 0.25], description="bed")
        n1 = make_box_object("ns1", [0.4, 0.4, 0.5], [1.8, 2.7, 0.25], description="ns")
        n2 = make_box_object("ns2", [0.4, 0.4, 0.5], [1.8, 3.3, 0.25], description="ns")
        scene = make_room_scene(objects=[bed, n1, n2])
        a = CategoryAssignment({"bed": ["bed1"], "nightstand": ["ns1", "ns2"]}, ())
        spec = parse_spec_line("oo", "eq,1,left,0,bed,nightstand")
        judge = MockJudge(
            [oo_map_row("left", "bed", ["nightstand"], [1], ["side_of"], ["left"])]
        )
        (r,) = eval_oo(SceneGeometry(scene, CONFIG), a, [spec], judge)
        assert r.satisfied_count == 2 and not r.passed

    def test_unmappable_fails_with_reason(self):
        scene = self._scene()
        a = CategoryAssignment({"bed": ["bed1"], "nightstand": ["ns1"]}, ())
        spec = parse_spec_line("oo", "eq,1,diagonally,0,bed,nightstand")
        judge = MockJudge(
            [oo_map_row("diagonally", "bed", ["nightstand"], [1], None, None)]
        )
        (r,) = eval_oo(SceneGeometry(scene, CONFIG), a, [spec], judge)
        assert not r.passed and "unmappable" in r.reason

    def test_unmatched_category_fails(self):
        scene = self._scene()
        a = CategoryAssignment({"bed": ["bed1"], "nightstand": []}, ())
        spec = parse_spec_line("oo", "ge,2,left,0,bed,nightstand")
        judge = MockJudge(
            [oo_map_row("left", "bed", ["nightstand"], [1], ["side_of"], ["left"])]
        )
        (r,) = eval_oo(SceneGeometry(scene, CONFIG), a, [spec], judge)
        assert not r.passed and "no matched instances" in r.reason

    def test_conjunction_of_mapped_types(self):
        # "at the foot of" maps to side_of front AND next_to; nightstand is at
        # the bed's front but 1 m away, so next_to fails the conjunction
        bed = make_box_object("bed1", [1.6, 2.0, 0.5], [3, 2, 0.25], description="bed")
        table = make_box_object("tb1", [0.8, 0.4, 0.4], [3, 2 + 1.0 + 0.2 + 1.0, 0.2],
                                description="table")
        scene = make_room_scene(objects=[bed, table])
        a = CategoryAssignment({"bed": ["bed1"], "table": ["tb1"]}, ())
        spec = parse_spec_line("oo", "eq,1,at_the_foot_of,0,bed,table")
        judge = MockJudge(
            [oo_map_row("at_the_foot_of", "bed", ["table"], [1],
                        ["side_of", "next_to"], ["front", None])]
        )
        (r,) = eval_oo(SceneGeometry(scene, CONFIG), a, [spec], judge)
        assert not r.passed  # side_of holds, next_to does not


def listed_oo_tuples(assignment, mapping):
    """`_oo_tuples` written out in full: every combination of every category
    built, their product taken, then the anchor dropped and the cap applied."""
    per_category = []
    for cat, count in zip(mapping["other_categories"], mapping["other_counts"]):
        ids = assignment.instances(cat)
        if len(ids) < count:
            return []
        per_category.append(list(itertools.combinations(ids, count)))
    tuples = []
    for anchor_id in assignment.instances(mapping["anchor_category"]):
        for chosen in itertools.product(*per_category):
            group = [i for combo in chosen for i in combo if i != anchor_id]
            if group:
                tuples.append((anchor_id, group))
    return tuples[: metrics.SURROUND_TUPLE_CAP]


class TestOOTuples:
    def test_matches_full_listing(self):
        rng = np.random.default_rng(11)
        names = ["a", "b", "c", "d"]
        for _ in range(300):
            by_category = {
                c: [f"{c}{i}" for i in range(rng.integers(0, 5))] for c in names
            }
            others = list(rng.choice(names, size=rng.integers(1, 4), replace=False))
            mapping = {
                # the anchor's category is among the others about half the time
                "anchor_category": str(rng.choice(others if rng.random() < 0.5 else names)),
                "other_categories": others,
                "other_counts": [int(rng.integers(1, 4)) for _ in others],
            }
            assignment = CategoryAssignment(by_category, ())
            expected = listed_oo_tuples(assignment, mapping)
            assert list(metrics._oo_tuples(assignment, mapping, "r")) == expected

    def test_capped_stream_memory_stays_small(self):
        # C(26, 8) = 1,562,275 groups of 8 chairs around one table
        assignment = CategoryAssignment(
            {"table": ["t"], "chair": [f"c{i}" for i in range(26)]}, ()
        )
        mapping = {"anchor_category": "table", "other_categories": ["chair"],
                   "other_counts": [8]}
        tracemalloc.start()
        try:
            produced = sum(1 for _ in metrics._oo_tuples(assignment, mapping, "around"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert produced == metrics.SURROUND_TUPLE_CAP
        assert peak < 16 * 2**20


class TestOA:
    def test_against_wall_passes(self):
        shelf = make_box_object("s1", [1.2, 0.4, 2.0], [3, 0.3, 1.0], description="bookshelf")
        scene = make_room_scene(objects=[shelf])
        a = CategoryAssignment({"bookshelf": ["s1"]}, ())
        spec = parse_spec_line("oa", "eq,1,against,bookshelf,wall")
        judge = MockJudge(
            [oa_map_row("against", "bookshelf", "wall", ["floor_room_0"],
                        "against_wall", "wall")]
        )
        (r,) = eval_oa(SceneGeometry(scene, CONFIG), a, [spec], judge)
        assert r.passed and r.satisfied_count == 1

    def test_corner_spec_fails_at_center(self):
        wardrobe = make_box_object("w1", [1, 0.6, 2], [3, 3, 1], description="wardrobe")
        scene = make_room_scene(objects=[wardrobe])
        a = CategoryAssignment({"wardrobe": ["w1"]}, ())
        spec = parse_spec_line("oa", "eq,1,corner,wardrobe,room")
        judge = MockJudge(
            [oa_map_row("corner", "wardrobe", "room", ["floor_room_0"],
                        "corner_room", "room")]
        )
        (r,) = eval_oa(SceneGeometry(scene, CONFIG), a, [spec], judge)
        assert not r.passed

    def test_hang_lamp_at_floor_fails(self):
        lamp = make_box_object("l1", [0.3, 0.3, 0.4], [3, 3, 0.2], description="lamp")
        scene = make_room_scene(objects=[lamp], ceiling=True)
        a = CategoryAssignment({"lamp": ["l1"]}, ())
        spec = parse_spec_line("oa", "eq,1,hang,lamp,ceiling")
        judge = MockJudge(
            [oa_map_row("hang", "lamp", "ceiling", ["floor_room_0"],
                        "hang_ceiling", "ceiling")]
        )
        (r,) = eval_oa(SceneGeometry(scene, CONFIG), a, [spec], judge)
        assert not r.passed

    def test_no_ceiling_fails_with_reason(self):
        lamp = make_box_object("l1", [0.3, 0.3, 0.4], [3, 3, 2.3], description="lamp")
        scene = make_room_scene(objects=[lamp], ceiling=False)
        a = CategoryAssignment({"lamp": ["l1"]}, ())
        spec = parse_spec_line("oa", "eq,1,hang,lamp,ceiling")
        judge = MockJudge(
            [oa_map_row("hang", "lamp", "ceiling", ["floor_room_0"],
                        "hang_ceiling", "ceiling")]
        )
        (r,) = eval_oa(SceneGeometry(scene, CONFIG), a, [spec], judge)
        assert not r.passed and "no ceiling elements" in r.reason

    def test_room_type_reference(self):
        rug = make_box_object("r1", [1.5, 1, 0.02], [3, 3, 0.01], description="rug")
        scene = make_room_scene(objects=[rug], room_type="living_room")
        a = CategoryAssignment({"rug": ["r1"]}, ())
        spec = parse_spec_line("oa", "eq,1,middle,rug,living room")
        judge = MockJudge(
            [oa_map_row("middle", "rug", "living room", ["floor_room_0"],
                        "middle_room", "room")]
        )
        (r,) = eval_oa(SceneGeometry(scene, CONFIG), a, [spec], judge)
        assert r.passed  # "living room" matches room_type "living_room"


class TestCollision:
    def test_two_overlapping(self):
        a = make_box_object("a", [1, 1, 1], [3, 3, 0.5])
        b = make_box_object("b", [1, 1, 1], [3.5, 3, 0.5])
        scene = make_room_scene(objects=[a, b])
        col_ob, col_sc, pairs = eval_collision(SceneGeometry(scene, CONFIG))
        assert col_ob == 100.0 and col_sc and pairs == [("a", "b")]

    def test_all_disjoint(self):
        a = make_box_object("a", [1, 1, 1], [1, 1, 0.5])
        b = make_box_object("b", [1, 1, 1], [4, 4, 0.5])
        scene = make_room_scene(objects=[a, b])
        col_ob, col_sc, pairs = eval_collision(SceneGeometry(scene, CONFIG))
        assert col_ob == 0.0 and not col_sc and pairs == []

    def test_one_pair_of_three(self):
        a = make_box_object("a", [1, 1, 1], [1, 1, 0.5])
        b = make_box_object("b", [1, 1, 1], [1.5, 1, 0.5])
        c = make_box_object("c", [1, 1, 1], [4.5, 4.5, 0.5])
        scene = make_room_scene(objects=[a, b, c])
        col_ob, col_sc, _ = eval_collision(SceneGeometry(scene, CONFIG))
        assert col_ob == pytest.approx(100 * 2 / 3)
        assert col_sc == (col_ob > 0)

    def test_touching_is_not_collision(self):
        table = make_box_object("t", [1, 1, 0.7], [3, 3, 0.35])
        book = make_box_object("bk", [0.2, 0.3, 0.05], [3, 3, 0.7 + 0.025])
        scene = make_room_scene(objects=[table, book])
        col_ob, col_sc, _ = eval_collision(SceneGeometry(scene, CONFIG))
        assert col_ob == 0.0 and not col_sc


class TestSupport:
    def test_box_resting_on_floor(self):
        box = make_box_object("b", [1, 1, 1], [3, 3, 0.5], description="box")
        scene = make_room_scene(objects=[box])
        pct, verdicts = eval_support(scene, MockJudge([support_row("box", "ground")]))
        assert verdicts == {"b": True} and pct == 100.0

    def test_floating_box_unsupported(self):
        box = make_box_object("b", [1, 1, 1], [3, 3, 0.6], description="box")  # 0.1 m up
        scene = make_room_scene(objects=[box])
        pct, verdicts = eval_support(scene, MockJudge([support_row("box", "ground")]))
        assert verdicts == {"b": False} and pct == 0.0

    def test_overhang_beyond_half_unsupported(self):
        table = make_box_object("t", [1.0, 1.0, 0.7], [3, 3, 0.35], description="table")
        # box 1 m wide, 60% overhanging the table edge at x = 3.5
        box = make_striped_object("bk", [1.0, 0.4, 0.2],
                                  [3.5 + 0.1, 3, 0.7 + 0.1], description="box")
        scene = make_room_scene(objects=[table, box])
        judge = MockJudge([support_row("table", "ground"), support_row("box", "object")])
        pct, verdicts = eval_support(scene, judge)
        assert verdicts["bk"] is False

    def test_small_overhang_supported(self):
        table = make_box_object("t", [1.0, 1.0, 0.7], [3, 3, 0.35], description="table")
        box = make_striped_object("bk", [1.0, 0.4, 0.2],
                                  [3.5 - 0.3, 3, 0.7 + 0.1], description="box")  # 20% over
        scene = make_room_scene(objects=[table, box])
        judge = MockJudge([support_row("table", "ground"), support_row("box", "object")])
        pct, verdicts = eval_support(scene, judge)
        assert verdicts["bk"] is True

    def test_ceiling_lamp_single_contact(self):
        lamp = make_box_object("l", [0.3, 0.3, 0.4], [3, 3, 2.5 - 0.2], description="lamp")
        scene = make_room_scene(objects=[lamp], ceiling=True)
        pct, verdicts = eval_support(scene, MockJudge([support_row("lamp", "ceiling")]))
        assert verdicts == {"l": True}

    def test_wall_mirror(self):
        mirror = make_box_object("m", [0.6, 0.02, 0.9], [3, 0.01, 1.5],
                                 description="mirror")  # back at y=0 wall
        scene = make_room_scene(objects=[mirror])
        pct, verdicts = eval_support(scene, MockJudge([support_row("mirror", "wall")]))
        assert verdicts == {"m": True}

    def test_support_direction_vectors(self):
        obj = make_box_object("o", [1, 1, 1], [0, 0, 0.5], yaw=90)
        np.testing.assert_allclose(support_direction(obj, "ground"), [0, 0, -1], atol=1e-12)
        np.testing.assert_allclose(support_direction(obj, "ceiling"), [0, 0, 1], atol=1e-12)
        # front rotated to -x, so backward is +x
        np.testing.assert_allclose(support_direction(obj, "wall"), [1, 0, 0], atol=1e-9)


class TestNavigability:
    def test_empty_room(self):
        scene = make_room_scene()
        nav, detail = eval_navigability(scene.occupancy(0.05))
        assert nav == 1.0 and not detail["degenerate"]

    def test_bisected_room(self):
        # wall-to-wall sofa splits the 6 m room at y = 3.6 into 60/40
        sofa = make_box_object("s", [6.0, 0.8, 0.8], [3, 3.6, 0.4])
        scene = make_room_scene(objects=[sofa])
        nav, _ = eval_navigability(scene.occupancy(0.05))
        free_below = (3.6 - 0.4) / (6 - 0.8)  # fraction of free area below the sofa
        assert nav == pytest.approx(free_below, abs=0.01)

    def test_fully_occupied(self):
        slab = make_box_object("slab", [6.2, 6.2, 0.5], [3, 3, 0.25])
        scene = make_room_scene(objects=[slab])
        nav, detail = eval_navigability(scene.occupancy(0.05))
        assert nav == 0.0 and detail["degenerate"]


class TestAccessibility:
    def test_sofa_front_open(self):
        sofa = make_box_object("s", [2, 0.9, 0.8], [3, 1.0, 0.4], description="sofa")
        scene = make_room_scene(objects=[sofa])
        judge = MockJudge([sides_row("sofa", ["front"])])
        occupancy = scene.occupancy(CONFIG.resolution)
        scores, mean = eval_accessibility(scene, occupancy, judge)
        assert scores["s"] == 1.0 and mean == 1.0

    def test_wardrobe_flush_blocked(self):
        w1 = make_box_object("w1", [1, 0.6, 2], [3, 3, 1], description="wardrobe")
        w2 = make_box_object("w2", [1, 0.6, 2], [3, 3.6, 1], description="blocker",
                             yaw=180)  # flush against w1's front
        scene = make_room_scene(objects=[w1, w2])
        judge = MockJudge([sides_row("wardrobe", ["front"]), sides_row("blocker", [])])
        occupancy = scene.occupancy(CONFIG.resolution)
        scores, mean = eval_accessibility(scene, occupancy, judge)
        assert scores["w1"] == 0.0
        assert scores["w2"] is None  # no functional sides: excluded
        assert mean == 0.0

    def test_best_side_wins(self):
        bed = make_box_object("b", [1.6, 2, 0.5], [3, 3, 0.25], description="bed")
        blocker = make_box_object("x", [0.6, 2, 0.5], [3 - 0.8 - 0.3, 3, 0.25],
                                  description="chest")  # blocks the left side
        scene = make_room_scene(objects=[bed, blocker])
        judge = MockJudge([sides_row("bed", ["left", "right"]), sides_row("chest", [])])
        occupancy = scene.occupancy(CONFIG.resolution)
        scores, mean = eval_accessibility(scene, occupancy, judge)
        assert scores["b"] == 1.0  # right side is free

    def test_band_score_partially_blocked(self):
        sofa = make_box_object("s", [2, 0.9, 0.8], [3, 1.0, 0.4], description="sofa")
        table = make_box_object("t", [2, 0.4, 0.4], [3, 1.0 + 0.45 + 0.2 + 0.05, 0.2],
                                description="table")
        scene = make_room_scene(objects=[sofa, table])
        s = side_band_score(scene.occupancy(0.05), sofa, "front", 0.5)
        assert 0.0 < s < 1.0

    def test_leave_one_out_restores_full_mask(self):
        # overlapping, rotated and wall-crossing footprints
        objs = [
            make_box_object("a", [2, 0.9, 0.8], [3, 1.0, 0.4]),
            make_box_object("b", [1, 1, 0.5], [3.5, 1.2, 0.25]),
            make_box_object("c", [1, 1, 1], [4.5, 3, 0.5], yaw=30),
            make_box_object("d", [1, 1, 1], [5.5, 3, 0.5]),
            make_box_object("e", [1, 1, 1], [6.0, 5.5, 0.5]),
        ]
        occupancy = make_room_scene(objects=objs).occupancy(0.05)
        for o in objs:
            restored = occupancy.occupied_without(o.id) | occupancy.object_grids[o.id]
            np.testing.assert_array_equal(restored, occupancy.mask.grid)


class TestOOB:
    def test_centered_in_bounds(self):
        box = make_box_object("b", [1, 1, 1], [3, 3, 0.5], description="box")
        scene = make_room_scene(objects=[box])
        pct, flags = eval_oob(scene, CONFIG)
        assert flags == {"b": False} and pct == 0.0

    def test_fully_outside(self):
        box = make_box_object("b", [1, 1, 1], [9, 9, 0.5], description="box")
        scene = make_room_scene(objects=[box])
        pct, flags = eval_oob(scene, CONFIG)
        assert flags == {"b": True} and pct == 100.0

    def test_small_overhang_is_out(self):
        # ~8% of the surface hangs past the floor edge at x=6
        box = make_box_object("b", [1, 1, 1], [6 - 0.45, 3, 0.5], description="box")
        scene = make_room_scene(objects=[box])
        pct, flags = eval_oob(scene, EvalConfig(samples=2000, seed=3))
        assert flags["b"] is True

    def test_classification_thresholds(self):
        assert not classify_out_of_bounds(1.00)
        assert not classify_out_of_bounds(0.99)
        assert classify_out_of_bounds(0.98)

    def test_exact_fraction_through_ray_pipeline(self):
        scene = make_room_scene()
        floor_tris = np.concatenate([f.mesh.triangles for f in scene.floors])
        inside = np.tile([3.0, 3.0, 0.5], (99, 1))
        outside = np.array([[9.0, 9.0, 0.5]])
        frac = ray_hit_fraction(np.vstack([inside, outside]), [0, 0, -1], floor_tris)
        assert frac == pytest.approx(0.99, abs=1e-12)
        assert not classify_out_of_bounds(frac)

    def test_points_on_floor_plane_hit(self):
        # bottom-face samples of a resting object start on the floor itself
        scene = make_room_scene()
        floor_tris = np.concatenate([f.mesh.triangles for f in scene.floors])
        on_floor = np.array([[3.0, 3.0, 0.0], [1.0, 2.0, 0.0], [0.5, 5.5, 0.0]])
        assert ray_hit_fraction(on_floor, [0, 0, -1], floor_tris) == 1.0


def full_fixture():
    bed = make_box_object("bed1", [1.6, 2.0, 0.5], [3, 1.2, 0.25], description="queen bed")
    ns = make_box_object("ns1", [0.4, 0.4, 0.5], [3 - 0.8 - 0.3, 1.2, 0.25],
                         description="wooden nightstand")
    scene = make_room_scene(objects=[bed, ns])
    entry_specs = {
        "counts": ["eq,1,bed", "eq,1,nightstand"],
        "attributes": ["eq,1,nightstand,wooden"],
        "oo": ["eq,1,left,0,bed,nightstand"],
        "oa": ["eq,1,inside,bed,room"],
    }
    entry = DatasetEntry(
        id="fixture",
        difficulty="easy",
        description="A bedroom with a bed and a wooden nightstand to its left.",
        counts=tuple(parse_spec_line("count", l) for l in entry_specs["counts"]),
        attributes=tuple(parse_spec_line("attribute", l) for l in entry_specs["attributes"]),
        oo_relations=tuple(parse_spec_line("oo", l) for l in entry_specs["oo"]),
        oa_relations=tuple(parse_spec_line("oa", l) for l in entry_specs["oa"]),
    )
    judge = MockJudge(
        [
            match_row("queen bed", ["bed", "nightstand"], "bed"),
            match_row("wooden nightstand", ["bed", "nightstand"], "nightstand"),
            attribute_row("wooden nightstand", "nightstand", "wooden", True),
            oo_map_row("left", "bed", ["nightstand"], [1], ["side_of"], ["left"]),
            oa_map_row("inside", "bed", "room", ["floor_room_0"], "inside_room", "room"),
            support_row("queen bed", "ground"),
            support_row("wooden nightstand", "ground"),
            sides_row("queen bed", ["front", "left", "right"]),
            sides_row("wooden nightstand", ["front"]),
        ]
    )
    return scene, entry, judge


class TestEvaluateScene:
    def test_all_fidelity_passes(self):
        scene, entry, judge = full_fixture()
        report = evaluate_scene(scene, entry, judge, CONFIG)
        assert report.errors == {}
        assert report.cnt_percent == 100.0
        assert report.atr_percent == 100.0
        assert report.oor_percent == 100.0
        assert report.oar_percent == 100.0
        assert report.col_ob == 0.0 and report.col_sc is False
        assert report.sup == 100.0
        assert report.nav == 1.0
        assert report.acc == 1.0
        assert report.oob == 0.0

    def test_deterministic_reports(self):
        scene, entry, judge = full_fixture()
        r1 = evaluate_scene(scene, entry, judge, CONFIG)
        r2 = evaluate_scene(scene, entry, judge, CONFIG)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
            r2.to_dict(), sort_keys=True
        )
        assert r1.judge_transcript_hash == r2.judge_transcript_hash

    def test_deleting_bed_fails_dependents(self):
        scene, entry, judge = full_fixture()
        smaller = SceneInstance(
            [o for o in scene.objects if o.id != "bed1"], scene.architecture, scene.rooms
        )
        report = evaluate_scene(smaller, entry, judge, CONFIG)
        cnt_by_spec = {r.spec: r.passed for r in report.cnt}
        assert cnt_by_spec["eq,1,bed"] is False
        assert cnt_by_spec["eq,1,nightstand"] is True
        oo_by_spec = {r.spec: r for r in report.oor}
        assert not oo_by_spec["eq,1,left,0,bed,nightstand"].passed
        oa_by_spec = {r.spec: r for r in report.oar}
        assert not oa_by_spec["eq,1,inside,bed,room"].passed

    def test_count_monotone_under_deletion(self):
        scene, entry, judge = full_fixture()
        full = evaluate_scene(scene, entry, judge, CONFIG)
        smaller = SceneInstance(
            [o for o in scene.objects if o.id != "bed1"], scene.architecture, scene.rooms
        )
        partial = evaluate_scene(smaller, entry, judge, CONFIG)
        for spec_full, spec_partial in zip(full.cnt, partial.cnt):
            if spec_full.spec.split(",")[0] in ("eq", "ge", "gt"):
                assert spec_partial.passed <= spec_full.passed

    def test_empty_scene_empty_annotations(self):
        scene = make_room_scene(objects=[])
        entry = DatasetEntry("empty", "easy", "An empty room.", (), (), (), ())
        report = evaluate_scene(scene, entry, MockJudge([]), CONFIG)
        assert report.cnt_percent is None
        assert report.col_ob == 0.0 and report.col_sc is False
        assert report.nav == 1.0
        assert report.sup is None and report.acc is None and report.oob is None

    @pytest.mark.parametrize("resolution", [0.0, -0.05, float("nan")])
    def test_non_positive_resolution_recorded(self, resolution):
        scene, entry, judge = full_fixture()
        # without functional-sides rows, an ACC judge call would be the error
        judge.table = {k: v for k, v in judge.table.items() if k[0] != "functional_sides"}
        config = EvalConfig(samples=CONFIG.samples, seed=CONFIG.seed, resolution=resolution)
        report = evaluate_scene(scene, entry, judge, config)
        assert report.errors == {
            "nav": "resolution must be > 0",
            "acc": "resolution must be > 0",
        }
        assert report.nav is None and report.acc is None
        assert report.cnt_percent == 100.0 and report.oob == 0.0

    def test_infinite_resolution_recorded(self):
        scene, entry, judge = full_fixture()
        judge.table = {k: v for k, v in judge.table.items() if k[0] != "functional_sides"}
        config = EvalConfig(samples=CONFIG.samples, seed=CONFIG.seed, resolution=float("inf"))
        report = evaluate_scene(scene, entry, judge, config)
        assert report.errors == {
            "nav": "resolution must be finite",
            "acc": "resolution must be finite",
        }

    @pytest.mark.parametrize("samples", [0, -5, 2.5, True, "1000"])
    def test_invalid_samples_rejected(self, samples):
        # an invalid count would score every sampled relation 0 with no error
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            EvalConfig(samples=samples)

    def test_oversized_grid_recorded(self):
        scene, entry, judge = full_fixture()
        judge.table = {k: v for k, v in judge.table.items() if k[0] != "functional_sides"}
        # a 6 m floor at 0.1 mm cells would need 3.6e9 cells per grid
        config = EvalConfig(samples=CONFIG.samples, seed=CONFIG.seed, resolution=1e-4)
        report = evaluate_scene(scene, entry, judge, config)
        assert set(report.errors) == {"nav", "acc"}
        assert report.errors["acc"] == report.errors["nav"]
        assert "cells at resolution 0.0001 m exceeds" in report.errors["nav"]
        assert "floor extent 6 x 6 m" in report.errors["nav"]

    def test_config_fields_are_the_recorded_config(self):
        scene = make_room_scene(objects=[])
        entry = DatasetEntry("empty", "easy", "An empty room.", (), (), (), ())
        report = evaluate_scene(scene, entry, MockJudge([]), CONFIG)
        assert report.to_dict()["config"] == dataclasses.asdict(CONFIG)

    def test_floorless_scene_recorded(self):
        scene, entry, judge = full_fixture()
        scene = SceneInstance(scene.objects, scene.walls, [])
        report = evaluate_scene(scene, entry, judge, CONFIG)
        assert report.errors["nav"] == report.errors["acc"] == "at least one floor is required"

    def test_judge_failure_recorded_not_fatal(self):
        scene, entry, _ = full_fixture()
        report = evaluate_scene(scene, entry, MockJudge([]), CONFIG)
        assert "matching" in report.errors
        assert "sup" in report.errors
        assert report.nav == 1.0  # geometry-only metrics still ran
        assert report.col_ob == 0.0


class CountingJudge(Judge):
    """Counts calls per task and the most calls in flight at once."""

    def __init__(self, inner, delay_s=0.0):
        self.inner = inner
        self.delay_s = delay_s
        self.calls = Counter()
        self.in_flight = 0
        self.in_flight_max = 0
        self._lock = threading.Lock()

    def judge(self, request):
        with self._lock:
            self.calls[request.task] += 1
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
        try:
            time.sleep(self.delay_s)
            return self.inner.judge(request)
        finally:
            with self._lock:
                self.in_flight -= 1


def serial_report(monkeypatch, scene, entry, judge):
    """The report with nothing prefetched: each request is asked where it is read."""
    with monkeypatch.context() as m:
        m.setattr(metrics._SceneJudge, "prefetch", lambda self, requests: None)
        return evaluate_scene(scene, entry, judge, CONFIG)


def drop_match_row(judge, description):
    judge.table = {
        (task, payload): response for (task, payload), response in judge.table.items()
        if task != "match_category"
        or json.loads(payload)["object_description"] != description
    }


class TestJudgeDispatch:
    def test_identical_objects_ask_once(self):
        chairs = [
            make_box_object(f"chair_{i}", [0.5, 0.5, 0.9], [0.5 + 0.6 * i, 3, 0.45],
                            description="wooden chair")
            for i in range(10)
        ]
        scene = make_room_scene(size=(7.0, 6.0), objects=chairs)
        entry = DatasetEntry(
            "chairs", "easy", "Ten wooden chairs in a row.",
            (parse_spec_line("count", "eq,10,chair"),),
            (parse_spec_line("attribute", "eq,10,chair,wooden"),), (), (),
        )
        judge = CountingJudge(MockJudge([
            match_row("wooden chair", ["chair"], "chair"),
            attribute_row("wooden chair", "chair", "wooden", True),
            support_row("wooden chair", "ground"),
            sides_row("wooden chair", ["front"]),
        ]))
        report = evaluate_scene(scene, entry, judge, CONFIG)
        assert report.errors == {}
        assert report.cnt_percent == 100.0 and report.atr_percent == 100.0
        assert judge.calls == {
            "match_category": 1, "verify_attribute": 1, "support_type": 1, "functional_sides": 1,
        }

    def test_requests_overlap(self):
        scene, entry, mock = full_fixture()
        judge = CountingJudge(mock, delay_s=0.05)
        report = evaluate_scene(scene, entry, judge, CONFIG)
        assert report.errors == {}
        assert judge.in_flight_max > 1

    def test_report_equals_serial(self, monkeypatch):
        scene, entry, judge = full_fixture()
        report = evaluate_scene(scene, entry, judge, CONFIG)
        serial = serial_report(monkeypatch, scene, entry, judge)
        assert json.dumps(report.to_dict()) == json.dumps(serial.to_dict())
        # every fixture row is read once: the hash of the whole table
        expected = {}
        for (task, payload), response in judge.table.items():
            request = JudgeRequest(task, json.loads(payload))
            expected[request.content_hash] = validate_response(request, response)
        assert report.judge_transcript_hash == transcript_hash(expected)

    def test_failed_match_names_object(self, monkeypatch):
        scene, entry, judge = full_fixture()
        drop_match_row(judge, "wooden nightstand")
        report = evaluate_scene(scene, entry, judge, CONFIG)
        assert "object 'ns1'" in report.errors["matching"]
        assert report.to_dict() == serial_report(monkeypatch, scene, entry, judge).to_dict()

    def test_unread_failure_changes_nothing(self, monkeypatch):
        scene, entry, judge = full_fixture()
        drop_match_row(judge, "wooden nightstand")
        with_mapping = evaluate_scene(scene, entry, judge, CONFIG)
        # matching fails, so OOR never reads its mapping
        judge.table = {k: v for k, v in judge.table.items() if k[0] != "map_oo_relation"}
        without_mapping = evaluate_scene(scene, entry, judge, CONFIG)
        assert without_mapping.to_dict() == with_mapping.to_dict()
        assert set(without_mapping.errors) == {"matching"}


def distance_fixture():
    """A table, three stools and a bookshelf scored by next_to, near and against."""
    objects = [
        make_box_object("t1", [1.0, 1.0, 0.75], [3.0, 3.0, 0.375], description="table"),
        make_box_object("s1", [0.4, 0.4, 0.45], [4.0, 3.0, 0.225], description="stool a"),
        make_box_object("s2", [0.4, 0.4, 0.45], [5.0, 3.0, 0.225], description="stool b"),
        make_box_object("s3", [0.4, 0.4, 0.45], [3.0, 1.2, 0.225], yaw=30.0,
                        description="stool c"),
        make_box_object("b1", [1.2, 0.4, 2.0], [2.0, 0.3, 1.0], description="bookshelf"),
    ]
    scene = make_room_scene(objects=objects)
    specs = {
        "counts": ["eq,1,table", "eq,3,stool", "eq,1,bookshelf"],
        "oo": ["ge,2,near,0,stool,stool", "ge,1,next_to,0,table,stool"],
        "oa": ["eq,1,against,bookshelf,wall", "ge,1,near,stool,wall"],
    }
    entry = DatasetEntry(
        id="distances",
        difficulty="medium",
        description="A table with stools around it and a bookshelf against the wall.",
        counts=tuple(parse_spec_line("count", l) for l in specs["counts"]),
        attributes=(),
        oo_relations=tuple(parse_spec_line("oo", l) for l in specs["oo"]),
        oa_relations=tuple(parse_spec_line("oa", l) for l in specs["oa"]),
    )
    categories = ["table", "stool", "bookshelf"]
    rows = [
        oo_map_row("near", "stool", ["stool"], [1], ["near"], [None]),
        oo_map_row("next_to", "table", ["stool"], [1], ["next_to"], [None]),
        oa_map_row("against", "bookshelf", "wall", ["floor_room_0"], "against_wall", "wall"),
        oa_map_row("near", "stool", "wall", ["floor_room_0"], "near", "wall"),
    ]
    for obj in objects:
        category = obj.description.split()[0]
        rows += [
            match_row(obj.description, categories, category),
            support_row(obj.description, "ground"),
            sides_row(obj.description, ["front"]),
        ]
    return scene, entry, MockJudge(rows)


def surround_fixture():
    """A table ringed by four chairs, a fifth chair apart, and two OOR specs
    whose candidate groups come from `_oo_tuples`: a surround ring, and a
    chair next to two chairs, where the anchor's category is among the others."""
    chair_at = [(3.9, 3.0), (3.0, 3.9), (2.1, 3.0), (3.1, 2.0), (5.2, 5.2)]
    objects = [
        make_box_object("t1", [0.8, 0.8, 0.75], [3.0, 3.0, 0.375], description="table"),
        *(
            make_box_object(f"c{i + 1}", [0.45, 0.45, 0.9], [x, y, 0.45], description="chair")
            for i, (x, y) in enumerate(chair_at)
        ),
    ]
    scene = make_room_scene(objects=objects)
    specs = {
        "counts": ["eq,1,table", "eq,5,chair"],
        "oo": ["ge,1,surround,4,chair,chair,chair,chair,table", "ge,2,next_to,0,chair,chair,chair"],
    }
    entry = DatasetEntry(
        id="surround",
        difficulty="hard",
        description="Four chairs around a table, each next to two others, and one more chair.",
        counts=tuple(parse_spec_line("count", l) for l in specs["counts"]),
        attributes=(),
        oo_relations=tuple(parse_spec_line("oo", l) for l in specs["oo"]),
        oa_relations=(),
    )
    categories = ["table", "chair"]
    rows = [
        oo_map_row("surround", "table", ["chair"], [4], ["surround"], [None]),
        oo_map_row("next_to", "chair", ["chair"], [2], ["next_to"], [None]),
    ]
    for description in categories:
        rows += [
            match_row(description, categories, description),
            support_row(description, "ground"),
            sides_row(description, ["front"]),
        ]
    return scene, entry, MockJudge(rows)


# `to_dict()` of the two fixtures as scored before the bounds-first distance
# search and the pair cache; a change that only makes scoring faster keeps them.
FULL_FIXTURE_REPORT = {
    "acc_scores": {
        "bed1": 1.0,
        "ns1": 1.0
    },
    "colliding_pairs": [],
    "config": {
        "resolution": 0.05,
        "samples": 500,
        "seed": 7
    },
    "difficulty": "easy",
    "entry_id": "fixture",
    "errors": {},
    "judge_transcript_hash": "92458ab441b8c2a329f3f2e314c7173113796351313d56ba9176c2f3eb2d3d3f",
    "metrics": {
        "acc": 1.0,
        "atr": 100.0,
        "cnt": 100.0,
        "col_ob": 0.0,
        "col_sc": 0.0,
        "nav": 1.0,
        "oar": 100.0,
        "oob": 0.0,
        "oor": 100.0,
        "sup": 100.0
    },
    "nav_detail": {
        "degenerate": False,
        "largest": 12516,
        "total_free": 12516
    },
    "oob_flags": {
        "bed1": False,
        "ns1": False
    },
    "scene_id": "fixture",
    "specs": {
        "atr": [
            {
                "candidate_count": 1,
                "passed": True,
                "reason": "",
                "satisfied_count": 1,
                "spec": "eq,1,nightstand,wooden"
            }
        ],
        "cnt": [
            {
                "candidate_count": 1,
                "passed": True,
                "reason": "",
                "satisfied_count": 1,
                "spec": "eq,1,bed"
            },
            {
                "candidate_count": 1,
                "passed": True,
                "reason": "",
                "satisfied_count": 1,
                "spec": "eq,1,nightstand"
            }
        ],
        "oar": [
            {
                "candidate_count": 1,
                "passed": True,
                "reason": "",
                "satisfied_count": 1,
                "spec": "eq,1,inside,bed,room"
            }
        ],
        "oor": [
            {
                "candidate_count": 1,
                "passed": True,
                "reason": "",
                "satisfied_count": 1,
                "spec": "eq,1,left,0,bed,nightstand"
            }
        ]
    },
    "sup_verdicts": {
        "bed1": True,
        "ns1": True
    },
    "unmatched_objects": []
}

DISTANCE_FIXTURE_REPORT = {
    "acc_scores": {
        "b1": 1.0,
        "s1": 1.0,
        "s2": 1.0,
        "s3": 1.0,
        "t1": 1.0
    },
    "colliding_pairs": [],
    "config": {
        "resolution": 0.05,
        "samples": 500,
        "seed": 7
    },
    "difficulty": "medium",
    "entry_id": "distances",
    "errors": {},
    "judge_transcript_hash": "6bbe91528ae24759d52d7d9353d4c45389495a1a28d868aadfde4da973284028",
    "metrics": {
        "acc": 1.0,
        "atr": None,
        "cnt": 100.0,
        "col_ob": 0.0,
        "col_sc": 0.0,
        "nav": 1.0,
        "oar": 100.0,
        "oob": 0.0,
        "oor": 100.0,
        "sup": 100.0
    },
    "nav_detail": {
        "degenerate": False,
        "largest": 12945,
        "total_free": 12945
    },
    "oob_flags": {
        "b1": False,
        "s1": False,
        "s2": False,
        "s3": False,
        "t1": False
    },
    "scene_id": "distances",
    "specs": {
        "atr": [],
        "cnt": [
            {
                "candidate_count": 1,
                "passed": True,
                "reason": "",
                "satisfied_count": 1,
                "spec": "eq,1,table"
            },
            {
                "candidate_count": 3,
                "passed": True,
                "reason": "",
                "satisfied_count": 3,
                "spec": "eq,3,stool"
            },
            {
                "candidate_count": 1,
                "passed": True,
                "reason": "",
                "satisfied_count": 1,
                "spec": "eq,1,bookshelf"
            }
        ],
        "oar": [
            {
                "candidate_count": 4,
                "passed": True,
                "reason": "",
                "satisfied_count": 1,
                "spec": "eq,1,against,bookshelf,wall"
            },
            {
                "candidate_count": 12,
                "passed": True,
                "reason": "",
                "satisfied_count": 2,
                "spec": "ge,1,near,stool,wall"
            }
        ],
        "oor": [
            {
                "candidate_count": 6,
                "passed": True,
                "reason": "",
                "satisfied_count": 4,
                "spec": "ge,2,near,0,stool,stool"
            },
            {
                "candidate_count": 3,
                "passed": True,
                "reason": "",
                "satisfied_count": 1,
                "spec": "ge,1,next_to,0,table,stool"
            }
        ]
    },
    "sup_verdicts": {
        "b1": True,
        "s1": True,
        "s2": True,
        "s3": True,
        "t1": True
    },
    "unmatched_objects": []
}

# `to_dict()` of the surround fixture as scored before the OOR tuples were
# generated lazily and the surround breakdown was dropped.
SURROUND_FIXTURE_REPORT = {
    "acc_scores": {
        "c1": 1.0,
        "c2": 1.0,
        "c3": 1.0,
        "c4": 0.6363636363636364,
        "c5": 1.0,
        "t1": 0.6875
    },
    "colliding_pairs": [],
    "config": {
        "resolution": 0.05,
        "samples": 500,
        "seed": 7
    },
    "difficulty": "hard",
    "entry_id": "surround",
    "errors": {},
    "judge_transcript_hash": "bf76a5ddd4fab2aff40e2b18c3da99a7f50502b26adf1d76778ef23d780e0e0d",
    "metrics": {
        "acc": 0.8873106060606061,
        "atr": None,
        "cnt": 100.0,
        "col_ob": 0.0,
        "col_sc": 0.0,
        "nav": 1.0,
        "oar": None,
        "oob": 0.0,
        "oor": 100.0,
        "sup": 100.0
    },
    "nav_detail": {
        "degenerate": False,
        "largest": 13135,
        "total_free": 13135
    },
    "oob_flags": {
        "c1": False,
        "c2": False,
        "c3": False,
        "c4": False,
        "c5": False,
        "t1": False
    },
    "scene_id": "surround",
    "specs": {
        "atr": [],
        "cnt": [
            {
                "candidate_count": 1,
                "passed": True,
                "reason": "",
                "satisfied_count": 1,
                "spec": "eq,1,table"
            },
            {
                "candidate_count": 5,
                "passed": True,
                "reason": "",
                "satisfied_count": 5,
                "spec": "eq,5,chair"
            }
        ],
        "oar": [],
        "oor": [
            {
                "candidate_count": 5,
                "passed": True,
                "reason": "",
                "satisfied_count": 1,
                "spec": "ge,1,surround,4,chair,chair,chair,chair,table"
            },
            {
                "candidate_count": 50,
                "passed": True,
                "reason": "",
                "satisfied_count": 12,
                "spec": "ge,2,next_to,0,chair,chair,chair"
            }
        ]
    },
    "sup_verdicts": {
        "c1": True,
        "c2": True,
        "c3": True,
        "c4": True,
        "c5": True,
        "t1": True
    },
    "unmatched_objects": []
}


def count_mesh_pair_tests(monkeypatch):
    """Count mesh_pair_intersects calls per unordered pair of meshes."""
    counts = Counter()
    original = geometry.mesh_pair_intersects

    def counting(mesh_a, mesh_b):
        counts[frozenset((id(mesh_a), id(mesh_b)))] += 1
        return original(mesh_a, mesh_b)

    monkeypatch.setattr(geometry, "mesh_pair_intersects", counting)
    monkeypatch.setattr(metrics, "mesh_pair_intersects", counting)
    return counts


class TestPairCache:
    @pytest.mark.parametrize("fixture", [full_fixture, distance_fixture])
    def test_each_pair_intersection_tested_once(self, monkeypatch, fixture):
        counts = count_mesh_pair_tests(monkeypatch)
        scene, entry, judge = fixture()
        evaluate_scene(scene, entry, judge, CONFIG)
        n = len(scene.objects)
        assert len(counts) >= n * (n - 1) // 2  # COL tests every object pair
        assert max(counts.values()) == 1

    def test_distances_searched_once_per_pair(self, monkeypatch):
        searched = Counter()
        original = metrics.surface_distance_bracket

        def counting(mesh_a, mesh_b, **kwargs):
            searched[frozenset((id(mesh_a), id(mesh_b)))] += 1
            return original(mesh_a, mesh_b, **kwargs)

        monkeypatch.setattr(metrics, "surface_distance_bracket", counting)
        scene, entry, judge = distance_fixture()
        evaluate_scene(scene, entry, judge, CONFIG)
        # the near spec scores every stool pair in both orders, once each
        stools = [scene.object_by_id(i).world_mesh for i in ("s1", "s2", "s3")]
        for a, b in itertools.combinations(stools, 2):
            assert searched[frozenset((id(a), id(b)))] >= 1
        # a bracket that decided is searched again for the other order; an exact
        # distance is searched once and then read from the cache
        assert max(searched.values()) <= 2

    def test_object_and_element_with_one_id_keyed_apart(self):
        twin = make_box_object("wall_s", [0.4, 0.4, 0.4], [3.0, 3.0, 0.2])
        other = make_box_object("x", [0.4, 0.4, 0.4], [3.3, 3.0, 0.2])  # overlaps twin
        scene = make_room_scene(objects=[twin, other])
        wall = scene.arch_by_id("wall_s")
        geom = SceneGeometry(scene, CONFIG)
        assert geom.intersects(other, twin) and not geom.intersects(other, wall)
        assert geom.distance(other, twin) == 0.0
        assert geom.distance(other, wall) == pytest.approx(2.8)
        assert geom.intersects(twin, other) and geom.distance(wall, other) == pytest.approx(2.8)

    def test_evaluations_share_no_state(self, monkeypatch):
        scene, entry, judge = distance_fixture()
        moved = SceneInstance(
            [
                make_box_object("s2", [0.4, 0.4, 0.45], [5.5, 5.5, 0.225],
                                description="stool b")
                if o.id == "s2" else o
                for o in scene.objects
            ],
            scene.architecture,
            scene.rooms,
        )
        fresh = evaluate_scene(moved, entry, judge, CONFIG).to_dict()
        evaluate_scene(scene, entry, judge, CONFIG)
        counts = count_mesh_pair_tests(monkeypatch)
        after = evaluate_scene(moved, entry, judge, CONFIG).to_dict()
        assert after == fresh
        assert after["specs"]["oor"] != DISTANCE_FIXTURE_REPORT["specs"]["oor"]
        assert max(counts.values()) == 1 and len(counts) >= 10

    @pytest.mark.parametrize(
        "fixture,expected",
        [
            (full_fixture, FULL_FIXTURE_REPORT),
            (distance_fixture, DISTANCE_FIXTURE_REPORT),
            (surround_fixture, SURROUND_FIXTURE_REPORT),
        ],
    )
    def test_reports_unchanged(self, fixture, expected):
        scene, entry, judge = fixture()
        report = evaluate_scene(scene, entry, judge, CONFIG).to_dict()
        assert json.loads(json.dumps(report)) == expected


def count_box_samples(monkeypatch, scene):
    """Count sample_points_obb calls per object id."""
    ids = {id(o.obb): o.id for o in scene.objects}
    counts = Counter()
    original = metrics.sample_points_obb

    def counting(box, count, seed):
        counts[ids[id(box)]] += 1
        return original(box, count, seed)

    monkeypatch.setattr(metrics, "sample_points_obb", counting)
    return counts


class TestSceneSamples:
    def test_object_sampled_once_for_both_fidelity_metrics(self, monkeypatch):
        scene, entry, judge = full_fixture()
        # ns1 is the target of the side_of spec and of this inside_room spec
        spec = parse_spec_line("oa", "eq,1,inside,nightstand,room")
        entry = dataclasses.replace(entry, oa_relations=(*entry.oa_relations, spec))
        judge.table.update(MockJudge([
            oa_map_row("inside", "nightstand", "room", ["floor_room_0"], "inside_room", "room")
        ]).table)
        counts = count_box_samples(monkeypatch, scene)
        report = evaluate_scene(scene, entry, judge, CONFIG)
        assert report.errors == {} and report.oor_percent == report.oar_percent == 100.0
        assert counts == {"ns1": 1, "bed1": 1}

    def test_distance_only_objects_never_sampled(self, monkeypatch):
        scene, entry, judge = distance_fixture()
        counts = count_box_samples(monkeypatch, scene)
        report = evaluate_scene(scene, entry, judge, CONFIG)
        assert report.errors == {}
        # the stools and the table appear only in distance relations
        assert counts == {"b1": 1}
