import math

import numpy as np
import pytest

from conftest import make_box_object, make_room_scene, rot_z
from scenescore.annotations import check_quantifier
from scenescore.geometry import OrientedBox, TriMesh, sample_points_obb
from scenescore.metrics import EvalConfig, SceneGeometry
from scenescore.relations import (
    AGAINST_WALL_BAND,
    DISTANCE_BANDS,
    DistanceBand,
    RelationScore,
    SideSpec,
    canonical_relation,
    count_satisfied,
    face_angle_score,
    score_containment,
    score_distance_band,
    score_face,
    score_middle_of,
    score_object_distance,
    score_room_relation,
    score_side_family,
    score_surround,
    score_wall_relation,
    OO_RELATIONS,
    OA_RELATIONS,
)
from scenescore.scene import SceneInstance, object_from_mesh

SEED = 1234
N_SAMPLES = 1000


def samples_of(obj, n=N_SAMPLES, seed=SEED):
    return sample_points_obb(obj.obb, n, seed)


def geometry_of(scene=None, objects=()):
    """A fresh SceneGeometry for `scene`, or for a scene of just `objects`."""
    if scene is None:
        scene = SceneInstance(objects, [], [])
    return SceneGeometry(scene, EvalConfig(samples=N_SAMPLES, seed=SEED))


class TestDistanceBand:
    def test_inside_band_is_one(self):
        assert score_distance_band(0.3, DISTANCE_BANDS["next_to"]).value == 1.0
        assert score_distance_band(0.0, DISTANCE_BANDS["next_to"]).value == 1.0
        assert score_distance_band(0.5, DISTANCE_BANDS["next_to"]).value == 1.0

    def test_gaussian_falloff_value(self):
        # 0.25 m beyond the next_to band: exp(-0.25^2 / (2*0.25^2)) = e^-0.5
        s = score_distance_band(0.75, DISTANCE_BANDS["next_to"])
        assert s.value == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_far_unbounded_above(self):
        assert score_distance_band(5.0, DISTANCE_BANDS["far"]).value == 1.0
        assert score_distance_band(400.0, DISTANCE_BANDS["far"]).value == 1.0

    def test_positive_range_and_decision(self):
        band = DISTANCE_BANDS["near"]
        low, high = band.positive_range
        assert (low, high) == pytest.approx((0.5 - 0.294353, 1.5 + 0.294353), abs=1e-6)
        assert band.score(low) == pytest.approx(0.5) and band.score(high) == pytest.approx(0.5)
        assert band.decide(low + 1e-3, high - 1e-3) is True
        assert band.decide(0.0, low - 1e-3) is False
        assert band.decide(high + 1e-3, 9.0) is False
        assert band.decide(low + 1e-7, high - 1e-3) is None  # within the margin
        assert band.decide(high - 1e-3, high + 1e-7) is None
        assert band.decide(0.0, 9.0) is None  # straddles an edge
        assert DISTANCE_BANDS["far"].decide(5.0, 7.0) is True

    def test_continuous_at_boundary(self):
        band = DISTANCE_BANDS["near"]
        assert band.score(1.5) == 1.0
        assert band.score(1.5 + 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_non_increasing_outside_band(self):
        band = DistanceBand(0.5, 1.0, 0.25)
        below = [band.score(d) for d in np.linspace(0.5, 0.0, 30)]
        above = [band.score(d) for d in np.linspace(1.0, 3.0, 60)]
        assert all(a >= b for a, b in zip(below, below[1:]))
        assert all(a >= b for a, b in zip(above, above[1:]))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            DISTANCE_BANDS["near"].score(-0.1)


class TestConstantsTable:
    def test_catalogue_sizes(self):
        assert len(OO_RELATIONS) == 13
        assert len(OA_RELATIONS) == 10

    def test_judge_aliases_resolve(self):
        assert canonical_relation("face_to", OO_RELATIONS) == "face"
        assert canonical_relation("across_from", OA_RELATIONS) == "across"
        assert canonical_relation("hang_from_ceiling", OA_RELATIONS) == "hang_ceiling"
        with pytest.raises(ValueError, match="unknown relation"):
            canonical_relation("diagonal", OO_RELATIONS)


class TestContainment:
    def test_fully_inside(self):
        target = OrientedBox.from_aabb([-0.1, -0.1, -0.1], [0.1, 0.1, 0.1])
        anchor = OrientedBox.from_aabb([-1, -1, -1], [1, 1, 1])
        pts = sample_points_obb(target, N_SAMPLES, SEED)
        assert score_containment(target, anchor, "inside", pts).value == 1.0
        assert score_containment(target, anchor, "outside", pts).value == 0.0

    def test_disjoint(self):
        target = OrientedBox.from_aabb([5, 5, 0], [6, 6, 1])
        anchor = OrientedBox.from_aabb([-1, -1, -1], [1, 1, 1])
        pts = sample_points_obb(target, N_SAMPLES, SEED)
        assert score_containment(target, anchor, "inside", pts).value == 0.0

    def test_straddling_half(self):
        # target box straddles the anchor boundary: half its volume inside
        target = OrientedBox.from_aabb([0.5, -0.2, -0.2], [1.5, 0.2, 0.2])
        anchor = OrientedBox.from_aabb([-1, -1, -1], [1, 1, 1])
        pts = sample_points_obb(target, 4000, SEED)
        v = score_containment(target, anchor, "inside", pts).value
        assert v == pytest.approx(0.5, abs=0.05)


class TestFace:
    def _pair_at_angle(self, theta_deg, dist=3.0):
        a = np.radians(theta_deg)
        target = make_box_object("t", [0.6, 0.6, 0.6], [0, 0, 0.3])
        anchor = make_box_object(
            "a", [1.0, 1.0, 1.0], [dist * -np.sin(a), dist * np.cos(a), 0.5]
        )
        return target, anchor

    def test_head_on(self):
        t, a = self._pair_at_angle(0.0)
        s = score_face(t, a, samples_of(t))
        assert s.value > 0.98

    def test_partial_offset_decreases_score(self):
        # anchor sliding sideways out of the ray corridor: the mean hit point
        # drifts off-axis and the angular falloff kicks in
        t = make_box_object("t", [0.6, 0.6, 0.6], [0, 0, 0.3])
        scores = []
        for offset in (0.0, 0.3, 0.6):
            a = make_box_object("a", [1.0, 1.0, 1.0], [offset, 1.0, 0.5])
            scores.append(score_face(t, a, samples_of(t)).value)
        assert scores[0] > 0.97
        assert scores[0] > scores[1] > scores[2]
        assert 0.0 < scores[2] < 0.5  # mean hit ~21.8 degrees off-axis

    def test_behind_gives_zero(self):
        t, a = self._pair_at_angle(180.0)
        assert score_face(t, a, samples_of(t)).value == 0.0

    def test_angle_endpoints_exact(self):
        assert face_angle_score(0.0) == 1.0
        assert face_angle_score(30.0) == 0.0
        assert face_angle_score(90.0) == 0.0
        assert face_angle_score(15.0) == pytest.approx(0.5, abs=1e-12)

    def test_frontless_target_errors(self):
        t = make_box_object("t", [1, 1, 1], [0, 0, 0.5], frontless=True)
        a = make_box_object("a", [1, 1, 1], [0, 3, 0.5])
        with pytest.raises(ValueError, match="no front vector"):
            score_face(t, a, samples_of(t))


class TestSideFamily:
    def setup_method(self):
        self.bed = make_box_object("bed", [1.6, 2.0, 0.5], [3, 3, 0.25])

    def test_nightstand_left_of_bed(self):
        # bed front is +y, so its left side is -x
        ns = make_box_object("ns", [0.4, 0.4, 0.5], [3 - 0.8 - 0.5, 3, 0.25])
        s = score_side_family(samples_of(ns), self.bed, SideSpec("left"))
        assert s.value == 1.0

    def test_nightstand_behind_bed_not_left(self):
        ns = make_box_object("ns", [0.4, 0.4, 0.5], [3, 3 - 1.0 - 0.6, 0.25])
        s = score_side_family(samples_of(ns), self.bed, SideSpec("left"))
        assert s.value < 0.5
        s_back = score_side_family(samples_of(ns), self.bed, SideSpec("back"))
        assert s_back.value == 1.0

    def test_flush_object_in_extension_zone_still_scores(self):
        # thin panel flush against the bed's left face, fully inside the 25%
        # extension in x but not in y: remaining samples are all on the left
        panel = make_box_object("p", [0.1, 0.8, 0.5], [3 - 0.8 - 0.05, 3 + 1.3, 0.25])
        s = score_side_family(samples_of(panel), self.bed, SideSpec("left"))
        assert s.value > 0.5

    def test_on_top(self):
        table = make_box_object("table", [1.2, 0.8, 0.7], [0, 0, 0.35])
        book = make_box_object("book", [0.2, 0.3, 0.05], [0, 0, 0.7 + 0.025])
        s = score_side_family(samples_of(book), table, SideSpec("top", "on_top"))
        assert s.value == 1.0

    def test_on_top_of_rotated_anchor(self):
        table = make_box_object("table", [1.2, 0.8, 0.7], [0, 0, 0.35], yaw=30)
        book = make_box_object("book", [0.2, 0.3, 0.05], [0, 0, 0.7 + 0.025], yaw=30)
        s = score_side_family(samples_of(book), table, SideSpec("top", "on_top"))
        assert s.value == 1.0

    def test_side_region_book_in_left_of_shelf(self):
        shelf = make_box_object("shelf", [1.2, 0.4, 2.0], [0, 0, 1.0])
        book = make_box_object("book", [0.15, 0.2, 0.25], [-0.35, 0, 0.6])
        s = score_side_family(samples_of(book), shelf, SideSpec("left", "side_region"))
        assert s.value == 1.0
        s_right = score_side_family(samples_of(book), shelf, SideSpec("right", "side_region"))
        assert s_right.value == 0.0

    def test_long_short_side(self):
        table = make_box_object("table", [2.0, 1.0, 0.7], [0, 0, 0.35])
        chair_long = make_box_object("c1", [0.5, 0.5, 0.9], [0, -0.95, 0.45])
        chair_short = make_box_object("c2", [0.5, 0.5, 0.9], [-1.45, 0, 0.45])
        long_spec = SideSpec("long", "long_short")
        short_spec = SideSpec("short", "long_short")
        assert score_side_family(samples_of(chair_long), table, long_spec).value >= 0.5
        assert score_side_family(samples_of(chair_long), table, short_spec).value < 0.5
        assert score_side_family(samples_of(chair_short), table, short_spec).value >= 0.5
        assert score_side_family(samples_of(chair_short), table, long_spec).value < 0.5

    def test_left_right_mirror_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            pos = rng.uniform(-2, 2, 2)
            ns = make_box_object("ns", [0.4, 0.4, 0.5], [pos[0], pos[1], 0.25])
            left = score_side_family(samples_of(ns), self.bed, SideSpec("left"))
            mirrored = make_box_object(
                "nsm", [0.4, 0.4, 0.5], [2 * 3 - pos[0], pos[1], 0.25]
            )
            bed_m = self.bed  # bed centered at x=3: reflection x -> 6-x fixes it
            right = score_side_family(samples_of(mirrored), bed_m, SideSpec("right"))
            assert left.value == pytest.approx(right.value, abs=0.05)

    def test_invalid_side_for_variant(self):
        with pytest.raises(ValueError):
            SideSpec("long", "side_of")
        with pytest.raises(ValueError):
            SideSpec("left", "long_short")


class TestMiddleOf:
    def test_coincident(self):
        a = OrientedBox.from_aabb([-1, -1, 0], [1, 1, 1])
        b = OrientedBox.from_aabb([-0.2, -0.2, 1], [0.2, 0.2, 1.2])
        assert score_middle_of(b, a).value == 1.0

    def test_quarter_meter(self):
        a = OrientedBox.from_aabb([-1, -1, 0], [1, 1, 1])
        b = OrientedBox.from_aabb([0.05, -0.2, 1], [0.45, 0.2, 1.2])  # 2D dist 0.25
        assert score_middle_of(b, a).value == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_one_meter_negative(self):
        a = OrientedBox.from_aabb([-1, -1, 0], [1, 1, 1])
        b = OrientedBox.from_aabb([0.8, -0.2, 1], [1.2, 0.2, 1.2])  # 2D dist 1.0
        s = score_middle_of(b, a)
        assert s.value == pytest.approx(math.exp(-8.0), abs=1e-9)
        assert not s.positive


def ring_obbs(n, radius=1.5, center=(0.0, 0.0), phase=0.0, radii=None):
    out = []
    for i in range(n):
        a = phase + 2 * math.pi * i / n
        r = radius if radii is None else radii[i]
        c = np.array([center[0] + r * math.cos(a), center[1] + r * math.sin(a), 0.45])
        out.append(OrientedBox(c, np.eye(3), np.array([0.25, 0.25, 0.45])))
    return out


class TestSurround:
    def test_perfect_rings(self):
        anchor = OrientedBox.from_aabb([-0.5, -0.5, 0], [0.5, 0.5, 0.75])
        for n in (3, 4, 6):
            score = score_surround(anchor, ring_obbs(n))
            assert score.value == pytest.approx(1.0, abs=1e-9)

    def test_collapsed_to_one_angle(self):
        anchor = OrientedBox.from_aabb([-0.5, -0.5, 0], [0.5, 0.5, 0.75])
        targets = []
        for r in (1.0, 1.5, 2.0, 2.5):  # queued along one ray
            targets.append(
                OrientedBox(np.array([r, 0.0, 0.45]), np.eye(3), np.array([0.25, 0.25, 0.45]))
            )
        score = score_surround(anchor, targets)
        assert score.value < 0.5

    def test_collapsed_equal_radius_angle_devs_clip(self):
        # coincident angular positions: every gap deviation clips to 1, so the
        # score collapses to the pure distance term 0.5
        anchor = OrientedBox.from_aabb([-0.5, -0.5, 0], [0.5, 0.5, 0.75])
        targets = [
            OrientedBox(np.array([1.5, i * 1e-9, 0.45]), np.eye(3), np.array([0.25, 0.25, 0.45]))
            for i in range(4)
        ]
        score = score_surround(anchor, targets)
        assert score.value == pytest.approx(0.5, abs=1e-6)

    def test_hand_derived_degenerate(self):
        # radii 1, 1.5, 2, 2.5 on one ray: D=1.75, d=|r-D|/D, all a_i=1
        anchor = OrientedBox.from_aabb([-0.5, -0.5, 0], [0.5, 0.5, 0.75])
        targets = [
            OrientedBox(np.array([r, 0.0, 0.45]), np.eye(3), np.array([0.25, 0.25, 0.45]))
            for r in (1.0, 1.5, 2.0, 2.5)
        ]
        d = np.abs(np.array([1.0, 1.5, 2.0, 2.5]) - 1.75) / 1.75
        expected = float(((1 - d) ** 2).sum() / 8.0)
        score = score_surround(anchor, targets)
        assert score.value == pytest.approx(expected, abs=1e-9)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(5)
        anchor = OrientedBox(np.array([1.0, 2.0, 0.4]), np.eye(3), np.array([0.5, 0.5, 0.4]))
        targets = ring_obbs(5, radius=1.4, center=(1.0, 2.0), phase=0.3)
        # jitter the ring so the score is not exactly 1
        targets = [
            OrientedBox(t.center + np.array([*rng.normal(0, 0.1, 2), 0]), t.axes, t.half_extents)
            for t in targets
        ]
        s0 = score_surround(anchor, targets)
        yaw = rot_z(float(rng.uniform(0, 360)))
        shift = np.array([*rng.uniform(-5, 5, 2), 0.0])
        anchor2 = OrientedBox(yaw @ anchor.center + shift, yaw @ anchor.axes, anchor.half_extents)
        targets2 = [
            OrientedBox(yaw @ t.center + shift, yaw @ t.axes, t.half_extents) for t in targets
        ]
        s1 = score_surround(anchor2, targets2)
        assert abs(s0.value - s1.value) <= 1e-9

    def test_fewer_than_two_targets(self):
        anchor = OrientedBox.from_aabb([-0.5, -0.5, 0], [0.5, 0.5, 0.75])
        with pytest.raises(ValueError, match="at least 2"):
            score_surround(anchor, ring_obbs(1))


class TestDistanceRelations:
    def test_next_to_pair(self):
        a = make_box_object("a", [1, 1, 1], [0, 0, 0.5])
        b = make_box_object("b", [1, 1, 1], [1.15, 0, 0.5])  # gap 0.15
        assert score_object_distance(b, a, "next_to", geometry_of(objects=[a, b])).positive
        # near band edge is 0.35 m away: exp(-0.98) < 0.5
        assert not score_object_distance(b, a, "near", geometry_of(objects=[a, b])).positive

    def test_near_across_far(self):
        a = make_box_object("a", [1, 1, 1], [0, 0, 0.5])
        for gap, rel in ((1.0, "near"), (2.5, "across"), (5.0, "far")):
            b = make_box_object("b", [1, 1, 1], [1.0 + gap, 0, 0.5])
            geom = geometry_of(objects=[a, b])
            assert score_object_distance(b, a, rel, geom).positive
            others = {"near", "across", "far"} - {rel}
            for other in others:
                assert not score_object_distance(b, a, other, geom).positive


class TestRoomRelations:
    def test_inside_room(self):
        scene = make_room_scene()
        obj = make_box_object("o", [1, 1, 1], [3, 3, 0.5])
        s = score_room_relation(obj, scene.rooms[0], "inside_room", geometry_of(scene))
        assert s.value == 1.0

    def test_flat_rug_on_floor_inside(self):
        # a single zero-thickness quad at z = 0: every sample lies on the floor
        quad = TriMesh(
            np.array([[-1.0, -0.75, 0], [1.0, -0.75, 0], [1.0, 0.75, 0], [-1.0, 0.75, 0]]),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )
        scene = make_room_scene()
        rug = object_from_mesh("rug", quad, translation=[3, 3, 0])
        s = score_room_relation(rug, scene.rooms[0], "inside_room", geometry_of(scene))
        assert s.value == 1.0

    def test_outside_room_fails_inside(self):
        scene = make_room_scene()
        obj = make_box_object("o", [1, 1, 1], [10, 10, 0.5])
        s = score_room_relation(obj, scene.rooms[0], "inside_room", geometry_of(scene))
        assert s.value == 0.0

    def test_middle_room_at_centroid(self):
        scene = make_room_scene()
        obj = make_box_object("o", [1, 1, 0.2], [3, 3, 0.1])
        s = score_room_relation(obj, scene.rooms[0], "middle_room", geometry_of(scene))
        assert s.value == 1.0

    def test_middle_room_off_center(self):
        scene = make_room_scene()
        obj = make_box_object("o", [1, 1, 0.2], [1.0, 1.0, 0.1])
        s = score_room_relation(obj, scene.rooms[0], "middle_room", geometry_of(scene))
        # sigma = 1/2 + (1 - 1/6); dist = sqrt(8)
        sigma = 0.5 + (1 - 1 / 6)
        assert s.value == pytest.approx(math.exp(-8.0 / (2 * sigma**2)), abs=1e-9)

    def test_corner_room(self):
        scene = make_room_scene()
        plant = make_box_object("plant", [0.4, 0.4, 1.0], [0.4, 0.4, 0.5])
        s = score_room_relation(plant, scene.rooms[0], "corner_room", geometry_of(scene))
        assert s.value == 1.0  # 0.2 m from both walls, inside the 0.8 band

    def test_center_not_corner(self):
        scene = make_room_scene()
        wardrobe = make_box_object("w", [1.0, 0.6, 2.0], [3, 3, 1.0])
        s = score_room_relation(wardrobe, scene.rooms[0], "corner_room", geometry_of(scene))
        assert not s.positive

    def test_corner_requires_walls(self):
        scene = make_room_scene()
        bare = type(scene)(scene.objects, scene.architecture, [
            type(scene.rooms[0])(
                id="r", room_type="x", floor_ids=scene.rooms[0].floor_ids,
                centroid_2d=scene.rooms[0].centroid_2d,
                mean_dimension=scene.rooms[0].mean_dimension, wall_ids=(),
            )
        ])
        obj = make_box_object("o", [1, 1, 1], [3, 3, 0.5])
        with pytest.raises(ValueError, match="walls"):
            score_room_relation(obj, bare.rooms[0], "corner_room", geometry_of(bare))


class TestWallRelations:
    def test_painting_on_wall(self):
        scene = make_room_scene()
        wall = scene.arch_by_id("wall_s")  # y = 0 plane, front +y
        painting = make_box_object("p", [0.8, 0.01, 0.6], [3, 0.005 + 0.005, 1.5])
        s = score_wall_relation(painting, wall, "on_wall", geometry_of(scene))
        assert s.value == pytest.approx(1.0, abs=1e-9)

    def test_bookshelf_against_wall(self):
        scene = make_room_scene()
        wall = scene.arch_by_id("wall_s")
        shelf = make_box_object("s", [1.2, 0.4, 2.0], [3, 0.2 + 0.1, 1.0])  # 0.1 m gap
        s = score_wall_relation(shelf, wall, "against_wall", geometry_of(scene))
        assert s.value == 1.0
        assert AGAINST_WALL_BAND.score(0.1) == 1.0

    def test_far_from_wall_negative(self):
        scene = make_room_scene()
        wall = scene.arch_by_id("wall_s")
        shelf = make_box_object("s", [1.2, 0.4, 2.0], [3, 3, 1.0])
        s = score_wall_relation(shelf, wall, "against_wall", geometry_of(scene))
        assert not s.positive

    def test_behind_wall_zero_front_fraction(self):
        scene = make_room_scene()
        wall = scene.arch_by_id("wall_s")
        shelf = make_box_object("s", [1.2, 0.4, 2.0], [3, -0.5, 1.0])  # outside room
        s = score_wall_relation(shelf, wall, "against_wall", geometry_of(scene))
        assert s.value == 0.0

    def test_hang_ceiling(self):
        scene = make_room_scene(ceiling=True)
        ceiling = scene.ceilings[0]
        lamp = make_box_object("lamp", [0.3, 0.3, 0.4], [3, 3, 2.5 - 0.2 - 0.005])
        s = score_wall_relation(lamp, ceiling, "hang_ceiling", geometry_of(scene))
        assert s.value == 1.0

    def test_lamp_on_floor_fails_hang(self):
        scene = make_room_scene(ceiling=True)
        ceiling = scene.ceilings[0]
        lamp = make_box_object("lamp", [0.3, 0.3, 0.4], [3, 3, 0.2])
        s = score_wall_relation(lamp, ceiling, "hang_ceiling", geometry_of(scene))
        assert s.value < 1e-6


class TestCountSatisfied:
    def _scorer(self, positives):
        def scorer(t):
            return [RelationScore(1.0 if t in positives else 0.0)]

        return scorer

    def test_exactly_one_positive(self):
        satisfied, candidates = count_satisfied(iter(["a", "b"]), self._scorer({"a"}))
        assert (satisfied, candidates) == (1, 2)
        assert check_quantifier("eq", 1, satisfied)

    def test_over_satisfaction_fails_eq(self):
        satisfied, _ = count_satisfied(["a", "b"], self._scorer({"a", "b"}))
        assert satisfied == 2 and not check_quantifier("eq", 1, satisfied)

    def test_no_candidates_fails_ge(self):
        satisfied, candidates = count_satisfied([], self._scorer(set()))
        assert (satisfied, candidates) == (0, 0)
        assert not check_quantifier("ge", 2, satisfied)

    def test_conjunction_of_mapped_relations(self):
        def scorer(t):
            return [RelationScore(1.0), RelationScore(0.2)]

        assert count_satisfied(["a"], scorer) == (0, 1)
        assert count_satisfied(["a"], lambda t: []) == (0, 1)  # nothing scored: not satisfied


class TestScoreRangeProperty:
    def test_randomized_scores_in_range(self):
        rng = np.random.default_rng(99)
        anchor = make_box_object("anchor", [1.5, 1.0, 0.8], [0, 0, 0.4])
        for i in range(200):
            pos = rng.uniform(-4, 4, 2)
            yaw = rng.uniform(0, 360)
            target = make_box_object("t", [0.6, 0.4, 0.5], [*pos, 0.25], yaw=yaw)
            pts = samples_of(target, 200, seed=i)
            checks = [
                score_object_distance(
                    target, anchor, "next_to", geometry_of(objects=[target, anchor])
                ),
                score_containment(target.obb, anchor.obb, "inside", pts),
                score_containment(target.obb, anchor.obb, "outside", pts),
                score_side_family(pts, anchor, SideSpec("left")),
                score_side_family(pts, anchor, SideSpec("front", "side_region")),
                score_side_family(pts, anchor, SideSpec("long", "long_short")),
                score_middle_of(target.obb, anchor.obb),
                score_face(target, anchor, pts),
            ]
            for s in checks:
                assert 0.0 <= s.value <= 1.0
                assert s.positive == (s.value >= 0.5)
