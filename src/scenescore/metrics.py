"""Object matching, the nine scene metrics, and per-scene aggregation.

Fidelity metrics (CNT, ATR, OOR, OAR) check annotated constraints through
the category assignment produced by the judge; plausibility metrics (COL,
SUP, NAV, ACC, OOB) check physical common sense from geometry alone (SUP
and ACC consume judge verdicts for support types and functional sides).
"""

from __future__ import annotations

import itertools
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .annotations import (
    ARCH_REFS,
    DatasetEntry,
    OARelationSpec,
    check_quantifier,
    normalize_room_token,
    serialize_spec,
)
from .geometry import (
    RAY_ORIGIN_BACKOFF,
    SceneOccupancy,
    cells_in_rect,
    closest_surface_distance,
    derive_seed,
    flood_components,
    mesh_pair_intersects,
    ray_hit_fraction,
    ray_mesh_distances,
    sample_mesh_surface,
    sample_points_obb,
    support_hull_check,
    surface_distance_bracket,
)
from .judge import Judge, JudgeError, JudgeRequest, transcript_hash
from .relations import (
    DISTANCE_BANDS,
    DistanceBand,
    RelationScore,
    SideSpec,
    count_satisfied,
    score_containment,
    score_distance_band,
    score_face,
    score_middle_of,
    score_object_distance,
    score_room_relation,
    score_side_family,
    score_surround,
    score_wall_relation,
)
from .scene import ArchElement, ObjectInstance, SceneInstance

logger = logging.getLogger(__name__)

ROOM_RELATIONS = ("inside_room", "middle_room", "corner_room")
WALL_RELATIONS = ("on_wall", "against_wall")
OOB_HIT_THRESHOLD = 0.99
ACC_PROBE_DEPTH = 0.5  # meters of clearance probed per side
SURROUND_TUPLE_CAP = 10000  # candidate tuples scored per relation spec
SUPPORT_CONTACT_DISTANCE = 0.01  # meters; ray contacts count within this
SUPPORT_VERTEX_TOLERANCE = 0.01  # verts this close to the extreme cast rays
# Threads asking one scene's judge requests at once.  It does not change any
# score; the backend's own cap (RemoteJudgeConfig.max_in_flight) still holds.
JUDGE_THREADS = 8


@dataclass
class EvalConfig:
    resolution: float = 0.05          # occupancy cell size, meters
    samples: int = 1000               # points per box/surface sample
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.samples, bool) or not isinstance(self.samples, int) or self.samples < 1:
            raise ValueError(f"samples must be an integer >= 1, got {self.samples!r}")


@dataclass(frozen=True)
class CategoryAssignment:
    """Many-to-one mapping from scene object instances to annotated categories."""

    by_category: dict       # category -> list of object ids (possibly empty)
    unmatched_objects: tuple

    def instances(self, category: str) -> list[str]:
        return list(self.by_category.get(category, []))


@dataclass(frozen=True)
class SpecResult:
    spec: str               # serialized annotation line
    passed: bool
    satisfied_count: int = 0
    candidate_count: int = 0
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "passed": self.passed,
            "satisfied_count": self.satisfied_count,
            "candidate_count": self.candidate_count,
            "reason": self.reason,
        }


def _quantified(spec, satisfied: int, candidates: int) -> SpecResult:
    """The result of a quantified spec that `satisfied` of its `candidates` meet."""
    return SpecResult(
        serialize_spec(spec),
        check_quantifier(spec.quantifier, spec.quantity, satisfied),
        satisfied_count=satisfied,
        candidate_count=candidates,
    )


def percent_passed(results) -> float | None:
    if not results:
        return None
    return 100.0 * sum(r.passed for r in results) / len(results)


class _SceneJudge(Judge):
    """One scene's judge: each distinct request is asked of `inner` once.

    It keeps one result per content hash, the answer or the exception the
    inner judge raised.  `prefetch` asks the requests that have no result yet
    concurrently; `judge` serves the stored result, re-raising a stored
    failure where the metric reads it, and asks `inner` itself on a miss.
    `responses` holds only the answers a metric read, so the transcript hash
    does not depend on what was prefetched.
    """

    def __init__(self, inner: Judge):
        self.inner = inner
        self._results: dict[str, dict | Exception] = {}
        self.responses: dict[str, dict] = {}

    def _ask(self, request: JudgeRequest) -> dict | Exception:
        try:
            return self.inner.judge(request)
        except Exception as exc:  # kept, and raised where a metric reads it
            return exc

    def prefetch(self, requests) -> None:
        todo = {}
        for request in requests:
            key = request.content_hash
            if key not in self._results:
                todo.setdefault(key, request)
        if not todo:
            return
        with ThreadPoolExecutor(min(JUDGE_THREADS, len(todo))) as pool:
            self._results.update(zip(todo, pool.map(self._ask, todo.values())))

    def judge(self, request: JudgeRequest) -> dict:
        key = request.content_hash
        if key not in self._results:
            self._results[key] = self._ask(request)
        result = self._results[key]
        if isinstance(result, Exception):
            raise result
        self.responses[key] = result
        return result


def element_mesh(element):
    """The world mesh of an object or an architecture element."""
    return element.mesh if isinstance(element, ArchElement) else element.world_mesh


def _pair_key(a, b) -> tuple:
    ka = ("arch" if isinstance(a, ArchElement) else "object", a.id)
    kb = ("arch" if isinstance(b, ArchElement) else "object", b.id)
    return (ka, kb) if ka <= kb else (kb, ka)


class SceneGeometry:
    """One scene's derived geometry, shared by COL, OOR and OAR.

    It holds `mesh_pair_intersects` results and exact closest-surface
    distances, keyed by the unordered pair of objects or architecture
    elements; the two kinds are keyed apart, so an object and a wall with the
    same id never share one.  It also holds each object's box samples, drawn
    the first time a relation reads them.  `evaluate_scene` builds one per
    call.  The occupancy is built there too and shared by NAV and ACC, and
    each `TriMesh` caches its own world triangles and bounds.
    """

    def __init__(self, scene: SceneInstance, config: EvalConfig):
        self.scene = scene
        self.config = config
        self._intersects: dict[tuple, bool] = {}
        self._distances: dict[tuple, float] = {}
        self._points: dict[str, np.ndarray] = {}

    def points(self, obj: ObjectInstance) -> np.ndarray:
        """`config.samples` points in the object's box, seeded by its id."""
        if obj.id not in self._points:
            seed = derive_seed(self.config.seed, "box", obj.id)
            self._points[obj.id] = sample_points_obb(obj.obb, self.config.samples, seed)
        return self._points[obj.id]

    def intersects(self, a, b) -> bool:
        key = _pair_key(a, b)
        if key not in self._intersects:
            self._intersects[key] = mesh_pair_intersects(element_mesh(a), element_mesh(b))
        return self._intersects[key]

    def distance(self, a, b) -> float:
        """The exact closest surface distance."""
        key = _pair_key(a, b)
        if key not in self._distances:
            self._distances[key] = closest_surface_distance(
                element_mesh(a), element_mesh(b), intersects=lambda: self.intersects(a, b)
            )
        return self._distances[key]

    def bracket(self, a, b, band: DistanceBand) -> tuple[float, float]:
        """Distance bounds that decide `band`; exact when only the exact distance can."""
        key = _pair_key(a, b)
        if key in self._distances:
            d = self._distances[key]
            return d, d
        lo, hi = surface_distance_bracket(
            element_mesh(a),
            element_mesh(b),
            settled=band.settles,
            intersects=lambda: self.intersects(a, b),
        )
        if not band.settles(lo, hi):  # the search ran to the exact distance
            self._distances[key] = lo
        return lo, hi


# ---------------------------------------------------------------------------
# Judge requests: one builder per task, shared by the plan and the metric
# ---------------------------------------------------------------------------


def _image_refs(obj: ObjectInstance, *names) -> tuple:
    refs = [obj.image_refs[n] for n in names if n in obj.image_refs]
    return tuple(refs)


def _match_category_request(obj: ObjectInstance, categories) -> JudgeRequest:
    return JudgeRequest(
        task="match_category",
        payload={
            "object_description": obj.description,
            "categories": list(dict.fromkeys(categories)),
        },
        image_refs=_image_refs(obj, "front"),
    )


def _verify_attribute_request(obj: ObjectInstance, spec) -> JudgeRequest:
    return JudgeRequest(
        task="verify_attribute",
        payload={
            "object_description": obj.description,
            "category": spec.category,
            "attribute": spec.attribute,
        },
        image_refs=_image_refs(obj, "front", "scale"),
    )


def _support_type_request(obj: ObjectInstance) -> JudgeRequest:
    return JudgeRequest(
        task="support_type",
        payload={"object_description": obj.description},
        image_refs=_image_refs(obj, "front", "context"),
    )


def _functional_sides_request(obj: ObjectInstance) -> JudgeRequest:
    return JudgeRequest(
        task="functional_sides",
        payload={"object_description": obj.description},
    )


def _map_oo_relation_request(spec) -> JudgeRequest:
    other_counts = spec.other_category_counts()
    return JudgeRequest(
        task="map_oo_relation",
        payload={
            "relation_text": spec.relation_text,
            "anchor_category": spec.anchor_category,
            "other_categories": [c for c, _ in other_counts],
            "other_counts": [n for _, n in other_counts],
        },
    )


def _map_oa_relation_request(spec, floor_ids) -> JudgeRequest:
    return JudgeRequest(
        task="map_oa_relation",
        payload={
            "relation_text": spec.relation_text,
            "category": spec.category,
            "arch_ref": spec.arch_ref,
            "floor_ids": floor_ids,
        },
    )


def _first_wave(scene: SceneInstance, entry: DatasetEntry) -> list[JudgeRequest]:
    """Every request that does not depend on the category assignment."""
    categories = entry.count_categories()
    floor_ids = [f.id for f in scene.floors]
    requests = []
    for obj in scene.objects:
        requests += [
            _match_category_request(obj, categories),
            _support_type_request(obj),
            _functional_sides_request(obj),
        ]
    requests += [_map_oo_relation_request(spec) for spec in entry.oo_relations]
    requests += [_map_oa_relation_request(spec, floor_ids) for spec in entry.oa_relations]
    return requests


def _second_wave(
    scene: SceneInstance, assignment: CategoryAssignment, attr_specs
) -> list[JudgeRequest]:
    """The attribute checks of the matched instances."""
    return [
        _verify_attribute_request(scene.object_by_id(obj_id), spec)
        for spec in attr_specs
        for obj_id in assignment.instances(spec.category)
    ]


# ---------------------------------------------------------------------------
# Object matching
# ---------------------------------------------------------------------------


def match_objects(scene: SceneInstance, categories, judge: Judge) -> CategoryAssignment:
    """One judge call per object against the full category list."""
    by_category = {c: [] for c in categories}
    unmatched = []
    for obj in scene.objects:
        try:
            response = judge.judge(_match_category_request(obj, categories))
        except JudgeError as exc:
            raise JudgeError(f"object '{obj.id}': {exc}", exc.request_hash) from exc
        if response["matched"]:
            by_category[response["matched_category"]].append(obj.id)
        else:
            unmatched.append(obj.id)
    return CategoryAssignment(by_category=by_category, unmatched_objects=tuple(unmatched))


# ---------------------------------------------------------------------------
# Fidelity metrics
# ---------------------------------------------------------------------------


def eval_count(assignment: CategoryAssignment, count_specs) -> list[SpecResult]:
    results = []
    for spec in count_specs:
        actual = len(assignment.instances(spec.category))
        results.append(_quantified(spec, actual, actual))
    return results


def eval_attribute(
    scene: SceneInstance, assignment: CategoryAssignment, attr_specs, judge: Judge
) -> list[SpecResult]:
    """Judge-verified attributes per matched instance, quantified per spec.

    A spec whose category has no matched instances is automatically
    unsatisfied.
    """
    results = []
    for spec in attr_specs:
        instance_ids = assignment.instances(spec.category)
        if not instance_ids:
            results.append(SpecResult(serialize_spec(spec), False, reason="no matched instances"))
            continue
        satisfied = 0
        for obj_id in instance_ids:
            response = judge.judge(_verify_attribute_request(scene.object_by_id(obj_id), spec))
            satisfied += bool(response["satisfied"])
        results.append(_quantified(spec, satisfied, len(instance_ids)))
    return results


def _score_oo_pair(
    target: ObjectInstance,
    anchor: ObjectInstance,
    relation: str,
    side,
    geom: SceneGeometry,
) -> RelationScore:
    if relation in DISTANCE_BANDS:
        return score_object_distance(target, anchor, relation, geom)
    if relation in ("inside", "outside"):
        return score_containment(target.obb, anchor.obb, relation, geom.points(target))
    if relation == "face":
        return score_face(target, anchor, geom.points(target))
    if relation == "side_of":
        return score_side_family(geom.points(target), anchor, SideSpec(side, "side_of"))
    if relation == "side_region":
        return score_side_family(geom.points(target), anchor, SideSpec(side, "side_region"))
    if relation == "on_top":
        return score_side_family(geom.points(target), anchor, SideSpec("top", "on_top"))
    if relation == "long_short_side":
        return score_side_family(geom.points(target), anchor, SideSpec(side, "long_short"))
    if relation == "middle_of":
        return score_middle_of(target.obb, anchor.obb)
    raise ValueError(f"unknown object-object relation '{relation}'")


def _combination_product(pools):
    """The flattened members of each element of `itertools.product` over the
    pools' `itertools.combinations(ids, count)`, in the same order, built one
    at a time."""
    if not pools:
        yield ()
        return
    (ids, count), rest = pools[0], pools[1:]
    for combo in itertools.combinations(ids, count):
        for tail in _combination_product(rest):
            yield combo + tail


def _oo_tuples(assignment: CategoryAssignment, mapping: dict, relation_text: str):
    """All combinations of matched instances for the mapping's categories.

    Yields (anchor_id, [target_id, ...]) with targets flattened across the
    mapping's other categories, up to SURROUND_TUPLE_CAP tuples.
    """
    anchors = assignment.instances(mapping["anchor_category"])
    pools = []
    for cat, count in zip(mapping["other_categories"], mapping["other_counts"]):
        ids = assignment.instances(cat)
        if len(ids) < count:
            return  # not enough instances: no candidate tuples
        pools.append((ids, count))
    produced = 0
    for anchor_id in anchors:
        for members in _combination_product(pools):
            group = [i for i in members if i != anchor_id]
            if not group:
                continue
            if produced >= SURROUND_TUPLE_CAP:
                logger.warning(
                    "relation '%s': combination cap %d reached, truncating",
                    relation_text,
                    SURROUND_TUPLE_CAP,
                )
                return
            produced += 1
            yield anchor_id, group


def _weakest_member(anchor, group, relation, side, geom) -> RelationScore:
    """The lowest member score, or the first negative one; 0 when a member cannot be scored."""
    weakest = None
    for g in group:
        try:
            score = _score_oo_pair(g, anchor, relation, side, geom)
        except ValueError:  # e.g. frontless target in a face relation
            return RelationScore(0.0)
        if not score.positive:
            return score
        if weakest is None or score.value < weakest.value:
            weakest = score
    return weakest


def eval_oo(
    geom: SceneGeometry, assignment: CategoryAssignment, oo_specs, judge: Judge
) -> list[SpecResult]:
    scene = geom.scene
    results = []
    for spec in oo_specs:
        line = serialize_spec(spec)
        mapping = judge.judge(_map_oo_relation_request(spec))
        if not mapping.get("relation_types"):
            results.append(
                SpecResult(line, False, reason=f"unmappable relation: {mapping.get('reason', '')}")
            )
            continue
        involved = [mapping["anchor_category"], *mapping["other_categories"]]
        empty = [c for c in involved if not assignment.instances(c)]
        if empty:
            results.append(
                SpecResult(line, False, reason=f"no matched instances for {empty}")
            )
            continue

        def scorer(tup):
            """The tuple's relation scores, up to and including the first negative one."""
            anchor_id, group_ids = tup
            anchor = scene.object_by_id(anchor_id)
            group = [scene.object_by_id(i) for i in group_ids]
            scores = []
            for relation, side in zip(mapping["relation_types"], mapping["sides"]):
                if relation == "surround":
                    if len(group) < 2:
                        score = RelationScore(0.0)
                    else:
                        score = score_surround(anchor.obb, [g.obb for g in group])
                else:
                    score = _weakest_member(anchor, group, relation, side, geom)
                scores.append(score)
                if not score.positive:
                    break
            return scores

        tuples = _oo_tuples(assignment, mapping, spec.relation_text)
        results.append(_quantified(spec, *count_satisfied(tuples, scorer)))
    return results


def _qualifying_rooms(scene: SceneInstance, spec: OARelationSpec, specific_floors):
    rooms = list(scene.rooms)
    if specific_floors:
        wanted = set(specific_floors)
        rooms = [r for r in rooms if wanted & set(r.floor_ids)]
    if spec.arch_ref not in ARCH_REFS:  # room-type reference such as "bedroom"
        wanted_type = normalize_room_token(spec.arch_ref)
        rooms = [r for r in rooms if normalize_room_token(r.room_type) == wanted_type]
    return rooms


def eval_oa(
    geom: SceneGeometry, assignment: CategoryAssignment, oa_specs, judge: Judge
) -> list[SpecResult]:
    scene = geom.scene
    floor_ids = [f.id for f in scene.floors]
    results = []
    for spec in oa_specs:
        line = serialize_spec(spec)
        mapping = judge.judge(_map_oa_relation_request(spec, floor_ids))
        relation = mapping.get("relation_type")
        if relation is None:
            results.append(
                SpecResult(line, False, reason=f"unmappable relation: {mapping.get('reason', '')}")
            )
            continue
        instance_ids = assignment.instances(spec.category)
        if not instance_ids:
            results.append(SpecResult(line, False, reason="no matched instances"))
            continue
        kind = mapping.get("arch_type", "")
        specific_floors = mapping.get("specific_floors", ())

        if relation in ROOM_RELATIONS:
            elements = _qualifying_rooms(scene, spec, specific_floors)
        elif relation in WALL_RELATIONS:
            elements = scene.walls
        elif relation == "hang_ceiling":
            elements = scene.ceilings
        else:  # distance relation against a named element kind
            if kind == "room":
                elements = _qualifying_rooms(scene, spec, specific_floors)
            elif kind == "floor" and specific_floors:
                elements = [scene.arch_by_id(i) for i in specific_floors]
            else:
                elements = scene.arch_of_kind(kind)
        if not elements:
            results.append(
                SpecResult(
                    line, False,
                    reason=f"no {kind} elements for relation '{relation}'",
                )
            )
            continue

        def scorer(tup):
            obj_id, element = tup
            obj = scene.object_by_id(obj_id)
            try:
                if relation in ROOM_RELATIONS:
                    return [score_room_relation(obj, element, relation, geom)]
                if relation in WALL_RELATIONS or relation == "hang_ceiling":
                    return [score_wall_relation(obj, element, relation, geom)]
                if hasattr(element, "floor_ids"):  # distance to a room: nearest floor
                    d = min(geom.distance(obj, f) for f in scene.room_floors(element))
                    return [score_distance_band(d, DISTANCE_BANDS[relation])]
                return [score_object_distance(obj, element, relation, geom)]
            except ValueError as exc:
                logger.warning("spec '%s': %s", line, exc)
                return [RelationScore(0.0)]

        candidates = ((i, e) for i in instance_ids for e in elements)
        results.append(_quantified(spec, *count_satisfied(candidates, scorer)))
    return results


# ---------------------------------------------------------------------------
# Plausibility metrics
# ---------------------------------------------------------------------------


def eval_collision(geom: SceneGeometry):
    """All-pairs mesh collision: (% objects in collision, any-collision, pairs)."""
    colliding_pairs = []
    in_collision = set()
    objs = geom.scene.objects
    for i in range(len(objs)):
        for j in range(i + 1, len(objs)):
            if geom.intersects(objs[i], objs[j]):
                colliding_pairs.append((objs[i].id, objs[j].id))
                in_collision.add(objs[i].id)
                in_collision.add(objs[j].id)
    col_ob = 100.0 * len(in_collision) / len(objs) if objs else 0.0
    return col_ob, bool(colliding_pairs), colliding_pairs


_SUPPORT_LOCAL_DIRECTIONS = {
    "ground": np.array([0.0, 0.0, -1.0]),
    "object": np.array([0.0, 0.0, -1.0]),
    "ceiling": np.array([0.0, 0.0, 1.0]),
}


def support_direction(obj: ObjectInstance, support_type: str) -> np.ndarray:
    """World-frame support direction: down for ground/object, up for ceiling,
    backward (opposite the front axis) for wall-mounted objects."""
    if support_type == "wall":
        local = -(obj.front_axis if obj.front_axis is not None else np.array([0.0, 1.0, 0.0]))
    else:
        local = _SUPPORT_LOCAL_DIRECTIONS[support_type]
    d = obj.rotation @ local
    return d / np.linalg.norm(d)


def support_contacts(
    scene: SceneInstance, obj: ObjectInstance, direction: np.ndarray
) -> np.ndarray:
    """Ray contacts within 1 cm, cast from the mesh vertices nearest the direction."""
    verts = obj.world_mesh.vertices
    proj = verts @ direction
    support_verts = verts[proj >= proj.max() - SUPPORT_VERTEX_TOLERANCE]
    others = np.concatenate(
        [np.zeros((0, 3, 3))]  # there may be no other geometry at all
        + [o.world_mesh.triangles for o in scene.objects if o.id != obj.id]
        + [a.mesh.triangles for a in scene.architecture]
    )
    origins = support_verts - direction * RAY_ORIGIN_BACKOFF
    ts = ray_mesh_distances(origins, direction, others)
    contact = (ts - RAY_ORIGIN_BACKOFF) <= SUPPORT_CONTACT_DISTANCE
    return origins[contact] + ts[contact, None] * direction


def eval_support(scene: SceneInstance, judge: Judge):
    """Per-object stable support: (% supported or None, verdicts)."""
    verdicts = {}
    for obj in scene.objects:
        support_type = judge.judge(_support_type_request(obj))["support_type"]
        direction = support_direction(obj, support_type)
        contacts = support_contacts(scene, obj, direction)
        if support_type in ("wall", "ceiling"):
            verdicts[obj.id] = len(contacts) > 0
        else:
            verdicts[obj.id] = support_hull_check(contacts[:, :2], obj.obb.center[:2])
    percent = 100.0 * sum(verdicts.values()) / len(verdicts) if verdicts else None
    return percent, verdicts


def eval_navigability(occupancy: SceneOccupancy):
    """Largest free component over total free cells; 0 when nothing is free."""
    sizes = flood_components(occupancy.mask)
    total = sum(sizes)
    if total == 0:
        return 0.0, {"largest": 0, "total_free": 0, "degenerate": True}
    return sizes[0] / total, {"largest": sizes[0], "total_free": total, "degenerate": False}


def _front_axes_2d(obj: ObjectInstance):
    front_local = obj.front_axis if obj.front_axis is not None else np.array([0.0, 1.0, 0.0])
    f = obj.rotation @ front_local
    f2 = f[:2]
    if np.linalg.norm(f2) < 1e-6:
        f2 = (obj.rotation @ np.array([0.0, 1.0, 0.0]))[:2]
    if np.linalg.norm(f2) < 1e-6:
        f2 = np.array([0.0, 1.0])
    f2 = f2 / np.linalg.norm(f2)
    r2 = np.array([f2[1], -f2[0]])  # front x up
    return r2, f2


def side_band_score(
    occupancy: SceneOccupancy, obj: ObjectInstance, side: str, depth: float
) -> float:
    """Free fraction of the probe band outside one lateral side of the object."""
    r2, f2 = _front_axes_2d(obj)
    center = obj.obb.center[:2]
    rel = obj.obb.corners()[:, :2] - center
    e_r = float(np.abs(rel @ r2).max())
    e_f = float(np.abs(rel @ f2).max())
    half = depth / 2.0
    if side == "front":
        band_center, half_sizes = center + f2 * (e_f + half), (e_r, half)
    elif side == "back":
        band_center, half_sizes = center - f2 * (e_f + half), (e_r, half)
    elif side == "right":
        band_center, half_sizes = center + r2 * (e_r + half), (half, e_f)
    elif side == "left":
        band_center, half_sizes = center - r2 * (e_r + half), (half, e_f)
    else:
        raise ValueError(f"not a lateral side: '{side}'")
    band = cells_in_rect(occupancy.mask, band_center, (r2, f2), half_sizes)
    total = int(band.sum())
    if total == 0:
        return 1.0  # band thinner than a cell: nothing can block it
    occupied = occupancy.occupied_without(obj.id)
    return float((band & ~occupied).sum() / total)


def eval_accessibility(scene: SceneInstance, occupancy: SceneOccupancy, judge: Judge):
    """Best free-side fraction per object; objects with no functional sides
    are excluded from the mean."""
    scores = {}
    for obj in scene.objects:
        sides = judge.judge(_functional_sides_request(obj))["sides"]
        if not sides:
            scores[obj.id] = None
            continue
        scores[obj.id] = max(
            side_band_score(occupancy, obj, side, ACC_PROBE_DEPTH) for side in sides
        )
    scored = [v for v in scores.values() if v is not None]
    mean = sum(scored) / len(scored) if scored else None
    return scores, mean


def classify_out_of_bounds(hit_fraction: float) -> bool:
    """Out of bounds when fewer than OOB_HIT_THRESHOLD of surface rays hit the floor."""
    return hit_fraction < OOB_HIT_THRESHOLD


def eval_oob(scene: SceneInstance, config: EvalConfig):
    """Surface-sampled downward-ray bounds test per object."""
    if not scene.floors:
        raise ValueError("out-of-bounds needs at least one floor")
    floor_tris = np.concatenate([f.mesh.triangles for f in scene.floors])
    flags = {}
    for obj in scene.objects:
        seed = derive_seed(config.seed, "oob", obj.id)
        pts = sample_mesh_surface(obj.world_mesh, config.samples, seed)
        flags[obj.id] = classify_out_of_bounds(
            ray_hit_fraction(pts, np.array([0.0, 0.0, -1.0]), floor_tris)
        )
    percent = 100.0 * sum(flags.values()) / len(flags) if flags else None
    return percent, flags


# ---------------------------------------------------------------------------
# Whole-scene evaluation
# ---------------------------------------------------------------------------


@dataclass
class SceneReport:
    scene_id: str
    entry_id: str
    difficulty: str
    cnt: list = field(default_factory=list)
    atr: list = field(default_factory=list)
    oor: list = field(default_factory=list)
    oar: list = field(default_factory=list)
    col_ob: float | None = None
    col_sc: bool | None = None
    colliding_pairs: list = field(default_factory=list)
    sup: float | None = None
    sup_verdicts: dict = field(default_factory=dict)
    nav: float | None = None
    nav_detail: dict = field(default_factory=dict)
    acc: float | None = None
    acc_scores: dict = field(default_factory=dict)
    oob: float | None = None
    oob_flags: dict = field(default_factory=dict)
    unmatched_objects: tuple = ()
    seed: int = 0
    samples: int = 0
    resolution: float = 0.0
    judge_transcript_hash: str = ""
    errors: dict = field(default_factory=dict)

    @property
    def cnt_percent(self):
        return percent_passed(self.cnt)

    @property
    def atr_percent(self):
        return percent_passed(self.atr)

    @property
    def oor_percent(self):
        return percent_passed(self.oor)

    @property
    def oar_percent(self):
        return percent_passed(self.oar)

    def metric_values(self) -> dict:
        """Scalar metric values in report column order; None where undefined."""
        return {
            "cnt": self.cnt_percent,
            "atr": self.atr_percent,
            "oor": self.oor_percent,
            "oar": self.oar_percent,
            "col_ob": self.col_ob,
            "col_sc": None if self.col_sc is None else float(self.col_sc),
            "sup": self.sup,
            "nav": self.nav,
            "acc": self.acc,
            "oob": self.oob,
        }

    def to_dict(self) -> dict:
        return {
            "scene_id": self.scene_id,
            "entry_id": self.entry_id,
            "difficulty": self.difficulty,
            "metrics": self.metric_values(),
            "specs": {
                "cnt": [r.to_dict() for r in self.cnt],
                "atr": [r.to_dict() for r in self.atr],
                "oor": [r.to_dict() for r in self.oor],
                "oar": [r.to_dict() for r in self.oar],
            },
            "colliding_pairs": [list(p) for p in self.colliding_pairs],
            "sup_verdicts": dict(sorted(self.sup_verdicts.items())),
            "nav_detail": self.nav_detail,
            "acc_scores": dict(sorted(self.acc_scores.items())),
            "oob_flags": dict(sorted(self.oob_flags.items())),
            "unmatched_objects": sorted(self.unmatched_objects),
            "config": {
                "seed": self.seed,
                "samples": self.samples,
                "resolution": self.resolution,
            },
            "judge_transcript_hash": self.judge_transcript_hash,
            "errors": dict(sorted(self.errors.items())),
        }


def evaluate_scene(
    scene: SceneInstance,
    entry: DatasetEntry,
    judge: Judge,
    config: EvalConfig | None = None,
) -> SceneReport:
    """Run matching then all nine metrics; per-metric errors are recorded
    without aborting the rest.

    The judge requests are planned first and asked in two waves, each
    distinct request once: everything but the attribute checks before
    matching, the attribute checks of the matched instances after it.  So
    `judge.judge` may be called from up to JUDGE_THREADS threads at once.
    The metrics then read the answers in the order a one-at-a-time run would
    ask them, so errors and the transcript hash do not depend on the waves.
    """
    config = config or EvalConfig()
    scene_judge = _SceneJudge(judge)
    geom = SceneGeometry(scene, config)
    report = SceneReport(
        scene_id=scene.manifest_path.parent.name if scene.manifest_path else entry.id,
        entry_id=entry.id,
        difficulty=entry.difficulty,
        seed=config.seed,
        samples=config.samples,
        resolution=config.resolution,
    )

    scene_judge.prefetch(_first_wave(scene, entry))
    assignment = None
    try:
        assignment = match_objects(scene, entry.count_categories(), scene_judge)
        report.unmatched_objects = assignment.unmatched_objects
    except JudgeError as exc:
        report.errors["matching"] = str(exc)

    if assignment is not None:
        scene_judge.prefetch(_second_wave(scene, assignment, entry.attributes))
        for name, runner in (
            ("cnt", lambda: eval_count(assignment, entry.counts)),
            ("atr", lambda: eval_attribute(scene, assignment, entry.attributes, scene_judge)),
            ("oor", lambda: eval_oo(geom, assignment, entry.oo_relations, scene_judge)),
            ("oar", lambda: eval_oa(geom, assignment, entry.oa_relations, scene_judge)),
        ):
            try:
                setattr(report, name, runner())
            except (JudgeError, ValueError) as exc:
                report.errors[name] = str(exc)

    try:
        report.col_ob, report.col_sc, report.colliding_pairs = eval_collision(geom)
    except ValueError as exc:
        report.errors["col"] = str(exc)
    try:
        report.sup, report.sup_verdicts = eval_support(scene, scene_judge)
    except (JudgeError, ValueError) as exc:
        report.errors["sup"] = str(exc)
    try:
        occupancy = scene.occupancy(config.resolution)
    except ValueError as exc:
        report.errors["nav"] = report.errors["acc"] = str(exc)
    else:
        report.nav, report.nav_detail = eval_navigability(occupancy)
        try:
            report.acc_scores, report.acc = eval_accessibility(scene, occupancy, scene_judge)
        except (JudgeError, ValueError) as exc:
            report.errors["acc"] = str(exc)
    try:
        report.oob, report.oob_flags = eval_oob(scene, config)
    except ValueError as exc:
        report.errors["oob"] = str(exc)

    report.judge_transcript_hash = transcript_hash(scene_judge.responses)
    return report
