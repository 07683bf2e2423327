"""Spatial relation scoring between objects and architecture.

Thirteen object-object relations (inside, outside, face, side_of,
side_region, long_short_side, on_top, middle_of, surround, next_to, near,
across, far) and ten object-architecture relations (next_to, near, across,
far, inside_room, middle_room, corner_room, on_wall, against_wall,
hang_ceiling).  Every scorer returns a value in [0, 1]; a relation holds
when the value reaches the 0.5 threshold.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ray_hit_fraction, ray_mesh_distances
from .scene import ArchElement, ObjectInstance, RoomRegion, world_front_vector

logger = logging.getLogger(__name__)

POSITIVITY_THRESHOLD = 0.5
# A distance bracket decides a band relation only when it clears the edge of
# the band's positive range by this much; nearer the edge the exact distance
# decides.
DECISION_MARGIN = 1e-6  # m
SIDE_OF_EXTENSION = 0.25       # anchor box inflation for side_of exclusion
FACE_MAX_ANGLE_DEG = 30.0      # face score reaches 0 at this angle
MIDDLE_OF_SIGMA = 0.25         # meters
MIDDLE_ROOM_MIN_SIGMA = 0.05   # guard for degenerate object/room size ratios
CORNER_PERPENDICULAR_DOT = 0.05

OO_RELATIONS = (
    "inside", "outside", "face", "side_of", "side_region", "long_short_side",
    "on_top", "middle_of", "surround", "next_to", "near", "across", "far",
)
OA_RELATIONS = (
    "next_to", "near", "across", "far", "inside_room", "middle_room",
    "corner_room", "on_wall", "against_wall", "hang_ceiling",
)
BOX_SIDES = ("left", "right", "front", "back", "top", "bottom")
LONG_SHORT = ("long", "short")

# Names judges are prompted with, mapped onto the internal catalogue.
JUDGE_RELATION_ALIASES = {
    "inside_of": "inside",
    "outside_of": "outside",
    "face_to": "face",
    "long_short_side_of": "long_short_side",
    "middle": "middle_of",
    "across_from": "across",
    "middle_of_room": "middle_room",
    "corner_of_room": "corner_room",
    "hang_from_ceiling": "hang_ceiling",
}


def canonical_relation(name: str, catalogue: tuple) -> str:
    """Resolve a judge-facing relation name against a catalogue, or raise."""
    resolved = JUDGE_RELATION_ALIASES.get(name, name)
    if resolved not in catalogue:
        raise ValueError(f"unknown relation '{name}'")
    return resolved


@dataclass(frozen=True)
class RelationScore:
    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"relation score out of range: {self.value}")

    @property
    def positive(self) -> bool:
        return self.value >= POSITIVITY_THRESHOLD


@dataclass(frozen=True)
class DistanceBand:
    """Closed distance interval scoring 1, with Gaussian falloff outside.

    The falloff argument is the deviation from the nearest band edge, so the
    score is continuous at the boundary.
    """

    lo: float
    hi: float
    sigma: float

    def score(self, d: float) -> float:
        if d < 0:
            raise ValueError("distance must be >= 0")
        if self.lo <= d <= self.hi:
            return 1.0
        delta = max(self.lo - d, d - self.hi)
        return math.exp(-(delta**2) / (2.0 * self.sigma**2))

    @property
    def positive_range(self) -> tuple[float, float]:
        """[lo - delta, hi + delta]: the distances scoring at least POSITIVITY_THRESHOLD.

        delta = sigma * sqrt(2 ln 2) for the 0.5 threshold, 0.294 m for sigma 0.25.
        """
        delta = self.sigma * math.sqrt(-2.0 * math.log(POSITIVITY_THRESHOLD))
        return self.lo - delta, self.hi + delta

    def decide(self, d_lo: float, d_hi: float) -> bool | None:
        """Positivity of every distance in [d_lo, d_hi], or None when the bracket
        comes within DECISION_MARGIN of an edge of the positive range."""
        low, high = self.positive_range
        if d_lo >= low + DECISION_MARGIN and d_hi <= high - DECISION_MARGIN:
            return True
        if d_hi <= low - DECISION_MARGIN or d_lo >= high + DECISION_MARGIN:
            return False
        return None

    def settles(self, d_lo: float, d_hi: float) -> bool:
        return self.decide(d_lo, d_hi) is not None


DISTANCE_BANDS = {
    "next_to": DistanceBand(0.0, 0.5, 0.25),
    "near": DistanceBand(0.5, 1.5, 0.25),
    "across": DistanceBand(1.5, 4.0, 0.25),
    "far": DistanceBand(4.0, math.inf, 0.25),
}
CORNER_WALL_BAND = DistanceBand(0.0, 0.8, 0.25)
ON_WALL_BAND = DistanceBand(0.0, 0.01, 0.01)
AGAINST_WALL_BAND = DistanceBand(0.0, 0.3, 0.1)
HANG_CEILING_BAND = DistanceBand(0.0, 0.01, 0.03)


def score_distance_band(d: float, band: DistanceBand) -> RelationScore:
    return RelationScore(band.score(d))


def score_object_distance(target: ObjectInstance, anchor, relation: str, geom) -> RelationScore:
    """next_to/near/across/far from the closest surface distance.

    The distance search stops as soon as its bracket decides the band
    (`DistanceBand.decide`).  The value is the band's score at the exact
    distance when the search had to be exact.  Otherwise it is the band's
    score at the bracket end nearer the band, which is on the same side of
    POSITIVITY_THRESHOLD as the score at the exact distance.  `geom`, the
    scene's `metrics.SceneGeometry`, shares the search's results between calls.
    """
    band = DISTANCE_BANDS[relation]
    lo, hi = geom.bracket(target, anchor, band)
    return RelationScore(max(band.score(lo), band.score(hi)))


# ---------------------------------------------------------------------------
# Containment and face
# ---------------------------------------------------------------------------


def score_containment(target_obb, anchor_obb, mode: str, samples: np.ndarray) -> RelationScore:
    """inside/outside: fraction of target box samples inside (outside) the anchor box."""
    if mode not in ("inside", "outside"):
        raise ValueError(f"bad containment mode '{mode}'")
    inside = anchor_obb.contains(samples)
    frac = float(inside.mean())
    return RelationScore(frac if mode == "inside" else 1.0 - frac)


def face_angle_score(angle_deg: float) -> float:
    """1 at 0 degrees, linearly down to 0 at FACE_MAX_ANGLE_DEG and beyond."""
    return float(np.clip(1.0 - angle_deg / FACE_MAX_ANGLE_DEG, 0.0, 1.0))


def score_face(target: ObjectInstance, anchor: ObjectInstance, samples: np.ndarray) -> RelationScore:
    """Rays from target samples along its front; score by the angle between the
    front and the direction to the mean hit point on the anchor (2D)."""
    front = world_front_vector(target)  # raises for frontless targets
    ts = ray_mesh_distances(samples, front, anchor.world_mesh.triangles)
    hit = np.isfinite(ts)
    if not hit.any():
        return RelationScore(0.0)
    hit_points = samples[hit] + ts[hit, None] * front
    to_mean = hit_points.mean(axis=0) - target.obb.center
    to_mean_2d = to_mean[:2]
    front_2d = front[:2]
    if np.linalg.norm(to_mean_2d) < 1e-9 or np.linalg.norm(front_2d) < 1e-9:
        return RelationScore(0.0)
    cosang = np.clip(
        (to_mean_2d @ front_2d) / (np.linalg.norm(to_mean_2d) * np.linalg.norm(front_2d)),
        -1.0,
        1.0,
    )
    return RelationScore(face_angle_score(math.degrees(math.acos(cosang))))


# ---------------------------------------------------------------------------
# Side family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SideSpec:
    """One side-family scoring request.

    variant 'side_of' excludes samples inside the anchor box extended by 25%
    per dimension; 'on_top' is side_of with side=top and no extension;
    'side_region' uses the box-center half-space with no exclusion;
    'long_short' unions the two lateral sides selected by footprint aspect.
    """

    side: str
    variant: str = "side_of"

    def __post_init__(self):
        if self.variant not in ("side_of", "side_region", "on_top", "long_short"):
            raise ValueError(f"bad side variant '{self.variant}'")
        valid = LONG_SHORT if self.variant == "long_short" else BOX_SIDES
        if self.side not in valid:
            raise ValueError(f"side '{self.side}' invalid for variant '{self.variant}'")


def _anchor_side_frame(anchor: ObjectInstance) -> dict:
    """Local-frame unit directions for each named side of the anchor.

    Sides follow the anchor's own orientation: front is its front axis
    (default +Y for frontless anchors), up is local +Z, right completes the
    frame.
    """
    front = anchor.front_axis if anchor.front_axis is not None else np.array([0.0, 1.0, 0.0])
    up = np.array([0.0, 0.0, 1.0])
    if abs(front @ up) > 0.99:  # near-vertical front: fall back to +Y
        front = np.array([0.0, 1.0, 0.0])
    front = front - up * (front @ up)
    front = front / np.linalg.norm(front)
    right = np.cross(front, up)
    return {
        "front": front, "back": -front, "right": right,
        "left": -right, "top": up, "bottom": -up,
    }


def _support_extent(half_extents: np.ndarray, direction: np.ndarray) -> float:
    return float(np.abs(direction) @ half_extents)


def score_side_family(
    target_samples: np.ndarray,
    anchor: ObjectInstance,
    spec: SideSpec,
) -> RelationScore:
    """side_of / side_region / on_top / long_short_side scoring."""
    obb = anchor.obb
    local = obb.to_local(target_samples)
    frame = _anchor_side_frame(anchor)

    if spec.variant == "long_short":
        width = _support_extent(obb.half_extents, frame["right"])
        depth = _support_extent(obb.half_extents, frame["front"])
        if abs(width - depth) < 1e-9:
            sides = ["front", "back", "left", "right"]
        elif (width > depth) == (spec.side == "long"):
            sides = ["front", "back"]  # long edges run left-right
        else:
            sides = ["left", "right"]
    else:
        sides = ["top"] if spec.variant == "on_top" else [spec.side]

    if spec.variant == "side_region":
        in_side = np.zeros(len(local), dtype=bool)
        for side in sides:
            d = frame[side]
            in_side |= (local @ d) > 0.0
        return RelationScore(float(in_side.mean()) if len(local) else 0.0)

    scale = 1.0 + (SIDE_OF_EXTENSION if spec.variant == "side_of" else 0.0)
    considered = ~obb.contains(target_samples, scale)
    n_considered = int(considered.sum())
    if n_considered == 0:
        return RelationScore(0.0)
    in_side = np.zeros(len(local), dtype=bool)
    for side in sides:
        d = frame[side]
        in_side |= (local @ d) > _support_extent(obb.half_extents, d)
    return RelationScore(float((in_side & considered).sum() / n_considered))


# ---------------------------------------------------------------------------
# Middle and surround
# ---------------------------------------------------------------------------


def score_middle_of(target_obb, anchor_obb) -> RelationScore:
    """Gaussian of the 2D centroid distance, sigma 0.25 m."""
    dist = float(np.linalg.norm(target_obb.center[:2] - anchor_obb.center[:2]))
    return RelationScore(math.exp(-(dist**2) / (2.0 * MIDDLE_OF_SIGMA**2)))


def score_surround(anchor_obb, target_obbs) -> RelationScore:
    """Surround score: how uniformly the targets ring the anchor.

    Distance deviations measure each target's centroid distance against the
    group mean; angle deviations measure each consecutive angular gap (sorted
    around the anchor) against the ideal uniform separation 2*pi/n.  Each
    deviation is normalized and clipped to [0, 1], then

        s = 1/(2n) * sum((1 - d_i)^2 + (1 - a_i)^2)
    """
    n = len(target_obbs)
    if n < 2:
        raise ValueError("surround needs at least 2 targets")
    rel = np.stack([t.center[:2] - anchor_obb.center[:2] for t in target_obbs])
    dists = np.linalg.norm(rel, axis=1)
    mean_d = float(dists.mean())
    if mean_d > 1e-12:
        d_dev = np.clip(np.abs(dists - mean_d) / mean_d, 0.0, 1.0)
    else:
        d_dev = np.zeros(n)
    ideal = 2.0 * math.pi / n
    angles = np.sort(np.arctan2(rel[:, 1], rel[:, 0]))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * math.pi]]))
    a_dev = np.clip(np.abs(gaps - ideal) / ideal, 0.0, 1.0)
    s = float((((1.0 - d_dev) ** 2) + ((1.0 - a_dev) ** 2)).sum() / (2.0 * n))
    return RelationScore(min(max(s, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Room and wall relations
# ---------------------------------------------------------------------------


def score_room_relation(obj: ObjectInstance, room: RoomRegion, kind: str, geom) -> RelationScore:
    """inside_room / middle_room / corner_room; `geom` is the scene's `metrics.SceneGeometry`."""
    if kind == "inside_room":
        floor_tris = np.concatenate([f.mesh.triangles for f in geom.scene.room_floors(room)])
        frac = ray_hit_fraction(geom.points(obj), np.array([0.0, 0.0, -1.0]), floor_tris)
        return RelationScore(frac)
    if kind == "middle_room":
        o = obj.obb.footprint_sides()[0]
        r = room.mean_dimension
        sigma = o / 2.0 + (1.0 - o / r)
        if sigma < MIDDLE_ROOM_MIN_SIGMA:
            logger.warning(
                "middle_room sigma %.4f clamped (object %.2f m vs room %.2f m)", sigma, o, r
            )
            sigma = MIDDLE_ROOM_MIN_SIGMA
        dist = float(np.linalg.norm(obj.obb.center[:2] - room.centroid_2d))
        return RelationScore(math.exp(-(dist**2) / (2.0 * sigma**2)))
    if kind == "corner_room":
        walls = geom.scene.room_walls(room)
        if len(walls) < 2:
            raise ValueError(f"corner relation needs >= 2 walls in room '{room.id}'")
        best = 0.0
        for i in range(len(walls)):
            for j in range(i + 1, len(walls)):
                wi, wj = walls[i], walls[j]
                if abs(float(wi.front_normal @ wj.front_normal)) > CORNER_PERPENDICULAR_DOT:
                    continue
                si = CORNER_WALL_BAND.score(geom.distance(obj, wi))
                sj = CORNER_WALL_BAND.score(geom.distance(obj, wj))
                best = max(best, si * sj)
        return RelationScore(best)
    raise ValueError(f"unknown room relation '{kind}'")


def score_wall_relation(
    obj: ObjectInstance, element: ArchElement, kind: str, geom
) -> RelationScore:
    """on_wall / against_wall / hang_ceiling; `geom` is the scene's `metrics.SceneGeometry`."""
    if kind == "hang_ceiling":
        if element.kind != "ceiling":
            raise ValueError("hang_ceiling requires a ceiling element")
        return RelationScore(HANG_CEILING_BAND.score(geom.distance(obj, element)))
    if kind in ("on_wall", "against_wall"):
        if element.kind != "wall":
            raise ValueError(f"{kind} requires a wall element")
        anchor_point = element.mesh.vertices.mean(axis=0)
        in_front = ((geom.points(obj) - anchor_point) @ element.front_normal) > 0.0
        s_f = float(in_front.mean())
        band = ON_WALL_BAND if kind == "on_wall" else AGAINST_WALL_BAND
        s_d = band.score(geom.distance(obj, element))
        return RelationScore(s_f * s_d)
    raise ValueError(f"unknown wall relation '{kind}'")


# ---------------------------------------------------------------------------
# Quantified satisfaction
# ---------------------------------------------------------------------------


def count_satisfied(candidate_tuples, scorer) -> tuple[int, int]:
    """(satisfied, candidates): how many tuples have every relation score
    positive, out of how many were offered.

    `scorer(tuple)` returns the RelationScore list for one candidate tuple;
    a tuple with no scores is not satisfied.
    """
    satisfied = candidates = 0
    for tup in candidate_tuples:
        candidates += 1
        scores = scorer(tup)
        satisfied += bool(scores) and all(s.positive for s in scores)
    return satisfied, candidates
