"""Scene data model and manifest loading.

A scene manifest is one JSON document listing objects (mesh path plus a
rigid 12-value row-major placement), architecture elements (inline world
polygons or world-frame mesh files), and rooms.  All loaded geometry is in
world frame, meters, Z-up, gravity along -Z.  Instances are immutable after
load and safe to share across concurrent metric evaluations.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import meshio
from .geometry import (
    OrientedBox,
    SceneOccupancy,
    TriMesh,
    points_in_triangles_2d,
    polygon_planarity,
    polygon_to_mesh,
    surface_distance_bracket,
)

logger = logging.getLogger(__name__)

ARCH_KINDS = ("wall", "floor", "ceiling", "window", "door")
DEFAULT_FRONT_AXIS = (0.0, 1.0, 0.0)
FLOOR_PLANARITY_TOL = 1e-4
WALL_ROOM_ATTACH_DISTANCE = 0.15  # walls this close to a room's floors belong to it


class SceneLoadError(ValueError):
    pass


@dataclass(frozen=True)
class ObjectInstance:
    id: str
    description: str
    mesh: TriMesh               # local frame
    rotation: np.ndarray        # (3, 3)
    translation: np.ndarray     # (3,)
    obb: OrientedBox            # world frame
    world_mesh: TriMesh
    front_axis: np.ndarray | None  # unit vector, local frame; None when frontless
    image_refs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ArchElement:
    id: str
    kind: str
    mesh: TriMesh               # world frame
    front_normal: np.ndarray | None = None  # walls only; points into the room


@dataclass(frozen=True)
class RoomRegion:
    id: str
    room_type: str
    floor_ids: tuple
    centroid_2d: np.ndarray
    mean_dimension: float       # mean of the room's 2D extent, meters
    wall_ids: tuple = ()


class SceneInstance:
    """Objects plus architecture with world transforms; the thing being scored."""

    def __init__(self, objects, architecture, rooms, manifest_path=None):
        self.objects: list[ObjectInstance] = list(objects)
        self.architecture: list[ArchElement] = list(architecture)
        self.rooms: list[RoomRegion] = list(rooms)
        self.manifest_path = Path(manifest_path) if manifest_path else None
        self._by_id = {o.id: o for o in self.objects}
        self._arch_by_id = {a.id: a for a in self.architecture}

    def object_by_id(self, object_id: str) -> ObjectInstance:
        return self._by_id[object_id]

    def arch_by_id(self, arch_id: str) -> ArchElement:
        return self._arch_by_id[arch_id]

    def arch_of_kind(self, kind: str) -> list[ArchElement]:
        return [a for a in self.architecture if a.kind == kind]

    @property
    def floors(self) -> list[ArchElement]:
        return self.arch_of_kind("floor")

    @property
    def walls(self) -> list[ArchElement]:
        return self.arch_of_kind("wall")

    @property
    def ceilings(self) -> list[ArchElement]:
        return self.arch_of_kind("ceiling")

    def room_floors(self, room: RoomRegion) -> list[ArchElement]:
        return [self._arch_by_id[i] for i in room.floor_ids]

    def room_walls(self, room: RoomRegion) -> list[ArchElement]:
        return [self._arch_by_id[i] for i in room.wall_ids]

    def occupancy(self, resolution: float) -> SceneOccupancy:
        """The scene's floor-plan occupancy at `resolution` meters per cell."""
        if not resolution > 0:  # NaN included
            raise ValueError("resolution must be > 0")
        if not np.isfinite(resolution):
            raise ValueError("resolution must be finite")
        if not self.floors:
            raise ValueError("at least one floor is required")
        return SceneOccupancy(
            [f.mesh for f in self.floors],
            [w.mesh for w in self.walls],
            {o.id: o.world_mesh for o in self.objects},
            resolution,
        )


def world_front_vector(obj: ObjectInstance) -> np.ndarray:
    """The object's semantic front direction in world frame (unit length)."""
    if obj.front_axis is None:
        raise ValueError(f"no front vector: object '{obj.id}' is frontless")
    v = obj.rotation @ obj.front_axis
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Programmatic construction
# ---------------------------------------------------------------------------


def object_from_mesh(
    obj_id: str,
    mesh: TriMesh,
    rotation=None,
    translation=(0.0, 0.0, 0.0),
    front_axis=DEFAULT_FRONT_AXIS,
    frontless: bool = False,
    description: str | None = None,
    image_refs: dict | None = None,
) -> ObjectInstance:
    """Build an ObjectInstance from an in-memory local mesh and a rigid placement.

    Raises SceneLoadError when the placement or front axis is not finite,
    the rotation is not orthonormal, or the front axis has zero length.
    """
    rotation = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    translation = np.asarray(translation, dtype=float)
    for name, value in (("rotation", rotation), ("translation", translation)):
        if not np.isfinite(value).all():
            raise SceneLoadError(f"object '{obj_id}': {name} has non-finite values")
    if not np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-4):
        raise SceneLoadError(
            f"object '{obj_id}': rotation is not orthonormal (placements must be rigid)"
        )
    if frontless:
        front = None
    else:
        front = np.asarray(front_axis, dtype=float)
        if not np.isfinite(front).all():
            raise SceneLoadError(f"object '{obj_id}': non-finite front axis")
        norm = np.linalg.norm(front)
        if norm < 1e-9:
            raise SceneLoadError(f"object '{obj_id}': zero-length front axis")
        front = front / norm
    lo, hi = mesh.bounds
    obb = OrientedBox.from_local_aabb(lo, hi, rotation, translation)
    return ObjectInstance(
        id=obj_id,
        description=description if description is not None else obj_id.replace("_", " "),
        mesh=mesh,
        rotation=rotation,
        translation=translation,
        obb=obb,
        world_mesh=mesh.transformed(rotation, translation),
        front_axis=front,
        image_refs=dict(image_refs or {}),
    )


def _checked_arch(arch_id: str, kind: str, mesh: TriMesh, front_normal) -> ArchElement:
    """The ArchElement for one element, after the checks every element passes."""
    if kind not in ARCH_KINDS:
        raise SceneLoadError(f"unknown arch kind '{kind}' for element '{arch_id}'")
    if kind == "floor" and polygon_planarity(mesh.vertices) > FLOOR_PLANARITY_TOL:
        raise SceneLoadError(f"floor '{arch_id}' is not planar")
    if front_normal is not None:
        front_normal = np.asarray(front_normal, dtype=float)
        norm = np.linalg.norm(front_normal)
        if not 0.0 < norm < np.inf:
            raise SceneLoadError(f"element '{arch_id}': front_normal must be finite and non-zero")
        front_normal = front_normal / norm
    if kind == "wall" and front_normal is None:
        raise SceneLoadError(f"wall '{arch_id}' must declare front_normal")
    return ArchElement(id=arch_id, kind=kind, mesh=mesh, front_normal=front_normal)


def arch_from_polygon(arch_id: str, kind: str, polygon, front_normal=None) -> ArchElement:
    """Build an ArchElement from a world-frame planar polygon."""
    polygon = np.asarray(polygon, dtype=float)
    if not np.isfinite(polygon).all():
        raise SceneLoadError(f"element '{arch_id}': polygon has non-finite vertices")
    try:
        mesh = polygon_to_mesh(polygon)
    except ValueError as exc:  # too few vertices, or no area
        raise SceneLoadError(f"element '{arch_id}': {exc}") from exc
    return _checked_arch(arch_id, kind, mesh, front_normal)


def make_room(room_id: str, room_type: str, floors, walls=()) -> RoomRegion:
    """Build a RoomRegion from already-constructed floor/wall elements."""
    centroid, mean_dim = _room_metrics([f.mesh for f in floors])
    if mean_dim <= 0:
        raise SceneLoadError(f"room '{room_id}' has non-positive extent")
    tris = np.concatenate([f.mesh.triangles[:, :, :2] for f in floors])
    if not points_in_triangles_2d(centroid[None, :], tris)[0]:
        logger.warning("room '%s': centroid falls outside its floor polygons", room_id)
    return RoomRegion(
        id=room_id,
        room_type=room_type,
        floor_ids=tuple(f.id for f in floors),
        centroid_2d=centroid,
        mean_dimension=mean_dim,
        wall_ids=tuple(w.id for w in walls),
    )


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _parse_transform(values) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (12,):
        raise SceneLoadError(f"transform must have 12 row-major values, got {arr.shape}")
    m = arr.reshape(3, 4)
    return m[:, :3], m[:, 3]


def _usable_mesh(path: Path, name: str) -> TriMesh:
    """The mesh file at `path` without its degenerate triangles; `name` labels
    the warning and the error."""
    mesh, dropped = meshio.load_mesh(path).without_degenerate_triangles()
    if dropped:
        logger.warning("%s: dropped %d degenerate triangles", name, dropped)
    if len(mesh) == 0:
        raise SceneLoadError(f"mesh has no usable triangles: {name}")
    return mesh


def _load_object(entry, base_dir: Path, mesh_cache: dict) -> ObjectInstance:
    obj_id = entry["id"]
    mesh_path = entry["mesh"]
    resolved = (base_dir / mesh_path).resolve()
    if resolved not in mesh_cache:
        mesh = _usable_mesh(resolved, mesh_path)
        if mesh.boundary_edge_count():
            logger.warning("non-manifold mesh: %s", mesh_path)
        mesh_cache[resolved] = mesh
    mesh = mesh_cache[resolved]

    rotation, translation = _parse_transform(entry["transform"])
    return object_from_mesh(
        obj_id,
        mesh,
        rotation=rotation,
        translation=translation,
        front_axis=entry.get("front_axis", DEFAULT_FRONT_AXIS),
        frontless=bool(entry.get("frontless")),
        description=entry.get("description", obj_id),
        image_refs=entry.get("images", {}),
    )


def _load_arch(entry, base_dir: Path) -> ArchElement:
    arch_id, kind = entry["id"], entry.get("kind")
    front_normal = entry.get("front_normal")
    if "polygon" in entry:
        return arch_from_polygon(arch_id, kind, entry["polygon"], front_normal)
    if "mesh" not in entry:
        raise SceneLoadError(f"arch element '{arch_id}' needs 'polygon' or 'mesh'")
    mesh_path = entry["mesh"]
    # no boundary-edge warning: a planar element always has boundary edges
    mesh = _usable_mesh((base_dir / mesh_path).resolve(), f"{mesh_path} (element '{arch_id}')")
    return _checked_arch(arch_id, kind, mesh, front_normal)


def _room_metrics(floor_meshes) -> tuple[np.ndarray, float]:
    areas = []
    centroids = []
    for mesh in floor_meshes:
        tri = mesh.triangles
        a = 0.5 * np.abs(
            (tri[:, 1, 0] - tri[:, 0, 0]) * (tri[:, 2, 1] - tri[:, 0, 1])
            - (tri[:, 1, 1] - tri[:, 0, 1]) * (tri[:, 2, 0] - tri[:, 0, 0])
        )
        c = tri[:, :, :2].mean(axis=1)
        areas.append(a)
        centroids.append(c)
    areas = np.concatenate(areas)
    centroids = np.concatenate(centroids)
    total = areas.sum()
    if total <= 0:
        raise SceneLoadError("room floors have zero area")
    centroid = (centroids * areas[:, None]).sum(axis=0) / total
    lo = np.min([m.bounds[0, :2] for m in floor_meshes], axis=0)
    hi = np.max([m.bounds[1, :2] for m in floor_meshes], axis=0)
    mean_dim = float((hi - lo).mean())
    return centroid, mean_dim


def _load_room(entry, arch_by_id) -> RoomRegion:
    floor_ids = tuple(entry.get("floor_ids", ()))
    if not floor_ids:
        raise SceneLoadError(f"room '{entry.get('id')}' references no floors")
    floors = []
    for fid in floor_ids:
        if fid not in arch_by_id or arch_by_id[fid].kind != "floor":
            raise SceneLoadError(f"room '{entry['id']}' references unknown floor '{fid}'")
        floors.append(arch_by_id[fid])
    walls = [
        a for a in arch_by_id.values() if a.kind == "wall" and _attached(a, floors)
    ]
    return make_room(entry["id"], entry.get("room_type", ""), floors, walls)


def _attached(wall: ArchElement, floors) -> bool:
    """True when the wall is within WALL_ROOM_ATTACH_DISTANCE of a floor.

    The distance search stops once its bracket is on one side of the limit.
    """

    def settled(lo, hi):
        return lo > WALL_ROOM_ATTACH_DISTANCE or hi <= WALL_ROOM_ATTACH_DISTANCE

    return any(
        surface_distance_bracket(wall.mesh, f.mesh, settled=settled)[1]
        <= WALL_ROOM_ATTACH_DISTANCE
        for f in floors
    )


def load_scene(manifest_path) -> SceneInstance:
    """Load a scene manifest and its referenced meshes into world space."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"missing file: {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    base_dir = manifest_path.parent
    mesh_cache: dict = {}

    objects = []
    seen = set()
    for entry in manifest.get("objects", []):
        obj = _load_object(entry, base_dir, mesh_cache)
        if obj.id in seen:
            raise SceneLoadError(f"duplicate object id '{obj.id}'")
        seen.add(obj.id)
        objects.append(obj)

    architecture = [_load_arch(e, base_dir) for e in manifest.get("architecture", [])]
    arch_by_id = {a.id: a for a in architecture}
    if len(arch_by_id) != len(architecture):
        raise SceneLoadError("duplicate architecture element id")

    rooms = [_load_room(e, arch_by_id) for e in manifest.get("rooms", [])]
    return SceneInstance(objects, architecture, rooms, manifest_path=manifest_path)

