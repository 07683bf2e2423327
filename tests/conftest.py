import json
import struct
from pathlib import Path

import numpy as np
import pytest

from scenescore.geometry import TriMesh, box_mesh
from scenescore.meshio import write_obj
from scenescore.scene import (
    SceneInstance,
    arch_from_polygon,
    make_room,
    object_from_mesh,
)


def rot_z(deg):
    a = np.radians(deg)
    return np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]])


def make_box_object(obj_id, extents, center, yaw=0.0, front_axis=(0, 1, 0),
                    frontless=False, description=None):
    """In-memory box-shaped ObjectInstance (local mesh centered at origin)."""
    return object_from_mesh(
        obj_id,
        box_mesh(extents),
        rotation=rot_z(yaw),
        translation=center,
        front_axis=front_axis,
        frontless=frontless,
        description=description,
    )


def uv_sphere_mesh(radius, stacks, slices, center=(0.0, 0.0, 0.0)):
    """Closed UV sphere of 2 * slices * (stacks - 1) triangles, poles on z."""
    theta = np.pi * np.arange(1, stacks) / stacks
    phi = 2.0 * np.pi * np.arange(slices) / slices
    rings = np.stack(
        [
            np.outer(np.sin(theta), np.cos(phi)),
            np.outer(np.sin(theta), np.sin(phi)),
            np.repeat(np.cos(theta)[:, None], slices, axis=1),
        ],
        axis=-1,
    ).reshape(-1, 3)
    verts = np.vstack([[0.0, 0.0, 1.0], rings, [0.0, 0.0, -1.0]]) * radius + center
    bottom = len(verts) - 1

    def v(i, j):
        return 1 + i * slices + j % slices

    faces = [(0, v(0, j), v(0, j + 1)) for j in range(slices)]
    for i in range(stacks - 2):
        for j in range(slices):
            faces += [
                (v(i, j), v(i + 1, j), v(i, j + 1)),
                (v(i, j + 1), v(i + 1, j), v(i + 1, j + 1)),
            ]
    faces += [(bottom, v(stacks - 2, j + 1), v(stacks - 2, j)) for j in range(slices)]
    return TriMesh(verts, faces)


def striped_bottom_box_mesh(extents, strips=100):
    """Box mesh whose bottom face carries a dense vertex strip along x.

    Support rays are cast from extreme vertices, so overhang fixtures need
    bottom vertices between the corners to resolve the contact region.
    """
    from scenescore.geometry import TriMesh

    base = box_mesh(extents)
    ex, ey, ez = np.asarray(extents, dtype=float)
    xs = np.linspace(-ex / 2, ex / 2, strips + 1)
    verts = []
    faces = []
    for i, x in enumerate(xs):
        verts.append([x, -ey / 2, -ez / 2])
        verts.append([x, ey / 2, -ez / 2])
        if i:
            a, b = 2 * (i - 1), 2 * (i - 1) + 1
            c, d = 2 * i, 2 * i + 1
            faces.append([a, c, b])
            faces.append([b, c, d])
    verts = np.asarray(verts)
    faces = np.asarray(faces) + len(base.vertices)
    return TriMesh(
        np.vstack([base.vertices, verts]), np.vstack([base.faces, faces])
    )


def make_striped_object(obj_id, extents, center, strips=100, description=None):
    return object_from_mesh(
        obj_id,
        striped_bottom_box_mesh(extents, strips),
        translation=center,
        description=description,
    )


def make_room_scene(size=(6.0, 6.0), height=2.5, origin=(0.0, 0.0), objects=(),
                    room_type="room", ceiling=False, extra_arch=()):
    """In-memory rectangular room with four walls (+ optional ceiling)."""
    ox, oy = origin
    w, d = size
    room_id = "room_0"
    floor = arch_from_polygon(
        f"floor_{room_id}", "floor",
        [[ox, oy, 0], [ox + w, oy, 0], [ox + w, oy + d, 0], [ox, oy + d, 0]],
    )
    corners = [(ox, oy), (ox + w, oy), (ox + w, oy + d), (ox, oy + d)]
    normals = [(0, 1, 0), (-1, 0, 0), (0, -1, 0), (1, 0, 0)]
    walls = []
    for i, name in enumerate(["s", "e", "n", "w"]):
        a, b = corners[i], corners[(i + 1) % 4]
        walls.append(
            arch_from_polygon(
                f"wall_{name}", "wall",
                [[a[0], a[1], 0], [b[0], b[1], 0], [b[0], b[1], height], [a[0], a[1], height]],
                front_normal=normals[i],
            )
        )
    arch = [floor] + walls + list(extra_arch)
    if ceiling:
        arch.append(
            arch_from_polygon(
                "ceiling_0", "ceiling",
                [[ox, oy, height], [ox + w, oy, height],
                 [ox + w, oy + d, height], [ox, oy + d, height]],
            )
        )
    room = make_room(room_id, room_type, [floor], walls)
    return SceneInstance(list(objects), arch, [room])


class SceneBuilder:
    """Writes a scene manifest plus box meshes into a directory."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "meshes").mkdir(exist_ok=True)
        self.objects = []
        self.architecture = []
        self.rooms = []
        self._mesh_files = {}

    def _box_obj(self, extents, local_center=(0, 0, 0)):
        key = (tuple(np.round(extents, 9)), tuple(np.round(local_center, 9)))
        if key not in self._mesh_files:
            name = f"meshes/box_{len(self._mesh_files)}.obj"
            write_obj(self.root / name, box_mesh(extents, center=local_center))
            self._mesh_files[key] = name
        return self._mesh_files[key]

    def add_box(
        self,
        obj_id,
        extents,
        center,
        yaw=0.0,
        description=None,
        front_axis=None,
        frontless=False,
        local_center=(0, 0, 0),
        images=None,
    ):
        r = rot_z(yaw)
        t = np.asarray(center, dtype=float)
        transform = np.hstack([r, t[:, None]]).reshape(-1).tolist()
        entry = {
            "id": obj_id,
            "description": description or obj_id.replace("_", " "),
            "mesh": self._box_obj(extents, local_center),
            "transform": transform,
        }
        if frontless:
            entry["frontless"] = True
        elif front_axis is not None:
            entry["front_axis"] = list(front_axis)
        if images:
            entry["images"] = images
        self.objects.append(entry)
        return entry

    def add_room(
        self,
        size=(6.0, 6.0),
        height=2.5,
        origin=(0.0, 0.0),
        room_id="room_0",
        room_type="room",
        walls=True,
        ceiling=False,
    ):
        ox, oy = origin
        w, d = size
        fid = f"floor_{room_id}"
        self.architecture.append(
            {
                "id": fid,
                "kind": "floor",
                "polygon": [[ox, oy, 0], [ox + w, oy, 0], [ox + w, oy + d, 0], [ox, oy + d, 0]],
            }
        )
        if walls:
            corners = [(ox, oy), (ox + w, oy), (ox + w, oy + d), (ox, oy + d)]
            normals = [(0, 1, 0), (-1, 0, 0), (0, -1, 0), (1, 0, 0)]
            names = ["s", "e", "n", "w"]
            for i in range(4):
                a = corners[i]
                b = corners[(i + 1) % 4]
                self.architecture.append(
                    {
                        "id": f"wall_{room_id}_{names[i]}",
                        "kind": "wall",
                        "polygon": [
                            [a[0], a[1], 0],
                            [b[0], b[1], 0],
                            [b[0], b[1], height],
                            [a[0], a[1], height],
                        ],
                        "front_normal": list(normals[i]),
                    }
                )
        if ceiling:
            self.architecture.append(
                {
                    "id": f"ceiling_{room_id}",
                    "kind": "ceiling",
                    "polygon": [
                        [ox, oy, height],
                        [ox + w, oy, height],
                        [ox + w, oy + d, height],
                        [ox, oy + d, height],
                    ],
                }
            )
        self.rooms.append({"id": room_id, "room_type": room_type, "floor_ids": [fid]})

    def add_arch(self, entry):
        self.architecture.append(entry)

    def write(self, name="scene.json") -> Path:
        path = self.root / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "objects": self.objects,
                    "architecture": self.architecture,
                    "rooms": self.rooms,
                },
                fh,
                indent=2,
            )
        return path


@pytest.fixture
def scene_builder(tmp_path):
    def make(subdir="scene"):
        return SceneBuilder(tmp_path / subdir)

    return make


def build_cube_glb(path, extents=(1.0, 1.0, 1.0), translation=(0.0, 0.0, 0.0)):
    """Minimal valid GLB containing one translated box mesh."""
    mesh = box_mesh(extents)
    pos = mesh.vertices.astype("<f4")
    idx = mesh.faces.astype("<u2").ravel()
    pos_bytes = pos.tobytes()
    idx_bytes = idx.tobytes()
    bin_data = pos_bytes + idx_bytes
    bin_data += b"\x00" * ((-len(bin_data)) % 4)
    gltf = {
        "asset": {"version": "2.0"},
        "scene": 0,
        "scenes": [{"nodes": [0]}],
        "nodes": [{"mesh": 0, "translation": list(translation)}],
        "meshes": [{"primitives": [{"attributes": {"POSITION": 0}, "indices": 1}]}],
        "accessors": [
            {
                "bufferView": 0,
                "componentType": 5126,
                "count": len(pos),
                "type": "VEC3",
                "min": pos.min(axis=0).tolist(),
                "max": pos.max(axis=0).tolist(),
            },
            {"bufferView": 1, "componentType": 5123, "count": len(idx), "type": "SCALAR"},
        ],
        "bufferViews": [
            {"buffer": 0, "byteOffset": 0, "byteLength": len(pos_bytes)},
            {"buffer": 0, "byteOffset": len(pos_bytes), "byteLength": len(idx_bytes)},
        ],
        "buffers": [{"byteLength": len(bin_data)}],
    }
    json_bytes = json.dumps(gltf).encode()
    json_bytes += b" " * ((-len(json_bytes)) % 4)
    total = 12 + 8 + len(json_bytes) + 8 + len(bin_data)
    with open(path, "wb") as fh:
        fh.write(b"glTF")
        fh.write(struct.pack("<II", 2, total))
        fh.write(struct.pack("<II", len(json_bytes), 0x4E4F534A))
        fh.write(json_bytes)
        fh.write(struct.pack("<II", len(bin_data), 0x004E4942))
        fh.write(bin_data)
    return path
