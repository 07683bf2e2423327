"""Seeded synthetic scenes for the benchmark workloads.

Scene *i* of a workload is a pure function of (workload, seed, i).
It is written out as the files a user hands to the scorer: a scene
manifest, one OBJ file per object and a dataset-entry directory.  The
ground truth that the oracle judge and the correctness gate need goes to
``truth.json`` beside them; the scorer never reads it.

Only placements depend on the seed.  Object counts, meshes, descriptions
and annotations are fixed per workload, so every scene of a workload costs
about the same and asks the judge the same questions.  That is what lets
one transcript, recorded on a low-detail copy of the layout, replay every
full-detail scene of a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from scenescore.geometry import TriMesh, box_mesh
from scenescore.meshio import write_obj

ROOM_SIZE = 10.0
WALL_HEIGHT = 2.5
ROOM_ID = "room_0"
FLOOR_ID = "floor_room_0"
DIFFICULTY = "medium"


def uv_sphere(radius: float, n_lat: int, n_lon: int) -> TriMesh:
    """Sphere centred at the origin with 2 * n_lon * (n_lat - 1) triangles."""
    verts = [(0.0, 0.0, -radius)]
    for i in range(1, n_lat):
        theta = np.pi * i / n_lat
        z, r = -radius * np.cos(theta), radius * np.sin(theta)
        for j in range(n_lon):
            phi = 2.0 * np.pi * j / n_lon
            verts.append((r * np.cos(phi), r * np.sin(phi), z))
    verts.append((0.0, 0.0, radius))
    top = len(verts) - 1

    def ring(i, j):
        return 1 + i * n_lon + j % n_lon

    faces = [(0, ring(0, j + 1), ring(0, j)) for j in range(n_lon)]
    for i in range(n_lat - 2):
        for j in range(n_lon):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j + 1), ring(i + 1, j)
            faces += [(a, b, c), (a, c, d)]
    faces += [(ring(n_lat - 2, j), ring(n_lat - 2, j + 1), top) for j in range(n_lon)]
    return TriMesh(np.asarray(verts), np.asarray(faces))


def striped_bottom_box(extents, strips: int) -> TriMesh:
    """Box whose bottom face also carries a strip of 2 * strips triangles.

    Support rays start at the mesh vertices nearest the support direction,
    so the strip gives a resting box a dense set of contact rays.
    """
    base = box_mesh(extents)
    ex, ey, ez = (float(v) for v in extents)
    xs = np.linspace(-ex / 2, ex / 2, strips + 1)
    verts = np.array([(x, y, -ez / 2) for x in xs for y in (-ey / 2, ey / 2)])
    faces = []
    for i in range(1, strips + 1):
        a, b, c, d = 2 * (i - 1), 2 * (i - 1) + 1, 2 * i, 2 * i + 1
        faces += [(a, c, b), (b, c, d)]
    faces = np.asarray(faces) + len(base.vertices)
    return TriMesh(np.vstack([base.vertices, verts]), np.vstack([base.faces, faces]))


@dataclass(frozen=True)
class Shape:
    """Object mesh recipe: a plain box, a striped-bottom box or a UV sphere.

    `size` holds box extents, or (radius,) for a sphere.  `res` is the strip
    count of a striped box, or (n_lat, n_lon) of a sphere; low detail keeps
    the outline with a handful of triangles.
    """

    kind: str
    size: tuple
    res: object = None

    @property
    def half_height(self) -> float:
        return self.size[0] if self.kind == "sphere" else self.size[2] / 2.0

    def mesh(self, low_detail: bool = False) -> TriMesh:
        if self.kind == "box":
            return box_mesh(self.size)
        if self.kind == "striped":
            return striped_bottom_box(self.size, 1 if low_detail else self.res)
        n_lat, n_lon = (4, 6) if low_detail else self.res
        return uv_sphere(self.size[0], n_lat, n_lon)


@dataclass(frozen=True)
class Kind:
    """What the oracle judge knows about one object description."""

    description: str
    category: str
    attributes: tuple = ()
    support_type: str = "ground"
    sides: tuple = ()


@dataclass(frozen=True)
class Placed:
    id: str
    kind: Kind
    shape: Shape
    x: float
    y: float
    base: float = 0.0      # height of the object's bottom above the floor
    yaw: float = 0.0       # degrees about +z
    frontless: bool = False


@dataclass
class Layout:
    objects: list = field(default_factory=list)
    counts: list = field(default_factory=list)
    attributes: list = field(default_factory=list)
    oo: list = field(default_factory=list)
    oa: list = field(default_factory=list)
    oo_mappings: dict = field(default_factory=dict)   # relation text -> judge answer
    oa_mappings: dict = field(default_factory=dict)
    colliding: list = field(default_factory=list)     # pairs interpenetrated on purpose
    # Colliding pairs of axis-aligned boxes where neither box holds the
    # other's first vertex.  mesh_pair_intersects misses these today (its
    # triangle broadphase wants positive overlap on all three axes, which
    # flat faces never have), so the gate prints them and does not gate them.
    ungated: list = field(default_factory=list)

    def add(self, prefix, kind, shape, x, y, **kw) -> Placed:
        n = sum(o.id.startswith(prefix + "_") for o in self.objects)
        obj = Placed(f"{prefix}_{n}", kind, shape, float(x), float(y), **kw)
        self.objects.append(obj)
        return obj


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

CLUSTER_CENTERS = ((2.5, 2.5), (7.5, 2.5), (2.5, 7.5), (7.5, 7.5))
# Mesh detail of geometry_bound: 2 * STRIPS + 12 triangles per striped box,
# 2 * n_lon * (n_lat - 1) per sphere, so 168 per object.  A 55 s run then
# holds about a dozen scenes, enough for a steady median.
STRIPS, SPHERE = 78, (8, 12)


def judge_bound(rng) -> Layout:
    """30 twelve-triangle boxes in five repeated descriptions."""
    chair = Kind("wooden dining chair", "chair", ("wooden",), sides=("front",))
    stool = Kind("red bar stool", "stool", ("red",))
    table = Kind("oak dining table", "table", ("oak",), sides=("front", "back"))
    lamp = Kind("brass floor lamp", "lamp")
    plant = Kind("potted fern", "plant", ("green",))
    chair_box = Shape("box", (0.45, 0.45, 0.9))
    stool_box = Shape("box", (0.35, 0.35, 0.7))
    plant_box = Shape("box", (0.4, 0.4, 0.8))

    lay = Layout()
    for cx, cy in CLUSTER_CENTERS:
        cx, cy = cx + rng.uniform(-0.3, 0.3), cy + rng.uniform(-0.3, 0.3)
        lay.add("table", table, Shape("box", (1.2, 0.8, 0.75)), cx, cy)
        lay.add("chair", chair, chair_box, cx, cy - 0.725)
        lay.add("chair", chair, chair_box, cx, cy + 0.725, yaw=180.0)
    east = [lay.add("chair", chair, chair_box, 9.5, y + rng.uniform(-0.1, 0.1), yaw=90.0)
            for y in (4.4, 5.6)]
    stools = [
        lay.add("stool", stool, stool_box, 5.0 + rng.uniform(-0.1, 0.1),
                1.2 + 1.05 * k + rng.uniform(-0.1, 0.1))
        for k in range(8)
    ]
    for x, y in ((0.3, 0.3), (9.7, 0.3), (0.3, 9.7), (9.7, 9.7)):
        lay.add("lamp", lamp, Shape("box", (0.3, 0.3, 1.6)), x, y)
    lay.add("plant", plant, plant_box, 0.35, 5.0 + rng.uniform(-0.2, 0.2))
    lay.add("plant", plant, plant_box, 6.5 + rng.uniform(-0.2, 0.2), 9.65)
    p2 = lay.add("plant", plant, plant_box, stools[3].x + 0.2, stools[3].y + 0.15)
    p3 = lay.add("plant", plant, plant_box, east[1].x - 0.25, east[1].y + 0.1)
    lay.colliding = [(stools[3].id, p2.id), (east[1].id, p3.id)]
    lay.ungated = [(east[1].id, p3.id)]

    lay.counts = ["eq,4,table", "eq,10,chair", "eq,8,stool", "eq,4,lamp", "eq,4,plant"]
    lay.attributes = ["ge,10,chair,wooden", "ge,8,stool,red", "ge,4,table,oak", "ge,4,plant,green"]
    lay.oo = ["ge,4,next_to,0,table,chair"]
    lay.oo_mappings = {"next_to": {"relation_types": ["next_to"], "sides": [None]}}
    lay.oa = ["ge,1,in_the_corner,lamp,room"]
    lay.oa_mappings = {"in_the_corner": {"relation_type": "corner_room", "arch_type": "room"}}
    return lay


def geometry_bound(rng) -> Layout:
    """24 meshes of 168 triangles with distinct descriptions: table clusters,
    two colliding pairs and relation specs between stools, tables and lamps."""
    tables = iter([Kind(f"square {finish} oak side table", "table", ("oak",),
                        sides=("front", "back", "left", "right"))
                   for finish in ("oiled", "waxed", "lacquered", "raw")])
    stools = iter([Kind(f"round {color} {fabric} stool", "stool")
                   for fabric in ("velvet", "linen", "leather")
                   for color in ("red", "blue", "green", "grey")])
    lamps = iter([Kind(f"{color} ceramic globe lamp", "lamp", support_type="object")
                  for color in ("white", "black", "teal", "amber")])
    ottomans = [Kind(f"round {fabric} ottoman", "ottoman") for fabric in ("velvet", "linen")]
    cubes = [Kind(f"white storage cube{door}", "storage_cube", ("white",), sides=("front",))
             for door in ("", " with a door")]
    table_mesh = Shape("striped", (0.9, 0.9, 0.75), STRIPS)
    stool_mesh = Shape("sphere", (0.22,), SPHERE)
    lamp_mesh = Shape("sphere", (0.15,), SPHERE)
    ottoman_mesh = Shape("sphere", (0.3,), SPHERE)
    cube_mesh = Shape("striped", (0.5, 0.5, 0.5), STRIPS)

    lay = Layout()
    # A stool sits off a table corner, 0.8 radius out along both axes: the
    # bounding boxes overlap, the surfaces stay 0.03 m apart.
    tuck = 0.45 + 0.8 * 0.22
    for cx, cy in CLUSTER_CENTERS:
        cx, cy = cx + rng.uniform(-0.4, 0.4), cy + rng.uniform(-0.4, 0.4)
        lay.add("table", next(tables), table_mesh, cx, cy, yaw=float(rng.choice([0.0, 90.0])))
        free = int(rng.integers(4))
        for c, (sx, sy) in enumerate(((-1, -1), (1, -1), (1, 1), (-1, 1))):
            if c != free:
                lay.add("stool", next(stools), stool_mesh, cx + sx * tuck, cy + sy * tuck,
                        frontless=True)
        lay.add("lamp", next(lamps), lamp_mesh, cx + rng.uniform(-0.2, 0.2),
                cy + rng.uniform(-0.2, 0.2), base=0.75, frontless=True)
    ox, oy = 5.0 + rng.uniform(-0.1, 0.1), 3.5 + rng.uniform(-0.3, 0.3)
    o0 = lay.add("ottoman", ottomans[0], ottoman_mesh, ox, oy, frontless=True)
    o1 = lay.add("ottoman", ottomans[1], ottoman_mesh, ox + 0.45, oy, frontless=True)
    bx, by = 5.0 + rng.uniform(-0.1, 0.1), 6.5 + rng.uniform(-0.3, 0.3)
    b0 = lay.add("cube", cubes[0], cube_mesh, bx, by)
    b1 = lay.add("cube", cubes[1], cube_mesh, bx + 0.3, by + 0.1)
    lay.colliding = [(o0.id, o1.id), (b0.id, b1.id)]

    lay.counts = ["eq,4,table", "eq,12,stool", "eq,4,lamp", "eq,2,ottoman", "eq,2,storage_cube"]
    lay.attributes = ["ge,4,table,oak", "ge,2,storage_cube,white"]
    lay.oo = ["ge,12,next_to,0,table,stool", "ge,4,on,0,table,lamp",
              "ge,2,near,0,stool,stool"]
    lay.oo_mappings = {
        "next_to": {"relation_types": ["next_to"], "sides": [None]},
        "on": {"relation_types": ["on_top"], "sides": [None]},
        "near": {"relation_types": ["near"], "sides": [None]},
    }
    lay.oa = ["eq,12,in_the_room,stool,room"]
    lay.oa_mappings = {"in_the_room": {"relation_type": "inside_room", "arch_type": "room"}}
    return lay


WORKLOADS = {
    "judge_bound": judge_bound,
    "geometry_bound": geometry_bound,
}


def build_layout(workload: str, seed: int, index: int) -> Layout:
    """Layout of scene `index` (-1 is the warm-up scene) for (workload, seed)."""
    code = list(WORKLOADS).index(workload)
    return WORKLOADS[workload](np.random.default_rng([code, seed % 2**32, index + 1]))


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def _rot_z(deg: float) -> np.ndarray:
    a = np.radians(deg)
    return np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])


def _room_architecture() -> list:
    s, h = ROOM_SIZE, WALL_HEIGHT
    arch = [{"id": FLOOR_ID, "kind": "floor",
             "polygon": [[0.0, 0.0, 0.0], [s, 0.0, 0.0], [s, s, 0.0], [0.0, s, 0.0]]}]
    corners = [(0.0, 0.0), (s, 0.0), (s, s), (0.0, s)]
    normals = [(0, 1, 0), (-1, 0, 0), (0, -1, 0), (1, 0, 0)]
    for i, name in enumerate("senw"):
        (ax, ay), (bx, by) = corners[i], corners[(i + 1) % 4]
        arch.append({
            "id": f"wall_{ROOM_ID}_{name}",
            "kind": "wall",
            "polygon": [[ax, ay, 0.0], [bx, by, 0.0], [bx, by, h], [ax, ay, h]],
            "front_normal": list(normals[i]),
        })
    return arch


def write_scene(layout: Layout, root, low_detail: bool = False) -> Path:
    """Write the manifest, meshes, dataset entry and truth; return the manifest path.

    The entry is ``root/entry`` and the truth ``root/truth.json``.
    """
    root = Path(root)
    (root / "meshes").mkdir(parents=True, exist_ok=True)
    objects = []
    for o in layout.objects:
        mesh_rel = f"meshes/{o.id}.obj"
        write_obj(root / mesh_rel, o.shape.mesh(low_detail))
        rotation = np.round(_rot_z(o.yaw), 12) + 0.0
        t = np.array([o.x, o.y, o.base + o.shape.half_height])
        entry = {
            "id": o.id,
            "description": o.kind.description,
            "mesh": mesh_rel,
            "transform": np.hstack([rotation, t[:, None]]).reshape(-1).tolist(),
        }
        if o.frontless:
            entry["frontless"] = True
        objects.append(entry)
    manifest = root / "scene.json"
    _write_json(manifest, {"objects": objects, "architecture": _room_architecture(),
                           "rooms": [{"id": ROOM_ID, "room_type": "living_room",
                                      "floor_ids": [FLOOR_ID]}]})

    entry_dir = root / "entry"
    entry_dir.mkdir(exist_ok=True)
    (entry_dir / "description.txt").write_text(
        "A synthetic living room for the scoring benchmark.\n", encoding="utf-8")
    for name, lines in (("counts.csv", layout.counts), ("attributes.csv", layout.attributes),
                        ("oo_relations.csv", layout.oo), ("oa_relations.csv", layout.oa)):
        (entry_dir / name).write_text("".join(line + "\n" for line in lines), encoding="ascii")

    kinds = {o.kind.description: o.kind for o in layout.objects}
    _write_json(root / "truth.json", {
        "descriptions": {
            d: {"category": k.category, "attributes": list(k.attributes),
                "support_type": k.support_type, "sides": list(k.sides)}
            for d, k in sorted(kinds.items())
        },
        "oo_mappings": layout.oo_mappings,
        "oa_mappings": layout.oa_mappings,
        "colliding_pairs": [list(p) for p in layout.colliding],
        "ungated_pairs": [list(p) for p in layout.ungated],
    })
    return manifest


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
