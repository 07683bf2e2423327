import json

import numpy as np
import pytest

from conftest import build_cube_glb, rot_z
from scenescore.meshio import MeshLoadError, load_mesh, write_obj
from scenescore.geometry import TriMesh, box_mesh
from scenescore.scene import (
    SceneLoadError,
    arch_from_polygon,
    load_scene,
    object_from_mesh,
    world_front_vector,
)


class TestLoadScene:
    def test_cube_on_floor(self, scene_builder):
        b = scene_builder()
        b.add_room(walls=False)
        b.add_box("cube", [1, 1, 1], center=[3, 3, 0.5])
        scene = load_scene(b.write())
        assert len(scene.objects) == 1
        assert len(scene.floors) == 1
        np.testing.assert_allclose(scene.objects[0].obb.half_extents, [0.5, 0.5, 0.5])

    def test_translated_cube_obb_center(self, scene_builder):
        # unit cube with its local bottom at the origin, translated by (1, 2, 0)
        b = scene_builder()
        b.add_room(walls=False)
        b.add_box("cube", [1, 1, 1], center=[1, 2, 0], local_center=(0, 0, 0.5))
        scene = load_scene(b.write())
        np.testing.assert_allclose(scene.objects[0].obb.center, [1, 2, 0.5], atol=1e-12)

    def test_missing_mesh_file(self, scene_builder):
        b = scene_builder()
        b.add_room(walls=False)
        entry = b.add_box("cube", [1, 1, 1], center=[3, 3, 0.5])
        entry["mesh"] = "meshes/not_there.obj"
        with pytest.raises(FileNotFoundError, match="missing file"):
            load_scene(b.write())

    def test_unknown_arch_kind_fatal(self, scene_builder):
        b = scene_builder()
        b.add_room(walls=False)
        b.add_arch({"id": "x", "kind": "pillar", "polygon": [[0, 0, 0], [1, 0, 0], [1, 1, 0]]})
        with pytest.raises(SceneLoadError, match="unknown arch kind"):
            load_scene(b.write())

    def test_duplicate_object_id(self, scene_builder):
        b = scene_builder()
        b.add_room(walls=False)
        b.add_box("cube", [1, 1, 1], center=[2, 2, 0.5])
        b.add_box("cube", [1, 1, 1], center=[4, 4, 0.5])
        with pytest.raises(SceneLoadError, match="duplicate object id"):
            load_scene(b.write())

    def test_wall_requires_front_normal(self, scene_builder):
        b = scene_builder()
        b.add_room(walls=False)
        b.add_arch(
            {"id": "w", "kind": "wall", "polygon": [[0, 0, 0], [6, 0, 0], [6, 0, 2.5], [0, 0, 2.5]]}
        )
        with pytest.raises(SceneLoadError, match="front_normal"):
            load_scene(b.write())

    def test_nonplanar_floor_rejected(self, scene_builder):
        b = scene_builder()
        b.add_arch(
            {
                "id": "f",
                "kind": "floor",
                "polygon": [[0, 0, 0], [6, 0, 0], [6, 6, 0.01], [0, 6, 0]],
            }
        )
        b.rooms.append({"id": "r", "room_type": "room", "floor_ids": ["f"]})
        with pytest.raises(SceneLoadError, match="not planar"):
            load_scene(b.write())

    def test_programmatic_nonplanar_floor_rejected(self):
        with pytest.raises(SceneLoadError, match="floor 'f' is not planar"):
            arch_from_polygon("f", "floor", [[0, 0, 0], [6, 0, 0], [6, 6, 0.01], [0, 6, 0]])

    def test_room_needs_floors(self, scene_builder):
        b = scene_builder()
        b.add_room(walls=False)
        b.rooms.append({"id": "empty", "room_type": "den", "floor_ids": []})
        with pytest.raises(SceneLoadError, match="references no floors"):
            load_scene(b.write())

    def test_nonrigid_transform_rejected(self, scene_builder):
        b = scene_builder()
        b.add_room(walls=False)
        entry = b.add_box("cube", [1, 1, 1], center=[3, 3, 0.5])
        entry["transform"] = [2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]  # scale 2 on x
        with pytest.raises(SceneLoadError, match="orthonormal"):
            load_scene(b.write())

    @pytest.mark.parametrize("field,value,message", [
        ("transform", [1, 0, 0, float("nan"), 0, 1, 0, 3, 0, 0, 1, 0.5], "non-finite values"),
        ("transform", [1, 0, 0, 3, 0, 1, 0, float("inf"), 0, 0, 1, 0.5], "non-finite values"),
        ("front_axis", [float("nan"), 1, 0], "non-finite front axis"),
    ], ids=["nan-translation", "inf-translation", "nan-front-axis"])
    def test_non_finite_placement_rejected(self, scene_builder, field, value, message):
        b = scene_builder()
        b.add_room(walls=False)
        entry = b.add_box("cube", [1, 1, 1], center=[3, 3, 0.5])
        entry[field] = value
        with pytest.raises(SceneLoadError, match=message):
            load_scene(b.write())

    @pytest.mark.parametrize("placement,message", [
        ({"translation": (float("nan"), 3, 0.5)}, "translation has non-finite values"),
        ({"rotation": np.diag([1.0, 1.0, float("inf")])}, "rotation has non-finite values"),
        ({"rotation": np.diag([2.0, 1.0, 1.0])}, "rotation is not orthonormal"),
        ({"front_axis": (0.0, float("nan"), 0.0)}, "non-finite front axis"),
        ({"front_axis": (0.0, 0.0, 0.0)}, "zero-length front axis"),
    ], ids=["nan-translation", "inf-rotation", "scaled-rotation", "nan-front-axis",
            "zero-front-axis"])
    def test_programmatic_placement_checked(self, placement, message):
        with pytest.raises(SceneLoadError, match=f"object 'x': {message}"):
            object_from_mesh("x", box_mesh([1, 1, 1]), **placement)

    def test_non_finite_floor_polygon_rejected(self):
        polygon = [[0, 0, 0], [6, 0, 0], [6, 6, float("nan")], [0, 6, 0]]
        with pytest.raises(SceneLoadError, match="element 'f': polygon has non-finite"):
            arch_from_polygon("f", "floor", polygon)

    def test_non_finite_wall_polygon_rejected(self, scene_builder):
        b = scene_builder()
        b.add_room()
        b.architecture[1]["polygon"][2][2] = float("inf")
        wall_id = b.architecture[1]["id"]
        with pytest.raises(SceneLoadError, match=f"element '{wall_id}': polygon has non-finite"):
            load_scene(b.write())

    @pytest.mark.parametrize("polygon,message", [
        ([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], "degenerate polygon"),
        ([[0, 0, 0], [1, 0, 0]], "polygon needs at least 3 vertices"),
    ], ids=["collinear", "two-vertices"])
    def test_degenerate_polygon_names_element(self, polygon, message):
        with pytest.raises(SceneLoadError, match=f"element 'f': {message}"):
            arch_from_polygon("f", "floor", polygon)

    @pytest.mark.parametrize("room", [True, False], ids=["with-room", "without-room"])
    def test_all_degenerate_arch_mesh_names_element(self, scene_builder, room):
        b = scene_builder()
        if room:  # the wall-attachment search reads the wall's mesh
            b.add_room(walls=False)
        sliver = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]), np.array([[0, 1, 2]]))
        write_obj(b.root / "meshes" / "sliver.obj", sliver)
        b.add_arch({"id": "w", "kind": "wall", "mesh": "meshes/sliver.obj",
                    "front_normal": [0, 1, 0]})
        message = r"no usable triangles: meshes/sliver.obj \(element 'w'\)"
        with pytest.raises(SceneLoadError, match=message):
            load_scene(b.write())

    @pytest.mark.parametrize("normal", [[float("nan"), 1, 0], [0, float("inf"), 0]],
                             ids=["nan", "inf"])
    def test_non_finite_front_normal_rejected(self, scene_builder, normal):
        b = scene_builder()
        b.add_room()
        b.architecture[1]["front_normal"] = normal
        with pytest.raises(SceneLoadError, match="front_normal must be finite"):
            load_scene(b.write())

    def test_room_wall_association(self, scene_builder):
        b = scene_builder()
        b.add_room(size=(4, 4), room_id="a", room_type="bedroom", origin=(0, 0))
        b.add_room(size=(4, 4), room_id="b", room_type="den", origin=(10, 0))
        scene = load_scene(b.write())
        room_a = scene.rooms[0]
        assert len(room_a.wall_ids) == 4
        assert all(w.startswith("wall_a") for w in room_a.wall_ids)

    @pytest.mark.parametrize("gap,attached", [(0.14, True), (0.16, False)])
    def test_wall_attaches_within_limit(self, scene_builder, gap, attached):
        b = scene_builder()
        b.add_room(size=(4, 4), walls=False)
        b.add_arch({
            "id": "wall_x",
            "kind": "wall",
            "polygon": [[1, -gap, 0], [3, -gap, 0], [3, -gap - 0.5, 2.5], [1, -gap - 0.5, 2.5]],
            "front_normal": [0, 1, 0],
        })
        scene = load_scene(b.write())
        assert scene.rooms[0].wall_ids == (("wall_x",) if attached else ())

    def test_room_centroid_and_extent(self, scene_builder):
        b = scene_builder()
        b.add_room(size=(6, 4), origin=(1, 2), walls=False)
        scene = load_scene(b.write())
        room = scene.rooms[0]
        np.testing.assert_allclose(room.centroid_2d, [4.0, 4.0], atol=1e-9)
        assert room.mean_dimension == pytest.approx(5.0)


class TestFrontVector:
    def _scene_with_yaw(self, scene_builder, yaw, **kwargs):
        b = scene_builder()
        b.add_room(walls=False)
        b.add_box("obj", [1, 1, 1], center=[3, 3, 0.5], yaw=yaw, **kwargs)
        return load_scene(b.write()).objects[0]

    def test_identity(self, scene_builder):
        obj = self._scene_with_yaw(scene_builder, 0.0)
        np.testing.assert_allclose(world_front_vector(obj), [0, 1, 0], atol=1e-12)

    def test_yaw_90(self, scene_builder):
        obj = self._scene_with_yaw(scene_builder, 90.0)
        np.testing.assert_allclose(world_front_vector(obj), [-1, 0, 0], atol=1e-12)

    def test_yaw_180(self, scene_builder):
        obj = self._scene_with_yaw(scene_builder, 180.0)
        np.testing.assert_allclose(world_front_vector(obj), [0, -1, 0], atol=1e-12)

    def test_frontless_errors(self, scene_builder):
        obj = self._scene_with_yaw(scene_builder, 0.0, frontless=True)
        with pytest.raises(ValueError, match="no front vector"):
            world_front_vector(obj)

    def test_composition(self, scene_builder):
        # front under composed rotation equals the second rotation applied
        # to the front under the first
        f1 = world_front_vector(self._scene_with_yaw(scene_builder, 30.0))
        f2 = world_front_vector(self._scene_with_yaw(scene_builder, 30.0 + 45.0))
        np.testing.assert_allclose(rot_z(45.0) @ f1, f2, atol=1e-12)


class TestObbInvariants:
    def test_obb_contains_all_vertices(self, scene_builder):
        b = scene_builder()
        b.add_room(walls=False)
        b.add_box("obj", [1.2, 0.6, 0.9], center=[2, 3, 0.45], yaw=37.0)
        obj = load_scene(b.write()).objects[0]
        assert obj.obb.contains(obj.world_mesh.vertices).all()

    def test_obb_is_minimal_under_declared_axes(self, scene_builder):
        b = scene_builder()
        b.add_room(walls=False)
        b.add_box("obj", [1.2, 0.6, 0.9], center=[2, 3, 0.45], yaw=63.0)
        obj = load_scene(b.write()).objects[0]
        local = obj.obb.to_local(obj.world_mesh.vertices)
        np.testing.assert_allclose(local.max(axis=0), obj.obb.half_extents, atol=1e-9)
        np.testing.assert_allclose(local.min(axis=0), -obj.obb.half_extents, atol=1e-9)

    def test_footprint_sides(self, scene_builder):
        b = scene_builder()
        b.add_room(walls=False)
        b.add_box("obj", [2.0, 1.0, 0.5], center=[3, 3, 0.25], yaw=90.0)
        obj = load_scene(b.write()).objects[0]
        assert obj.obb.footprint_sides() == pytest.approx((2.0, 1.0))


class TestMeshIO:
    def test_obj_roundtrip(self, tmp_path):
        mesh = box_mesh([1.0, 2.0, 0.5])
        path = tmp_path / "box.obj"
        write_obj(path, mesh)
        loaded = load_mesh(path)
        np.testing.assert_allclose(loaded.vertices, mesh.vertices, atol=1e-9)
        np.testing.assert_array_equal(loaded.faces, mesh.faces)

    def test_obj_polygon_fan_and_slash_indices(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
            "vt 0 0\nvn 0 0 1\n"
            "f 1/1/1 2/1/1 3/1/1 4/1/1\n"
        )
        mesh = load_mesh(path)
        assert len(mesh) == 2

    def test_glb_cube(self, tmp_path):
        path = build_cube_glb(tmp_path / "cube.glb", extents=(1, 1, 1), translation=(2, 0, 0))
        mesh = load_mesh(path)
        assert len(mesh) == 12
        np.testing.assert_allclose(mesh.bounds[0], [1.5, -0.5, -0.5], atol=1e-6)
        np.testing.assert_allclose(mesh.bounds[1], [2.5, 0.5, 0.5], atol=1e-6)

    def test_glb_in_scene_manifest(self, scene_builder):
        b = scene_builder()
        b.add_room(walls=False)
        glb = build_cube_glb(b.root / "meshes" / "cube.glb")
        b.objects.append(
            {
                "id": "g",
                "description": "glb cube",
                "mesh": "meshes/cube.glb",
                "transform": [1, 0, 0, 3, 0, 1, 0, 3, 0, 0, 1, 0.5],
            }
        )
        scene = load_scene(b.write())
        np.testing.assert_allclose(scene.objects[0].obb.center, [3, 3, 0.5], atol=1e-6)

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "mesh.stl"
        path.write_text("solid x")
        with pytest.raises(MeshLoadError, match="unsupported mesh format"):
            load_mesh(path)

    def test_degenerate_triangles_dropped_with_warning(self, scene_builder, caplog):
        b = scene_builder()
        b.add_room(walls=False)
        mesh = box_mesh([1, 1, 1])
        bad = np.vstack([mesh.faces, [[0, 0, 1]]])  # zero-area extra face
        write_obj(b.root / "meshes" / "bad.obj", type(mesh)(mesh.vertices, bad))
        b.objects.append(
            {
                "id": "bad",
                "description": "bad mesh",
                "mesh": "meshes/bad.obj",
                "transform": [1, 0, 0, 3, 0, 1, 0, 3, 0, 0, 1, 0.5],
            }
        )
        import logging

        with caplog.at_level(logging.WARNING):
            scene = load_scene(b.write())
        assert len(scene.objects[0].mesh) == 12
        assert any("degenerate" in r.message for r in caplog.records)
