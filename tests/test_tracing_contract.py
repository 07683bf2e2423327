"""The traced benchmark run reads call arguments by name; these tests pin those names."""

import importlib
import inspect

from scenebench import tracing

# The parameters each work counter of tracing.TRACED reads from the bound call.
# count_satisfied has no counter: the tracer wraps its candidate_tuples.
COUNTED_PARAMETERS = {
    "meshio.load_mesh": {"path"},
    "geometry.rasterize_triangles_2d": {"tris_2d"},
    "geometry.floor_cover_mask": {"shape"},
    "geometry.flood_components": {"mask"},
    "geometry.mesh_pair_intersects": {"mesh_a", "mesh_b"},
    "geometry.ray_mesh_distances": {"origins", "triangles"},
    "geometry.ray_hit_fraction": {"origins", "triangles"},
    "geometry.closest_surface_distance": {"mesh_a", "mesh_b"},
    "relations.count_satisfied": {"candidate_tuples"},
}


def resolve(layer: str, attr: str):
    owner = importlib.import_module(f"scenescore.{layer}")
    for part in attr.split("."):  # "SceneInstance.occupancy" is a method
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves():
    for layer, functions in tracing.TRACED.items():
        for attr in functions:
            assert callable(resolve(layer, attr)), f"{layer}.{attr}"


def test_counted_parameters_exist():
    counted = {
        f"{layer}.{attr}"
        for layer, functions in tracing.TRACED.items()
        for attr, count in functions.items()
        if count is not None
    }
    assert counted | {"relations.count_satisfied"} == set(COUNTED_PARAMETERS)
    for name, params in COUNTED_PARAMETERS.items():
        layer, attr = name.split(".", 1)
        signature = inspect.signature(resolve(layer, attr))
        assert params <= set(signature.parameters), name
