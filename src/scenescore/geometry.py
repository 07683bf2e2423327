"""Deterministic geometric primitives shared by all metrics.

Everything here is plain numpy over explicit arrays: meshes are (V, 3)
float64 vertices with (F, 3) integer faces, boxes carry explicit axes, and
every sampling operation takes an explicit seed.  No global state.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError, cKDTree

# Parity rays use a fixed, slightly irrational direction so axis-aligned
# fixture geometry never produces edge-grazing hits.
_PARITY_DIRECTION = np.array([0.57735026, 0.57745026, 0.57725026])
_PARITY_DIRECTION = _PARITY_DIRECTION / np.linalg.norm(_PARITY_DIRECTION)

MIN_TRIANGLE_AREA = 1e-12  # m^2; triangles below this are dropped at load

# Rays start this far behind their origin so an origin lying on the target
# surface (an object resting on the floor) still hits it.
RAY_ORIGIN_BACKOFF = 1e-6  # m
RAY_T_MIN = 1e-9  # m; hits nearer than this along the ray are ignored
RAY_CHUNK = 512  # rays per (N, F) distance block
TRI_TOUCH_TOL = 1e-10  # m; plane distances within this count as touching
SUPPORT_HULL_TOL = 1e-6  # m; centroid distance allowed from a degenerate hull
# Box pairs compared per block by the AABB gap kernel, which serves COL's
# broadphase and the distance search: its float64 temporaries stay under
# 100 MB whatever the triangle counts.
AABB_PAIR_BLOCK = 2**20
# (triangle, cell) candidates the rasterizer tests per block.
RASTER_BLOCK = 2**16
# Floor-plan grids hold one bool grid per object besides the scene grids, so
# a floor given in the wrong units must fail before any of them is allocated.
MAX_OCCUPANCY_CELLS = 2**22


def derive_seed(base: int, *parts) -> int:
    """Stable child seed from a base seed and a sequence of string-able parts."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base)).encode())
    for p in parts:
        h.update(b"\x00" + str(p).encode())
    return int.from_bytes(h.digest(), "little")


class TriMesh:
    """Triangle mesh with lazily cached per-triangle arrays."""

    __slots__ = ("vertices", "faces", "_triangles", "_tri_bounds", "_areas")

    def __init__(self, vertices, faces):
        self.vertices = np.ascontiguousarray(vertices, dtype=float).reshape(-1, 3)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64).reshape(-1, 3)
        self._triangles = None
        self._tri_bounds = None
        self._areas = None

    def __len__(self) -> int:
        return len(self.faces)

    @property
    def triangles(self) -> np.ndarray:
        """(F, 3, 3) triangle vertex positions."""
        if self._triangles is None:
            self._triangles = self.vertices[self.faces]
        return self._triangles

    @property
    def tri_bounds(self) -> np.ndarray:
        """(F, 2, 3) per-triangle AABB (min, max)."""
        if self._tri_bounds is None:
            t = self.triangles
            self._tri_bounds = np.stack([t.min(axis=1), t.max(axis=1)], axis=1)
        return self._tri_bounds

    @property
    def areas(self) -> np.ndarray:
        if self._areas is None:
            t = self.triangles
            self._areas = 0.5 * np.linalg.norm(
                np.cross(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]), axis=1
            )
        return self._areas

    @property
    def bounds(self) -> np.ndarray:
        """(2, 3) axis-aligned bounds of all vertices."""
        return np.stack([self.vertices.min(axis=0), self.vertices.max(axis=0)])

    def transformed(self, rotation: np.ndarray, translation: np.ndarray) -> "TriMesh":
        return TriMesh(self.vertices @ np.asarray(rotation).T + np.asarray(translation), self.faces)

    def without_degenerate_triangles(self):
        """Return (mesh, dropped_count) with triangles of area <= MIN_TRIANGLE_AREA removed."""
        keep = self.areas > MIN_TRIANGLE_AREA
        if keep.all():
            return self, 0
        return TriMesh(self.vertices, self.faces[keep]), int((~keep).sum())

    def boundary_edge_count(self) -> int:
        """Number of edges not shared by exactly two faces (non-manifold probe)."""
        edges = np.sort(
            np.concatenate([self.faces[:, [0, 1]], self.faces[:, [1, 2]], self.faces[:, [2, 0]]]),
            axis=1,
        )
        _, counts = np.unique(edges, axis=0, return_counts=True)
        return int((counts != 2).sum())


def box_mesh(extents, center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Axis-aligned box as a 12-triangle mesh."""
    e = np.asarray(extents, dtype=float) / 2.0
    c = np.asarray(center, dtype=float)
    signs = np.array(
        [[-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
         [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1]],
        dtype=float,
    )
    verts = c + signs * e
    faces = np.array(
        [[0, 2, 1], [0, 3, 2],      # bottom (z-)
         [4, 5, 6], [4, 6, 7],      # top (z+)
         [0, 1, 5], [0, 5, 4],      # y-
         [2, 3, 7], [2, 7, 6],      # y+
         [0, 4, 7], [0, 7, 3],      # x-
         [1, 2, 6], [1, 6, 5]],     # x+
        dtype=np.int64,
    )
    return TriMesh(verts, faces)


@dataclass(frozen=True)
class OrientedBox:
    """Box with world-frame center, orthonormal axes (columns), half extents."""

    center: np.ndarray
    axes: np.ndarray
    half_extents: np.ndarray

    @classmethod
    def from_aabb(cls, lo, hi) -> "OrientedBox":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        return cls((lo + hi) / 2.0, np.eye(3), (hi - lo) / 2.0)

    @classmethod
    def from_local_aabb(cls, lo, hi, rotation, translation) -> "OrientedBox":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        r = np.asarray(rotation, dtype=float)
        center = r @ ((lo + hi) / 2.0) + np.asarray(translation, dtype=float)
        return cls(center, r, (hi - lo) / 2.0)

    def to_local(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=float) - self.center) @ self.axes

    def to_world(self, local: np.ndarray) -> np.ndarray:
        return self.center + np.asarray(local, dtype=float) @ self.axes.T

    def contains(self, points: np.ndarray, scale: float = 1.0) -> np.ndarray:
        local = self.to_local(np.atleast_2d(points))
        return (np.abs(local) <= self.half_extents * scale + 1e-12).all(axis=1)

    def corners(self) -> np.ndarray:
        signs = np.array(
            [[-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
             [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1]],
            dtype=float,
        )
        return self.to_world(signs * self.half_extents)

    def footprint_frame_2d(self):
        """2D frame for the box footprint: (right_2d, forward_2d, half_x, half_y).

        The returned unit vectors are the box's local +X / +Y axes projected
        to the ground plane; the half sizes are the extents of the projected
        corners along them.  Falls back to world axes when a local axis is
        near-vertical.
        """
        rx = self.axes[:2, 0]
        ry = self.axes[:2, 1]
        if np.linalg.norm(rx) < 1e-6 or np.linalg.norm(ry) < 1e-6:
            rx, ry = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        else:
            rx = rx / np.linalg.norm(rx)
            ry = ry - rx * (ry @ rx)
            n = np.linalg.norm(ry)
            ry = ry / n if n > 1e-9 else np.array([-rx[1], rx[0]])
        rel = self.corners()[:, :2] - self.center[:2]
        half_x = float(np.abs(rel @ rx).max())
        half_y = float(np.abs(rel @ ry).max())
        return rx, ry, half_x, half_y

    def footprint_sides(self) -> tuple[float, float]:
        """(longer, shorter) side of the world 2D footprint rectangle."""
        _, _, hx, hy = self.footprint_frame_2d()
        a, b = 2.0 * hx, 2.0 * hy
        return (a, b) if a >= b else (b, a)


def sample_points_obb(box: OrientedBox, count: int, seed: int) -> np.ndarray:
    """(count, 3) uniform points in the volume of an oriented box, deterministic per seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    local = rng.uniform(-1.0, 1.0, size=(count, 3)) * box.half_extents
    return box.to_world(local)


def sample_mesh_surface(mesh: TriMesh, count: int, seed: int) -> np.ndarray:
    """(count, 3) area-weighted uniform points on a mesh surface, deterministic per seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    areas = mesh.areas
    probs = areas / areas.sum()
    idx = rng.choice(len(areas), size=count, p=probs)
    u = rng.uniform(size=(count, 1))
    v = rng.uniform(size=(count, 1))
    flip = (u + v) > 1.0
    u = np.where(flip, 1.0 - u, u)
    v = np.where(flip, 1.0 - v, v)
    t = mesh.triangles[idx]
    return t[:, 0] + u * (t[:, 1] - t[:, 0]) + v * (t[:, 2] - t[:, 0])


# ---------------------------------------------------------------------------
# Ray casting
# ---------------------------------------------------------------------------


def _ray_hit_distances(origins, direction, triangles) -> np.ndarray:
    """(N, F) Möller–Trumbore hit distance of each origin's ray to each triangle.

    np.inf where the ray misses the triangle or hits it before RAY_T_MIN.  Uses
    triple-product identities so the origins never materialize an (N, F, 3)
    intermediate: for origin o,
      u*det = (o - a) . cross(dir, e2)
      v*det = (o - a) . cross(e1, dir)
      t*det = (o - a) . cross(e1, e2)
    """
    a = triangles[:, 0]
    e1 = triangles[:, 1] - a
    e2 = triangles[:, 2] - a
    h = np.cross(np.broadcast_to(direction, e2.shape), e2)
    det = np.einsum("ij,ij->i", e1, h)
    g = np.cross(e1, np.broadcast_to(direction, e1.shape))
    n = np.cross(e1, e2)
    valid = np.abs(det) > 1e-12
    safe_det = np.where(valid, det, 1.0)
    u = (origins @ h.T - np.einsum("ij,ij->i", a, h)) / safe_det
    v = (origins @ g.T - np.einsum("ij,ij->i", a, g)) / safe_det
    t = (origins @ n.T - np.einsum("ij,ij->i", a, n)) / safe_det
    eps = 1e-9
    hit = valid & (u >= -eps) & (v >= -eps) & (u + v <= 1.0 + eps) & (t >= RAY_T_MIN)
    return np.where(hit, t, np.inf)


def ray_mesh_distances(
    origins: np.ndarray, direction: np.ndarray, triangles: np.ndarray
) -> np.ndarray:
    """Nearest hit distance along a shared direction for each origin.

    Returns (N,) distances, np.inf where the ray misses every triangle.
    """
    origins = np.atleast_2d(np.asarray(origins, dtype=float))
    direction = np.asarray(direction, dtype=float)
    out = np.full(len(origins), np.inf)
    if len(triangles) == 0:
        return out
    for s in range(0, len(origins), RAY_CHUNK):
        out[s : s + RAY_CHUNK] = _ray_hit_distances(
            origins[s : s + RAY_CHUNK], direction, triangles
        ).min(axis=1)
    return out


def ray_hit_fraction(origins, direction, triangles) -> float:
    """Fraction of origins whose ray hits any triangle.

    Each ray starts RAY_ORIGIN_BACKOFF behind its origin, so an origin on a
    triangle counts as a hit.
    """
    origins = np.atleast_2d(origins)
    if len(origins) == 0:
        return 0.0
    direction = np.asarray(direction, dtype=float)
    d = ray_mesh_distances(origins - direction * RAY_ORIGIN_BACKOFF, direction, triangles)
    return float(np.isfinite(d).mean())


def point_in_mesh(point, mesh: TriMesh) -> bool:
    """Ray-parity containment test for a (nominally watertight) mesh."""
    origin = np.asarray(point, dtype=float).reshape(1, 3)
    d = _ray_hit_distances(origin, _PARITY_DIRECTION, mesh.triangles)[0]
    d = np.sort(d[np.isfinite(d)])
    if len(d) == 0:
        return False
    keep = np.concatenate([[True], np.diff(d) > 1e-9])
    return bool(keep.sum() % 2 == 1)


# ---------------------------------------------------------------------------
# Triangle-triangle intersection (strict penetration) and mesh collision
# ---------------------------------------------------------------------------


def _plane_interval(tri, dists, line_dir, tol):
    """Projection interval of each triangle's plane-crossing section onto line_dir.

    Candidates are edge/plane crossing points plus vertices lying on the
    plane; triangles that do not strictly cross contribute empty intervals.
    """
    k = len(tri)
    cand_t = np.full((k, 6), np.nan)
    cand_ok = np.zeros((k, 6), dtype=bool)
    proj = np.einsum("kij,kj->ki", tri, line_dir)
    edges = ((0, 1), (1, 2), (2, 0))
    for e, (i, j) in enumerate(edges):
        da, db = dists[:, i], dists[:, j]
        crossing = ((da > tol) & (db < -tol)) | ((da < -tol) & (db > tol))
        denom = np.where(crossing, da - db, 1.0)
        frac = da / denom
        cand_t[:, e] = proj[:, i] + frac * (proj[:, j] - proj[:, i])
        cand_ok[:, e] = crossing
    for i in range(3):
        on_plane = np.abs(dists[:, i]) <= tol
        cand_t[:, 3 + i] = proj[:, i]
        cand_ok[:, 3 + i] = on_plane
    lo = np.where(cand_ok, cand_t, np.inf).min(axis=1)
    hi = np.where(cand_ok, cand_t, -np.inf).max(axis=1)
    return lo, hi


def tri_tri_strict_intersect(tri1: np.ndarray, tri2: np.ndarray) -> np.ndarray:
    """True where triangle pairs overlap with positive penetration.

    Touching contact (shared faces, edges, or vertices) and coplanar overlap
    are reported as non-intersecting: both triangles must strictly cross the
    other's plane and their crossing intervals must overlap with positive
    length.
    """
    tri1 = np.asarray(tri1, dtype=float).reshape(-1, 3, 3)
    tri2 = np.asarray(tri2, dtype=float).reshape(-1, 3, 3)
    n1 = np.cross(tri1[:, 1] - tri1[:, 0], tri1[:, 2] - tri1[:, 0])
    n2 = np.cross(tri2[:, 1] - tri2[:, 0], tri2[:, 2] - tri2[:, 0])
    n1 = n1 / np.maximum(np.linalg.norm(n1, axis=1, keepdims=True), 1e-300)
    n2 = n2 / np.maximum(np.linalg.norm(n2, axis=1, keepdims=True), 1e-300)

    d2 = np.einsum("kj,kij->ki", n1, tri2 - tri1[:, :1])  # tri2 verts vs plane1
    d1 = np.einsum("kj,kij->ki", n2, tri1 - tri2[:, :1])  # tri1 verts vs plane2
    cross1 = (d1 > TRI_TOUCH_TOL).any(axis=1) & (d1 < -TRI_TOUCH_TOL).any(axis=1)
    cross2 = (d2 > TRI_TOUCH_TOL).any(axis=1) & (d2 < -TRI_TOUCH_TOL).any(axis=1)
    cand = cross1 & cross2
    out = np.zeros(len(tri1), dtype=bool)
    if not cand.any():
        return out

    line = np.cross(n1[cand], n2[cand])
    norm = np.linalg.norm(line, axis=1, keepdims=True)
    line = line / np.maximum(norm, 1e-300)
    lo1, hi1 = _plane_interval(tri1[cand], d1[cand], line, TRI_TOUCH_TOL)
    lo2, hi2 = _plane_interval(tri2[cand], d2[cand], line, TRI_TOUCH_TOL)
    out[cand] = np.maximum(lo1, lo2) < np.minimum(hi1, hi2) - TRI_TOUCH_TOL
    return out


def mesh_pair_intersects(mesh_a: TriMesh, mesh_b: TriMesh) -> bool:
    """True iff the meshes overlap with positive penetration or one contains the other.

    Touching without penetration (shared faces, resting contact) is not a
    collision.
    """
    if len(mesh_a) == 0 or len(mesh_b) == 0:
        raise ValueError("meshes must be non-empty")
    ba, bb = mesh_a.bounds, mesh_b.bounds
    if ((np.minimum(ba[1], bb[1]) - np.maximum(ba[0], bb[0])) <= 0).any():
        return False
    # Touching boxes (gap 0) count: a flat face's triangles have zero-width
    # boxes, and two crossing faces may overlap on that axis by exactly zero.
    ia, ib, _ = _aabb_pair_gaps(mesh_a.tri_bounds, mesh_b.tri_bounds, 0.0)
    if len(ia) and tri_tri_strict_intersect(mesh_a.triangles[ia], mesh_b.triangles[ib]).any():
        return True
    # No surface crossing: check full containment with a vertex nudged
    # toward the vertex mean so boundary-touching vertices resolve cleanly.
    # A probe still on the outer surface (a flat mesh lying flush on it) only
    # touches, whatever the parity ray that starts on that surface says.
    for inner, outer in ((mesh_a, mesh_b), (mesh_b, mesh_a)):
        v = inner.vertices[0]
        probe = v + 1e-4 * (inner.vertices.mean(axis=0) - v)
        if point_in_mesh(probe, outer):
            tris = outer.triangles
            gap = _point_triangle_distance(
                np.broadcast_to(probe, (len(tris), 3)), tris[:, 0], tris[:, 1], tris[:, 2]
            ).min()
            if gap > 1e-9:
                return True
    return False


# ---------------------------------------------------------------------------
# Closest surface distance
# ---------------------------------------------------------------------------


def _point_triangle_distance(p, a, b, c):
    """Batched point/triangle distance (Ericson's region walk, vectorized)."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    with np.errstate(divide="ignore", invalid="ignore"):
        # interior projection
        n = np.cross(ab, ac)
        nn = np.einsum("ij,ij->i", n, n)
        dist_plane = np.einsum("ij,ij->i", ap, n) / np.sqrt(np.maximum(nn, 1e-300))
        closest = p - dist_plane[:, None] * n / np.sqrt(np.maximum(nn, 1e-300))[:, None]

        va = d3 * d6 - d5 * d4
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        cand = b + w[:, None] * (c - b)
        m = (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
        closest = np.where(m[:, None], cand, closest)

        vb = d5 * d2 - d1 * d6
        w = d2 / (d2 - d6)
        cand = a + w[:, None] * ac
        m = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
        closest = np.where(m[:, None], cand, closest)

        m = (d6 >= 0) & (d5 <= d6)
        closest = np.where(m[:, None], c, closest)

        vc = d1 * d4 - d3 * d2
        v = d1 / (d1 - d3)
        cand = a + v[:, None] * ab
        m = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
        closest = np.where(m[:, None], cand, closest)

        m = (d3 >= 0) & (d4 <= d3)
        closest = np.where(m[:, None], b, closest)

        m = (d1 <= 0) & (d2 <= 0)
        closest = np.where(m[:, None], a, closest)

    return np.linalg.norm(p - closest, axis=1)


def _segment_segment_distance(p1, q1, p2, q2):
    """Batched segment/segment distance (clamped closest-point parameters)."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.einsum("ij,ij->i", d1, d1)
    e = np.einsum("ij,ij->i", d2, d2)
    f = np.einsum("ij,ij->i", d2, r)
    c = np.einsum("ij,ij->i", d1, r)
    b = np.einsum("ij,ij->i", d1, d2)
    denom = a * e - b * b
    eps = 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > eps, np.clip((b * f - c * e) / np.where(denom > eps, denom, 1.0), 0, 1), 0.0)
        t = np.where(e > eps, (b * s + f) / np.where(e > eps, e, 1.0), 0.0)
        s_low = np.where(a > eps, np.clip(-c / np.where(a > eps, a, 1.0), 0, 1), 0.0)
        s_high = np.where(a > eps, np.clip((b - c) / np.where(a > eps, a, 1.0), 0, 1), 0.0)
    s = np.where(t < 0, s_low, np.where(t > 1, s_high, s))
    t = np.clip(t, 0.0, 1.0)
    c1 = p1 + d1 * s[:, None]
    c2 = p2 + d2 * t[:, None]
    return np.linalg.norm(c1 - c2, axis=1)


def tri_pair_distances(tri1: np.ndarray, tri2: np.ndarray) -> np.ndarray:
    """Distance between disjoint triangle pairs: min over 9 edge/edge + 6 vertex/face."""
    tri1 = np.asarray(tri1, dtype=float).reshape(-1, 3, 3)
    tri2 = np.asarray(tri2, dtype=float).reshape(-1, 3, 3)
    k = len(tri1)
    best = np.full(k, np.inf)
    edges = ((0, 1), (1, 2), (2, 0))
    for i, j in edges:
        for m, n in edges:
            d = _segment_segment_distance(tri1[:, i], tri1[:, j], tri2[:, m], tri2[:, n])
            best = np.minimum(best, d)
    for i in range(3):
        best = np.minimum(best, _point_triangle_distance(tri1[:, i], tri2[:, 0], tri2[:, 1], tri2[:, 2]))
        best = np.minimum(best, _point_triangle_distance(tri2[:, i], tri1[:, 0], tri1[:, 1], tri1[:, 2]))
    return best


def _aabb_pair_gaps(bounds_a, bounds_b, limit: float):
    """Index pairs (i, j) whose per-triangle AABB gap is at most `limit`, and the gaps.

    The gap is a lower bound on the distance between the two triangles.  Rows
    of `bounds_a` are compared in blocks of at most AABB_PAIR_BLOCK pairs.
    """
    rows = max(1, AABB_PAIR_BLOCK // max(len(bounds_b), 1))
    ia, ib = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    gaps = [np.zeros(0)]
    for s in range(0, len(bounds_a), rows):
        block = bounds_a[s : s + rows]
        sq = np.zeros((len(block), len(bounds_b)))
        gap = np.empty_like(sq)
        other = np.empty_like(sq)
        for k in range(3):
            np.subtract(block[:, None, 0, k], bounds_b[None, :, 1, k], out=gap)
            np.subtract(bounds_b[None, :, 0, k], block[:, None, 1, k], out=other)
            np.maximum(gap, other, out=gap)
            np.maximum(gap, 0.0, out=gap)
            np.multiply(gap, gap, out=gap)
            sq += gap
        i, j = np.nonzero(sq <= limit * limit)
        ia.append(i + s)
        ib.append(j)
        gaps.append(np.sqrt(sq[i, j]))
    return np.concatenate(ia), np.concatenate(ib), np.concatenate(gaps)


def _surface_vertices(mesh: TriMesh) -> np.ndarray:
    """The vertices some face uses: points on the surface."""
    return mesh.vertices[np.unique(mesh.faces)]


def surface_distance_bracket(mesh_a: TriMesh, mesh_b: TriMesh, settled=None, intersects=None):
    """(lo, hi) bounds on the closest surface distance; 0 when touching or intersecting.

    The bracket is tightened in this order (Ericson, Real-Time Collision
    Detection, ch. 5-6): the gap between the meshes' AABBs (a lower bound),
    the closest pair of surface vertices (an upper bound), whether the meshes
    intersect, then a branch and bound over triangle pairs in order of their
    AABB gaps.  `settled(lo, hi)` is asked after each step and ends the search
    when it returns True; without it the search runs to the exact distance,
    lo == hi.  `intersects()` supplies the `mesh_pair_intersects` result, so a
    caller can share it between queries.
    """
    if len(mesh_a) == 0 or len(mesh_b) == 0:
        raise ValueError("meshes must be non-empty")
    ba, bb = mesh_a.bounds, mesh_b.bounds
    gap = np.maximum(np.maximum(ba[0] - bb[1], bb[0] - ba[1]), 0.0)
    lo, hi = float(np.sqrt(gap @ gap)), math.inf
    if settled is not None and settled(lo, hi):
        return lo, hi
    tree = cKDTree(_surface_vertices(mesh_b))
    hi = float(tree.query(_surface_vertices(mesh_a))[0].min())
    if settled is not None and settled(lo, hi):
        return lo, hi
    if intersects() if intersects is not None else mesh_pair_intersects(mesh_a, mesh_b):
        return 0.0, 0.0
    # The triangle pair holding the closest vertex pair has a box gap of at
    # most `hi`; pairs further apart cannot hold the minimum.  The slack
    # keeps that pair when rounding puts its gap a hair above `hi`.
    ia, ib, lb = _aabb_pair_gaps(mesh_a.tri_bounds, mesh_b.tri_bounds, hi + 1e-9 * (1.0 + hi))
    order = np.argsort(lb, kind="stable")
    ia, ib, lb = ia[order], ib[order], lb[order]
    best = math.inf
    chunk = 512
    for s in range(0, len(lb), chunk):
        if lb[s] >= best:
            break
        i, j = ia[s : s + chunk], ib[s : s + chunk]
        d = tri_pair_distances(mesh_a.triangles[i], mesh_b.triangles[j])
        best = min(best, float(d.min()))
        if best <= 0.0:
            return 0.0, 0.0
        following = float(lb[s + chunk]) if s + chunk < len(lb) else math.inf
        lo, hi = max(lo, min(best, following)), min(hi, best)
        if settled is not None and settled(lo, hi):
            return lo, hi
    return best, best


def closest_surface_distance(mesh_a: TriMesh, mesh_b: TriMesh, intersects=None) -> float:
    """Minimum distance between two mesh surfaces; 0 when touching or intersecting.

    The search of `surface_distance_bracket` run without an early stop.
    """
    return surface_distance_bracket(mesh_a, mesh_b, intersects=intersects)[0]


# ---------------------------------------------------------------------------
# 2D occupancy
# ---------------------------------------------------------------------------


@dataclass
class OccupancyMask:
    """2D occupancy grid: True cells are occupied (or outside the floor)."""

    resolution: float
    origin: np.ndarray  # world (x, y) of the min corner of cell (0, 0)
    grid: np.ndarray    # (H, W) bool; rows advance along +y, columns along +x

    @property
    def free(self) -> np.ndarray:
        return ~self.grid

    def cell_centers(self):
        h, w = self.grid.shape
        xs = self.origin[0] + (np.arange(w) + 0.5) * self.resolution
        ys = self.origin[1] + (np.arange(h) + 0.5) * self.resolution
        return xs, ys


def _grid_for_floors(floor_meshes, resolution):
    lo = np.min([m.bounds[0, :2] for m in floor_meshes], axis=0)
    hi = np.max([m.bounds[1, :2] for m in floor_meshes], axis=0)
    origin = lo - resolution
    w = int(math.ceil((hi[0] - lo[0]) / resolution)) + 2
    h = int(math.ceil((hi[1] - lo[1]) / resolution)) + 2
    if h * w > MAX_OCCUPANCY_CELLS:
        raise ValueError(
            f"occupancy grid of {h} x {w} cells at resolution {resolution} m exceeds "
            f"{MAX_OCCUPANCY_CELLS} cells (floor extent {hi[0] - lo[0]:g} x {hi[1] - lo[1]:g} m)"
        )
    return origin, (h, w)


def points_in_triangles_2d(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """True per point when covered by any 2D triangle (inclusive edges)."""
    points = np.atleast_2d(points)
    covered = np.zeros(len(points), dtype=bool)
    eps = 1e-12
    for s in range(0, len(tris), 256):
        t = tris[s : s + 256]
        a, b, c = t[:, 0], t[:, 1], t[:, 2]
        remaining = ~covered
        p = points[remaining]
        if len(p) == 0:
            break

        def cross(o, d, q):
            return (d[:, 0] - o[:, 0])[None, :] * (q[:, None, 1] - o[None, :, 1]) - (
                d[:, 1] - o[:, 1]
            )[None, :] * (q[:, None, 0] - o[None, :, 0])

        c1 = cross(a, b, p)
        c2 = cross(b, c, p)
        c3 = cross(c, a, p)
        inside = ((c1 >= -eps) & (c2 >= -eps) & (c3 >= -eps)) | (
            (c1 <= eps) & (c2 <= eps) & (c3 <= eps)
        )
        covered[remaining] |= inside.any(axis=1)
    return covered


def rasterize_triangles_2d(tris_2d: np.ndarray, origin, resolution: float, shape) -> np.ndarray:
    """Conservative rasterization: a cell is set when a triangle overlaps its square.

    Each triangle is tested against the cells of its clipped cell box by the
    separating-axis test on the two grid axes and each non-degenerate edge's
    normal, with 1e-12 m slack.  Degenerate (projected-to-segment) triangles
    take the same test, so vertical walls mark the cells they cross.  All
    (triangle, cell) candidates are tested at once, in blocks of at most
    RASTER_BLOCK; a triangle whose cell box holds more is split by rows.
    """
    h, w = shape
    grid = np.zeros(h * w, dtype=bool)
    tris = np.asarray(tris_2d, dtype=float).reshape(-1, 3, 2)
    origin = np.asarray(origin, dtype=float)
    lo, hi = tris.min(axis=1), tris.max(axis=1)
    first = np.floor((lo - origin) / resolution)
    last = np.floor((hi - origin) / resolution)
    c0 = np.clip(first[:, 0], 0, w).astype(np.int64)
    c1 = np.clip(last[:, 0], -1, w - 1).astype(np.int64)
    r0 = np.clip(first[:, 1], 0, h).astype(np.int64)
    r1 = np.clip(last[:, 1], -1, h - 1).astype(np.int64)
    cols, rows = c1 - c0 + 1, r1 - r0 + 1
    t = np.flatnonzero((cols > 0) & (rows > 0))

    # Edge normals and each triangle's extent along them; a degenerate edge
    # gets a zero normal and an unbounded extent, so it never separates.
    edges = np.roll(tris, -1, axis=1) - tris
    length = np.sqrt(edges[..., 0] ** 2 + edges[..., 1] ** 2)
    valid = length > 1e-12
    normals = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)
    normals = np.where(valid[..., None], normals / np.where(valid, length, 1.0)[..., None], 0.0)
    proj = np.einsum("tvi,tki->tkv", tris, normals)
    pmin = np.where(valid, proj.min(axis=2), -np.inf)
    pmax = np.where(valid, proj.max(axis=2), np.inf)

    # One piece per triangle, or one per band of rows for a box over the cap.
    band = np.maximum(RASTER_BLOCK // cols[t], 1)
    pieces = -(-rows[t] // band)
    within = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    band = np.repeat(band, pieces)
    pt = np.repeat(t, pieces)
    pr0 = r0[pt] + within * band
    counts = (np.minimum(pr0 + band - 1, r1[pt]) - pr0 + 1) * cols[pt]
    ends = np.cumsum(counts)

    half = resolution / 2.0
    eps = 1e-12
    start = 0
    while start < len(pt):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + RASTER_BLOCK, side="right")), start + 1)
        n = counts[start:stop]
        piece = np.repeat(np.arange(start, stop), n)
        offset = np.arange(n.sum()) - np.repeat(ends[start:stop] - n - base, n)
        tri = pt[piece]
        row = pr0[piece] + offset // cols[tri]
        col = c0[tri] + offset % cols[tri]
        cx = origin[0] + (col + 0.5) * resolution
        cy = origin[1] + (row + 0.5) * resolution
        hit = (cx + half >= lo[tri, 0] - eps) & (cx - half <= hi[tri, 0] + eps)
        hit &= (cy + half >= lo[tri, 1] - eps) & (cy - half <= hi[tri, 1] + eps)
        for k in range(3):
            nx, ny = normals[tri, k, 0], normals[tri, k, 1]
            cp = cx * nx + cy * ny
            r = half * (np.abs(nx) + np.abs(ny))
            hit &= (cp + r >= pmin[tri, k] - eps) & (cp - r <= pmax[tri, k] + eps)
        grid[row[hit] * w + col[hit]] = True
        start = stop
    return grid.reshape(h, w)


def floor_cover_mask(floor_meshes, origin, resolution, shape) -> np.ndarray:
    """True per cell whose center lies on some floor polygon."""
    h, w = shape
    xs = np.asarray(origin, dtype=float)[0] + (np.arange(w) + 0.5) * resolution
    ys = np.asarray(origin, dtype=float)[1] + (np.arange(h) + 0.5) * resolution
    cx, cy = np.meshgrid(xs, ys)
    centers = np.stack([cx.ravel(), cy.ravel()], axis=1)
    tris = np.concatenate([m.triangles[:, :, :2] for m in floor_meshes])
    return points_in_triangles_2d(centers, tris).reshape(h, w)


class SceneOccupancy:
    """Floor-plan occupancy of a scene, kept in parts for leave-one-out masks.

    `static` holds the cells off every floor polygon and the cells walls
    cover; `object_grids` holds each object's vertical projection and
    `counts` how many objects cover each cell.  `mask` is the full
    occupancy: a cell is occupied when it is static or any object covers it.
    """

    def __init__(self, floor_meshes, wall_meshes, object_meshes: dict, resolution: float):
        origin, shape = _grid_for_floors(floor_meshes, resolution)
        self.static = ~floor_cover_mask(floor_meshes, origin, resolution, shape)
        if wall_meshes:
            tris = np.concatenate([m.triangles[:, :, :2] for m in wall_meshes])
            self.static |= rasterize_triangles_2d(tris, origin, resolution, shape)
        self.object_grids = {
            obj_id: rasterize_triangles_2d(mesh.triangles[:, :, :2], origin, resolution, shape)
            for obj_id, mesh in object_meshes.items()
        }
        self.counts = np.zeros(shape, dtype=np.int32)
        for grid in self.object_grids.values():
            self.counts += grid
        self.mask = OccupancyMask(resolution, origin, self.static | (self.counts > 0))

    def occupied_without(self, obj_id: str) -> np.ndarray:
        """The occupancy grid with one object's footprint taken out."""
        return self.static | ((self.counts - self.object_grids[obj_id]) > 0)


_CROSS_STRUCTURE = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def flood_components(mask: OccupancyMask) -> list[int]:
    """Sizes of 4-connected free components, largest first."""
    labels, count = ndimage.label(mask.free, structure=_CROSS_STRUCTURE)
    if count == 0:
        return []
    sizes = np.bincount(labels.ravel())[1:]
    return sorted((int(s) for s in sizes), reverse=True)


def cells_in_rect(
    mask: OccupancyMask, center_2d, axes_2d, half_sizes
) -> np.ndarray:
    """Boolean grid of cells whose center lies in a rotated rectangle."""
    xs, ys = mask.cell_centers()
    cx, cy = np.meshgrid(xs, ys)
    rel = np.stack([cx - center_2d[0], cy - center_2d[1]], axis=-1)
    u = rel @ np.asarray(axes_2d[0], dtype=float)
    v = rel @ np.asarray(axes_2d[1], dtype=float)
    return (np.abs(u) <= half_sizes[0] + 1e-12) & (np.abs(v) <= half_sizes[1] + 1e-12)


# ---------------------------------------------------------------------------
# Support polygon
# ---------------------------------------------------------------------------


def support_hull_check(contact_points, centroid_2d) -> bool:
    """True when the 2D centroid projection lies in the convex hull of contacts.

    Fewer than three non-collinear contacts form no polygon: the check then
    passes only when the centroid is within SUPPORT_HULL_TOL of the contact
    segment or point.
    """
    pts = np.asarray(contact_points, dtype=float).reshape(-1, 2)
    c = np.asarray(centroid_2d, dtype=float)
    if len(pts) == 0:
        return False
    if len(pts) >= 3:
        try:
            hull = ConvexHull(pts)
            eq = hull.equations
            return bool((eq[:, :2] @ c + eq[:, 2] <= 1e-9).all())
        except QhullError:
            pass  # collinear; fall through to the segment test
    return _near_segment(pts, c, SUPPORT_HULL_TOL)


def _near_segment(pts: np.ndarray, c: np.ndarray, tol: float) -> bool:
    if len(pts) == 1:
        return bool(np.linalg.norm(pts[0] - c) <= tol)
    # collinear set: use its extreme points as the segment
    d = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(d, full_matrices=False)
    axis = vt[0]
    t = d @ axis
    a = pts[np.argmin(t)]
    b = pts[np.argmax(t)]
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-300:
        return bool(np.linalg.norm(a - c) <= tol)
    u = np.clip(float((c - a) @ ab) / denom, 0.0, 1.0)
    return bool(np.linalg.norm(a + u * ab - c) <= tol)


# ---------------------------------------------------------------------------
# Polygon triangulation (floors, walls given as polygons)
# ---------------------------------------------------------------------------


def triangulate_polygon_2d(points: np.ndarray) -> np.ndarray:
    """Ear-clipping triangulation of a simple polygon; returns (N-2, 3) indices."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    idx = list(range(n))
    area2 = 0.0
    for i in range(n):
        j = (i + 1) % n
        area2 += pts[i, 0] * pts[j, 1] - pts[j, 0] * pts[i, 1]
    ccw = area2 >= 0
    faces = []
    guard = 0
    while len(idx) > 3 and guard < 4 * n * n:
        guard += 1
        ear_found = False
        for k in range(len(idx)):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % len(idx)]
            a, b, c = pts[i0], pts[i1], pts[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if (cross <= 1e-12) if ccw else (cross >= -1e-12):
                continue  # reflex or degenerate corner
            tri = np.array([[a, b, c]])
            others = [m for m in idx if m not in (i0, i1, i2)]
            if others and points_in_triangles_2d(pts[others], tri).any():
                continue
            faces.append((i0, i1, i2))
            idx.pop(k)
            ear_found = True
            break
        if not ear_found:
            break  # degenerate input; fall back to a fan below
    if len(idx) == 3:
        faces.append((idx[0], idx[1], idx[2]))
    elif len(idx) > 3:
        for k in range(1, len(idx) - 1):
            faces.append((idx[0], idx[k], idx[k + 1]))
    return np.asarray(faces, dtype=np.int64)


def polygon_to_mesh(points_3d: np.ndarray) -> TriMesh:
    """Triangulate a planar 3D polygon into a mesh (vertices kept as given)."""
    pts = np.asarray(points_3d, dtype=float).reshape(-1, 3)
    if len(pts) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    # Newell normal, then an in-plane basis for 2D ear clipping.
    normal = np.zeros(3)
    for i in range(len(pts)):
        j = (i + 1) % len(pts)
        normal += np.cross(pts[i], pts[j])
    nn = np.linalg.norm(normal)
    if nn < 1e-12:
        raise ValueError("degenerate polygon")
    normal /= nn
    ref = np.array([1.0, 0.0, 0.0]) if abs(normal[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(normal, ref)
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    flat = np.stack([pts @ u, pts @ v], axis=1)
    return TriMesh(pts, triangulate_polygon_2d(flat))


def polygon_planarity(points_3d: np.ndarray) -> float:
    """Max out-of-plane deviation of polygon vertices (best-fit plane)."""
    pts = np.asarray(points_3d, dtype=float).reshape(-1, 3)
    centered = pts - pts.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    normal = vt[-1]
    return float(np.abs(centered @ normal).max())
