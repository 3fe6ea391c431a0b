"""Grounded spatial value map synthesis.

A sub-goal (position + desired gripper openness) is turned into a sampled
point set over the workspace: a cost channel that is low near the sub-goal
and high far away (obstacles add a smoothed penalty bump), and a gripper
channel that carries the desired openness near the sub-goal and the current
openness elsewhere. The channels are read on a fixed point set: the
stride-downsampled voxel lattice reduced by farthest point sampling.

Voxel fields are plain float ndarrays of shape (S, S, S). They are built
only when an obstacle survives clearing or the caller asks for them; without
obstacles both channels have a closed form on the sampled points. The
obstacle penalty is smoothed only on the box around its surviving voxels,
grown by the kernel radius; outside that box it is exactly zero.
"""
from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .demos import CorruptFile, GravkitError, SubGoal

log = logging.getLogger(__name__)

GMAP_MAGIC = b"GMAP"
GMAP_VERSION = 1
GMAP_HEADER = struct.Struct("<4sII6f")   # magic, version, point count, bounds


class DegenerateWorkspace(GravkitError, ValueError):
    pass


@dataclass(frozen=True)
class Workspace:
    """Axis-aligned workspace bounds in meters."""

    min: tuple = (0.0, 0.0, 0.0)
    max: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "min", tuple(float(v) for v in self.min))
        object.__setattr__(self, "max", tuple(float(v) for v in self.max))
        if not np.isfinite(self.min + self.max).all():
            raise DegenerateWorkspace(f"bounds min {self.min} max {self.max} must be finite")
        if not all(lo < hi for lo, hi in zip(self.min, self.max)):
            raise DegenerateWorkspace(f"min {self.min} not strictly below max {self.max}")

    @property
    def extent(self):
        return np.asarray(self.max) - np.asarray(self.min)


@dataclass(frozen=True)
class GravMapParams:
    map_size: int = 100          # voxels per axis
    offset_range: int = 3        # voxels; train-time sub-goal jitter, per axis
    gripper_radius: float = 3.0  # voxels; desired-openness region around the sub-goal
    downsample: int = 4          # stride for both channels
    num_points: int = 1024       # points kept by farthest point sampling
    sigma_avoid: float = 10.0    # voxels; Gaussian smoothing of the obstacle map
    avoid_clear_frac: float = 0.15  # obstacles within this fraction of map_size are cleared
    closed_value: float = 0.0    # encoding of "closed" in the gripper channel (0 or -1)

    def __post_init__(self):
        for name in ("gripper_radius", "sigma_avoid", "avoid_clear_frac", "closed_value"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.map_size <= 0 or self.downsample <= 0 or self.num_points <= 0:
            raise ValueError("map_size, downsample and num_points must be positive")
        if self.map_size % self.downsample != 0:
            raise ValueError("map_size must be divisible by the downsample stride")
        if self.num_points > (self.map_size // self.downsample) ** 3:
            raise ValueError("num_points exceeds the downsampled grid")
        if self.offset_range < 0 or self.gripper_radius < 0 or self.sigma_avoid < 0:
            raise ValueError("ranges and radii must be non-negative")

    def encode_open(self, open_state) -> float:
        return 1.0 if open_state else float(self.closed_value)


DEFAULT_GRAVMAP_PARAMS = GravMapParams()


@dataclass
class GravMap:
    """Sampled value map: rows of (x, y, z, cost, grip) plus the workspace
    the coordinates live in."""

    points: np.ndarray  # (num_points, 5) float64
    workspace: Workspace

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)

    def __len__(self):
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------

def world_to_voxel(pos, ws: Workspace, map_size: int):
    """Map a world position to voxel indices, clamping out-of-bounds input
    to the boundary voxel: i = clamp(floor((x - min)/(max - min) * S), 0, S-1)."""
    pos = np.asarray(pos, dtype=float)
    lo = np.asarray(ws.min)
    frac = (pos - lo) / ws.extent
    idx = np.floor(frac * map_size).astype(int)
    return tuple(int(v) for v in np.clip(idx, 0, map_size - 1))


def voxel_center(idx, ws: Workspace, map_size: int):
    """World coordinates of voxel centers, min + (i + 0.5) * extent / S per
    axis; idx is one (i, j, k) triple or an (..., 3) array of them."""
    cell = ws.extent / map_size
    return np.asarray(ws.min) + (np.asarray(idx, dtype=float) + 0.5) * cell


def _voxel_distance(u, v, w, center) -> np.ndarray:
    """Euclidean distance (in voxels) from integer voxel indices u, v, w
    (broadcastable arrays) to the center voxel. The squared sum is an exact
    integer in float64, so every caller gets the same bits for a voxel."""
    ci, cj, ck = center
    return np.sqrt((u - ci) ** 2.0 + (v - cj) ** 2.0 + (w - ck) ** 2.0)


def distance_field(map_size: int, center) -> np.ndarray:
    """Euclidean distance (in voxels) from every voxel to the center voxel."""
    return _voxel_distance(*np.ogrid[:map_size, :map_size, :map_size], center)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1D Gaussian kernel truncated at 3*sigma (odd length)."""
    radius = int(np.floor(3.0 * sigma))
    if sigma <= 0 or radius == 0:
        return np.ones(1)
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_smooth(field: np.ndarray, sigma: float) -> np.ndarray:
    """Separable 3D Gaussian filter, kernel truncated at 3*sigma per axis,
    replicate-edge boundary handling. sigma = 0 is the identity.

    Only the support box is smoothed: the bounding box of the non-zero
    voxels, grown by the kernel radius (clamped to the field) along each
    axis as its pass comes. Entries outside the grown box come out +0.0.
    Along an axis not yet smoothed the data is still zero outside the
    support, so where a crop edge lies inside the field, edge replication
    copies a zero equal to the true neighbour; every output sums the same
    taps in the same order as a full-field pass."""
    kernel = gaussian_kernel_1d(sigma)
    if kernel.size == 1:
        return field.astype(float, copy=True)
    radius = kernel.size // 2
    lo, hi = [], []
    for axis in range(3):
        hit = np.flatnonzero(field.any(axis=tuple(a for a in range(3) if a != axis)))
        if hit.size == 0:
            return np.zeros(field.shape)
        lo.append(hit[0])
        hi.append(hit[-1] + 1)
    out = np.zeros(field.shape)
    src = field
    for axis in range(3):
        lo[axis] = max(lo[axis] - radius, 0)
        hi[axis] = min(hi[axis] + radius, field.shape[axis])
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        out[box] = ndimage.correlate1d(src[box], kernel, axis=axis, output=float, mode="nearest")
        src = out
    return out


def build_avoidance_map(occupancy: np.ndarray, dist: np.ndarray,
                        params: GravMapParams = DEFAULT_GRAVMAP_PARAMS) -> np.ndarray:
    """Obstacle penalty field: 1 on occupied voxels, cleared where `dist`
    (the sub-goal's distance_field) is below avoid_clear_frac * map_size,
    then Gaussian-smoothed."""
    m_a = occupancy.astype(float)
    m_a[dist < params.avoid_clear_frac * occupancy.shape[0]] = 0.0
    if not m_a.any():
        return m_a  # nothing left to smooth
    return gaussian_smooth(m_a, params.sigma_avoid)


def build_cost_map(dist: np.ndarray, m_a: np.ndarray) -> np.ndarray:
    """Combine normalized distance with the obstacle penalty and min-max
    normalize into [0, 1]. A degenerate constant combination is returned as
    an all-zero field (and logged)."""
    dmax = dist.max()
    m_c = dist / dmax if dmax > 0 else np.zeros_like(dist)
    m_c = 2.0 * m_c + m_a
    lo, hi = m_c.min(), m_c.max()
    if hi == lo:
        log.warning("degenerate cost field (constant %.6g); returning zeros", lo)
        return np.zeros_like(m_c)
    return (m_c - lo) / (hi - lo)


def build_gripper_map(dist: np.ndarray, g_open, g_open_init,
                      params: GravMapParams = DEFAULT_GRAVMAP_PARAMS) -> np.ndarray:
    """Desired openness within gripper_radius voxels of the sub-goal, the
    current openness everywhere else. Closed encodes to params.closed_value."""
    out = np.full_like(dist, params.encode_open(g_open_init), dtype=float)
    out[dist <= params.gripper_radius] = params.encode_open(g_open)
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def farthest_point_sampling(points, num_points: int) -> np.ndarray:
    """Greedy farthest point sampling with fixed tie rules.

    Starts from the point nearest the centroid (ties: lowest index); each
    following pick maximizes the minimum distance to the selected set (ties:
    lowest index). Returns all indices when num_points >= len(points).
    The procedure is fully deterministic.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("empty point set")
    if num_points >= n:
        return np.arange(n)
    # contiguous coordinate columns, summed x + y + z left to right as a row sum does
    x, y, z = np.ascontiguousarray(pts.T)

    def sq_dist(c):
        return (x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2

    first = int(np.argmin(sq_dist(pts.mean(axis=0))))
    selected = np.empty(num_points, dtype=int)
    selected[0] = first
    min_d2 = sq_dist(pts[first])
    for t in range(1, num_points):
        nxt = int(np.argmax(min_d2))
        selected[t] = nxt
        np.minimum(min_d2, sq_dist(pts[nxt]), out=min_d2)
    return selected


def augment_offset(voxel, offset_range: int, map_size: int, rng: np.random.Generator):
    """Train-time jitter: each axis offset drawn uniformly from the integers
    [-offset_range, offset_range], result clamped into the grid."""
    delta = rng.integers(-offset_range, offset_range + 1, size=3)
    out = np.clip(np.asarray(voxel) + delta, 0, map_size - 1)
    return tuple(int(v) for v in out)


# The downsampled lattice and its farthest-point ordering depend only on
# (workspace, map_size, downsample, num_points), so the sampled points are
# memoized: world coordinates and voxel indices, both in FPS order.
_lattice_cache: dict = {}


def _sample_lattice(ws: Workspace, params: GravMapParams):
    key = (ws.min, ws.max, params.map_size, params.downsample, params.num_points)
    hit = _lattice_cache.get(key)
    if hit is None:
        stride = params.downsample
        idx = np.arange(0, params.map_size, stride)
        vox = np.stack(np.meshgrid(idx, idx, idx, indexing="ij"), axis=-1).reshape(-1, 3)
        grid = voxel_center(vox, ws, params.map_size)
        order = farthest_point_sampling(grid, params.num_points)
        hit = (grid[order], vox[order])
        _lattice_cache[key] = hit
    return hit


def _obstacle_survives(occupancy: np.ndarray, center, params: GravMapParams) -> bool:
    """Whether build_avoidance_map would leave an occupied voxel uncleared,
    decided on the occupied voxels alone."""
    # np.nonzero on the 3-D array is ~30x slower than on its flat view
    occupied = np.unravel_index(np.flatnonzero(occupancy), occupancy.shape)
    d = _voxel_distance(*occupied, center)
    return bool((d >= params.avoid_clear_frac * occupancy.shape[0]).any())


def _cost_without_obstacles(dist: np.ndarray, map_size: int, center) -> np.ndarray:
    """build_cost_map with an all-zero avoidance map, on sampled distances.

    The full field's dmax sits at one of the 8 corners; its min-max bounds
    are exactly 0 (the center voxel) and 2 (that corner), and scaling by 2
    and back is exact, so dist / dmax has the full-field bits."""
    corners = np.array(np.meshgrid(*[[0, map_size - 1]] * 3, indexing="ij")).reshape(3, -1)
    dmax = _voxel_distance(*corners, center).max()
    if dmax == 0:
        log.warning("degenerate cost field (constant 0); returning zeros")
        return np.zeros_like(dist)
    return dist / dmax


def generate_gravmap(subgoal: SubGoal, occupancy: np.ndarray, current_open,
                     ws: Workspace = Workspace(),
                     params: GravMapParams = DEFAULT_GRAVMAP_PARAMS,
                     mode: str = "infer", seed=None, with_fields: bool = False):
    """Full synthesis pipeline for one sub-goal.

    In train mode the sub-goal voxel is jittered by a few voxels before the
    channels are computed (rng seeded from `seed`); inference never perturbs
    it. Occupancy must be a boolean field of shape (map_size,)*3; the
    non-goal region of the gripper channel carries `current_open`.

    When every occupied voxel lies inside the cleared radius around the
    sub-goal (always so for empty occupancy), cost and grip are computed on
    the sampled points alone; otherwise, or when with_fields is set, the full
    (map_size,)*3 fields are built and read at those points. Both paths give
    the same bits.

    Returns the GravMap, or (GravMap, fields) with the full-resolution fields
    and the (possibly jittered) center voxel when with_fields is set.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    s = params.map_size
    if occupancy.shape != (s, s, s):
        raise ValueError(f"occupancy shape {occupancy.shape} != {(s, s, s)}")

    center = world_to_voxel(subgoal.g_pos, ws, s)
    if mode == "train":
        rng = np.random.default_rng(seed)
        center = augment_offset(center, params.offset_range, s, rng)

    xyz, vox = _sample_lattice(ws, params)
    points = np.empty((params.num_points, 5), dtype=float)
    points[:, :3] = xyz
    if with_fields or _obstacle_survives(occupancy, center, params):
        dist = distance_field(s, center)
        m_a = build_avoidance_map(occupancy, dist, params)
        m_c = build_cost_map(dist, m_a)
        m_g = build_gripper_map(dist, subgoal.g_open, current_open, params)
        at = tuple(vox.T)
        points[:, 3] = m_c[at]
        points[:, 4] = m_g[at]
    else:
        dist = _voxel_distance(*vox.T, center)
        points[:, 3] = _cost_without_obstacles(dist, s, center)
        points[:, 4] = build_gripper_map(dist, subgoal.g_open, current_open, params)
    gmap = GravMap(points=points, workspace=ws)
    if with_fields:
        return gmap, {"center": center, "dist": dist, "avoid": m_a, "cost": m_c, "grip": m_g}
    return gmap


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_gmap(gmap: GravMap, path):
    """Canonical binary format: magic, version, point count, workspace
    bounds, then rows of (x, y, z, cost, grip) — all little-endian f32."""
    header = GMAP_HEADER.pack(GMAP_MAGIC, GMAP_VERSION, len(gmap),
                              *gmap.workspace.min, *gmap.workspace.max)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(gmap.points.astype("<f4").tobytes())


def load_gmap(path) -> GravMap:
    """Read a `.gmap`; a truncated, padded or corrupt file raises CorruptFile."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < GMAP_HEADER.size:
        raise CorruptFile(f"{path}: {len(blob)} bytes, shorter than the {GMAP_HEADER.size}-byte header")
    magic, version, n, *bounds = GMAP_HEADER.unpack_from(blob)
    if magic != GMAP_MAGIC:
        raise CorruptFile(f"{path}: bad magic {magic!r}")
    if version != GMAP_VERSION:
        raise CorruptFile(f"{path}: unsupported version {version}")
    size = GMAP_HEADER.size + 20 * n   # 5 f32 per point
    if len(blob) != size:
        raise CorruptFile(f"{path}: {n} points take {size} bytes, the file has {len(blob)}")
    try:
        ws = Workspace(bounds[:3], bounds[3:])
    except DegenerateWorkspace as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    pts = np.frombuffer(blob, dtype="<f4", offset=GMAP_HEADER.size).reshape(n, 5)
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise CorruptFile(f"{path}: point row {int(np.argmin(finite))} is not finite")
    return GravMap(points=pts.astype(float), workspace=ws)


def gmap_to_json(gmap: GravMap) -> str:
    """Human-inspectable JSON mirror of the binary format."""
    return json.dumps({
        "version": GMAP_VERSION,
        "workspace": {"min": list(gmap.workspace.min), "max": list(gmap.workspace.max)},
        "points": [[float(v) for v in row] for row in gmap.points],
    }, separators=(",", ":"))


def save_field_slice_pgm(field: np.ndarray, axis: int, index: int, path):
    """Export one axis-aligned slice of a field in [0, 1] as 8-bit binary PGM
    (values scaled by 255) for offline inspection."""
    sl = np.take(field, index, axis=axis)
    img = np.clip(np.rint(sl * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
