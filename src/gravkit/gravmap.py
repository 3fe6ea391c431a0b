"""Grounded spatial value map synthesis.

A sub-goal (position + desired gripper openness) is turned into a sampled
point set over the workspace: a cost channel that is low near the sub-goal
and high far away (obstacles add a smoothed penalty bump), and a gripper
channel that carries the desired openness near the sub-goal and the current
openness elsewhere. The channels are read on a fixed point set: the
stride-downsampled voxel lattice reduced by farthest point sampling.

Both channels come from one formula evaluated at the voxels that are read:
the sampled ones for every map, all (S, S, S) of them only for with_fields.
An obstacle that survives clearing adds just its penalty field, smoothed on
the box around its voxels grown by the kernel radius. The cost's min-max
bounds come from the raw cost on that box and two closed-form values for
the rest of the grid, where the penalty is zero: the farthest corner's and
the nearest voxel's outside the box. A plain map builds no (S, S, S)
distance, cost or occupancy temporary: only the two smoothing buffers.
"""
from __future__ import annotations

import json
import logging
import struct
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .demos import F32_MAX, CorruptFile, GravkitError, SubGoal

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
        # within f32 range the extent and every voxel centre stay finite too
        if not (np.abs(self.min + self.max) <= F32_MAX).all():
            raise DegenerateWorkspace(f"bounds min {self.min} max {self.max} must be finite, "
                                      f"of magnitude at most {F32_MAX!r}")
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
        for name in ("map_size", "offset_range", "downsample", "num_points"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
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
    d2 = (u - ci) ** 2.0 + (v - cj) ** 2.0 + (w - ck) ** 2.0
    return np.sqrt(d2, out=d2)


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

    Only the support box, the bounding box of the non-zero voxels, is
    smoothed (see _smooth_box); entries outside it grown by the kernel
    radius come out +0.0."""
    out = np.array(field, dtype=float)
    support = [np.flatnonzero(out.any(axis=tuple(a for a in range(3) if a != axis)))
               for axis in range(3)]
    if all(hit.size for hit in support):
        return _smooth_box(out, sigma, [hit[0] for hit in support], [hit[-1] + 1 for hit in support])[0]
    return out if gaussian_kernel_1d(sigma).size == 1 else np.zeros(out.shape)


def _smooth_box(buf: np.ndarray, sigma: float, lo, hi):
    """Gaussian-smooth the float field `buf`, whose non-zero entries lie in
    the box [lo, hi), using `buf` as scratch. Returns the smoothed field and
    the box grown by the kernel radius (clamped to the field); outside that
    box the field is +0.0.

    Pass `axis` runs on the box grown along the axes smoothed so far. Along
    an axis not yet smoothed the data is still zero outside the box, so where
    a crop edge lies inside the field, edge replication copies a zero equal
    to the true neighbour; every output sums the same taps in the same order
    as a full-field pass.

    The passes alternate between `buf` and one zeroed buffer, each writing
    into the one it does not read, so no box-sized temporary is made and
    scipy's output never overlaps its input. The buffer a pass reads is
    zero outside the previous pass's box: the zeroed buffer was written only
    on smaller boxes, and `buf` outside them still holds the input, zero
    outside [lo, hi)."""
    kernel = gaussian_kernel_1d(sigma)
    if kernel.size == 1:
        return buf, (lo, hi)
    radius = kernel.size // 2
    lo, hi = list(lo), list(hi)
    src, dst = buf, np.zeros(buf.shape)
    for axis in range(3):
        lo[axis] = max(lo[axis] - radius, 0)
        hi[axis] = min(hi[axis] + radius, buf.shape[axis])
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        ndimage.correlate1d(src[box], kernel, axis=axis, output=dst[box], mode="nearest")
        src, dst = dst, src
    return src, (lo, hi)


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


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def _avoidance(occupancy: np.ndarray, center, params: GravMapParams):
    """Obstacle penalty field: the occupied voxels at least avoid_clear_frac *
    map_size from the sub-goal voxel, Gaussian-smoothed; and the box outside
    which it is +0.0, as (lo, hi) index lists. (None, None) when clearing
    leaves no voxel."""
    # np.nonzero on the 3-D array is ~30x slower than on its flat view
    occupied = np.flatnonzero(occupancy)
    ijk = np.unravel_index(occupied, occupancy.shape)
    keep = _voxel_distance(*ijk, center) >= params.avoid_clear_frac * occupancy.shape[0]
    if not keep.any():
        return None, None
    m_a = np.zeros(occupancy.shape)
    m_a.flat[occupied[keep]] = 1.0
    lo = [int(u[keep].min()) for u in ijk]
    hi = [int(u[keep].max()) + 1 for u in ijk]
    return _smooth_box(m_a, params.sigma_avoid, lo, hi)


def _raw_cost(dist: np.ndarray, dmax, penalty) -> np.ndarray:
    """The cost before normalisation, 2 d/dmax + penalty (None: none), formed
    in place in `dist`; dmax = 0 means every distance is 0, which stays 0."""
    if dmax > 0:
        dist /= dmax
    dist *= 2.0
    if penalty is not None:
        dist += penalty
    return dist


def _cost_bounds(map_size: int, center, m_a, box):
    """(dmax, lo, hi): the largest distance from the sub-goal voxel, to the
    corner farthest along each axis, and the raw cost's min-max over every
    voxel.

    The raw cost is formed on the penalty's box only; a map without a
    penalty takes the sub-goal voxel as its box. Outside the box the penalty
    is +0.0 and the raw cost 2 d/dmax, which rounds monotonically in d,
    itself monotone in the exact integer squared distance. So no voxel there
    exceeds the farthest corner's 2, which the box's max reaches anyway when
    it holds that corner; and the least there is at the voxel outside the
    box nearest the sub-goal: the sub-goal voxel itself, or one face step
    out of the box around it (none when the box is the whole grid)."""
    dmax = np.sqrt(float(sum(max(c, map_size - 1 - c) ** 2 for c in center)))
    if m_a is None:
        box = (center, [c + 1 for c in center])
    inside = tuple(slice(a, b) for a, b in zip(*box))
    raw = _raw_cost(_voxel_distance(*np.ogrid[inside], center), dmax, None if m_a is None else m_a[inside])
    steps = [0]   # distances to voxels outside the box, the nearest one among them
    if all(a <= c < b for c, a, b in zip(center, *box)):
        steps = ([c - a + 1 for c, a in zip(center, box[0]) if a > 0]
                 + [b - c for c, b in zip(center, box[1]) if b < map_size])
    far, *near = _raw_cost(np.array([dmax, *steps]), dmax, None)
    lo, hi = min([raw.min(), *near]), max(raw.max(), far)
    if hi == lo:
        log.warning("degenerate cost field (constant %.6g); returning zeros", lo)
    return dmax, lo, hi


def _channels(idx, center, subgoal: SubGoal, current_open, m_a, bounds, params: GravMapParams):
    """Distance, cost and gripper channel at the voxels `idx`, a tuple of
    broadcastable index arrays. The cost is (raw - lo) / (hi - lo), or all
    zeros when the raw cost is constant."""
    dmax, lo, hi = bounds
    dist = _voxel_distance(*idx, center)
    raw = _raw_cost(dist.copy(), dmax, None if m_a is None else m_a[idx])
    cost = np.zeros_like(raw) if hi == lo else (raw - lo) / (hi - lo)
    return dist, cost, build_gripper_map(dist, subgoal.g_open, current_open, params)


def generate_gravmap(subgoal: SubGoal, occupancy: np.ndarray, current_open,
                     ws: Workspace = Workspace(),
                     params: GravMapParams = DEFAULT_GRAVMAP_PARAMS,
                     mode: str = "infer", seed=None, with_fields: bool = False):
    """Full synthesis pipeline for one sub-goal.

    In train mode the sub-goal voxel is jittered by a few voxels before the
    channels are computed (rng seeded from `seed`); inference never perturbs
    it. Occupancy must be a boolean field of shape (map_size,)*3; the
    non-goal region of the gripper channel carries `current_open`. Cost and
    grip are evaluated at the sampled lattice voxels, and again at every
    voxel when with_fields is set.

    Returns the GravMap, or (GravMap, fields) when with_fields is set: the
    same channels at every voxel ("dist", "avoid", "cost", "grip") and the
    (possibly jittered) center voxel.
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

    m_a, box = _avoidance(occupancy, center, params)
    bounds = _cost_bounds(s, center, m_a, box)
    xyz, vox = _sample_lattice(ws, params)
    _, cost, grip = _channels(tuple(vox.T), center, subgoal, current_open, m_a, bounds, params)
    gmap = GravMap(points=np.column_stack([xyz, cost, grip]), workspace=ws)
    if not with_fields:
        return gmap
    dist, cost, grip = _channels(tuple(np.ogrid[:s, :s, :s]), center, subgoal, current_open,
                                 m_a, bounds, params)
    avoid = np.zeros(occupancy.shape) if m_a is None else m_a
    return gmap, {"center": center, "dist": dist, "avoid": avoid, "cost": cost, "grip": grip}


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
