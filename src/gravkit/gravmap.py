"""Grounded spatial value map synthesis.

A sub-goal (position + desired gripper openness) is turned into a sampled
point set over the workspace: a cost channel that is low near the sub-goal
and high far away (obstacles add a smoothed penalty bump), and a gripper
channel that carries the desired openness near the sub-goal and the current
openness elsewhere. The channels are read on a fixed point set: the
stride-downsampled voxel lattice reduced by farthest point sampling.

Both channels come from one formula evaluated at the voxels that are read:
the sampled ones for every map, all (S, S, S) of them only for with_fields.
The formula is batch-native over sub-goal voxels: `empty_scene_channels`
runs it on a batch of empty-scene maps, with no occupancy grid, and
`generate_gravmap` on one map. An empty scene's raw cost runs from 0 at the
sub-goal to 2 at the farthest corner, so its bounds are closed-form.
An obstacle that survives clearing adds just its penalty, held on the box
around its voxels grown by the kernel radius and +0.0 outside it. It is
smoothed in box-sized buffers, each axis's pass a product of whole-axis
lines by a band matrix that skips the all-zero lines. The cost's min-max
bounds come from the raw cost on that box and two closed-form values for
the rest of the grid, where the penalty is zero: the farthest corner's and
the nearest voxel's outside the box. A plain map builds no (S, S, S)
distance, cost, penalty or float temporary; the full penalty field is built
only for with_fields.

Every map reads the same memoised lattice, so a set of maps can be held as
its (B, num_points, 2) cost and grip channels; `assemble_points` joins them
to the shared xyz to give the (B, num_points, 5) rows of GravMap.points.
"""
from __future__ import annotations

import functools
import json
import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from .demos import F32_MAX, CorruptFile, Fields, GravkitError, SubGoal

log = logging.getLogger(__name__)

SMOOTH_ROWS = 16   # lines per band product in _smooth_box
SYNTH_CHUNK_POINTS = 16384   # sampled points per chunk of a batch synthesis

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


def read_workspace(fields: Fields, key: str, lo, hi) -> Workspace:
    """The workspace with bounds lo, hi read from field `key` of an input
    file or the command line; bounds not strictly ordered are its error."""
    if not (np.asarray(lo) < np.asarray(hi)).all():
        raise fields.error(key, "min must be strictly below max on every axis")
    return Workspace(tuple(lo), tuple(hi))


@dataclass(frozen=True)
class GravMapParams:
    map_size: int = 100          # voxels per axis, at most 256
    offset_range: int = 3        # voxels, at most map_size; train-time sub-goal jitter, per axis
    gripper_radius: float = 3.0  # voxels; desired-openness region around the sub-goal
    downsample: int = 4          # stride for both channels
    num_points: int = 1024       # points kept by farthest point sampling
    sigma_avoid: float = 10.0    # voxels, at most map_size; Gaussian smoothing of the obstacle map
    avoid_clear_frac: float = 0.15  # obstacles within this fraction of map_size are cleared
    closed_value: float = 0.0    # encoding of "closed" in the gripper channel (0 or -1)

    def __post_init__(self):
        for name in ("map_size", "offset_range", "downsample", "num_points"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        for name in ("gripper_radius", "sigma_avoid", "avoid_clear_frac"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.closed_value not in (0.0, -1.0):
            raise ValueError(f"closed_value must be 0 or -1, got {self.closed_value}")
        if self.map_size <= 0 or self.downsample <= 0 or self.num_points <= 0:
            raise ValueError("map_size, downsample and num_points must be positive")
        # which bounds downsample and num_points too: a 256^3 grid is 16 MB of
        # occupancy and 128 MB per float64 field
        if self.map_size > 256:
            raise ValueError(f"map_size must be at most 256, got {self.map_size}")
        if self.map_size % self.downsample != 0:
            raise ValueError("map_size must be divisible by the downsample stride")
        if self.num_points > (self.map_size // self.downsample) ** 3:
            raise ValueError("num_points exceeds the downsampled grid")
        for name in ("offset_range", "gripper_radius", "sigma_avoid"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        # sigma_avoid sets the smoothing kernel's 2 floor(3 sigma) + 1 taps
        for name in ("offset_range", "sigma_avoid"):
            if getattr(self, name) > self.map_size:
                raise ValueError(f"{name} must be at most {self.map_size}, got {getattr(self, name)}")

    def encode_open(self, open_state):
        """1.0 for an open state, closed_value for a closed one; element-wise
        on an array of states."""
        return np.where(np.asarray(open_state, dtype=bool), 1.0, float(self.closed_value))


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
    to the boundary voxel: i = clamp(floor((x - min)/(max - min) * S), 0, S-1).
    The clamp runs in float, before the cast, so a coordinate beyond the
    int64 range clamps to the right side."""
    pos = np.asarray(pos, dtype=float)
    lo = np.asarray(ws.min)
    frac = (pos - lo) / ws.extent
    idx = np.clip(np.floor(frac * map_size), 0, map_size - 1).astype(int)
    return tuple(int(v) for v in idx)


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


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1D Gaussian kernel truncated at 3*sigma (odd length)."""
    radius = int(np.floor(3.0 * sigma))
    if sigma <= 0 or radius == 0:
        return np.ones(1)
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def _slices(box):
    """The index box (lo, hi) as a tuple of slices."""
    return tuple(slice(a, b) for a, b in zip(*box))


@functools.cache
def _band(sigma: float, n: int) -> np.ndarray:
    """(n, n) matrix B with line @ B the replicate-edge correlation of a
    length-n line with gaussian_kernel_1d(sigma): B[j, i] sums, tap by tap,
    the weights that output i reads from voxel j. Memoised per (sigma, n)
    and read-only."""
    kernel = gaussian_kernel_1d(sigma)
    band = np.zeros((n, n))
    out = np.arange(n)
    for tap, weight in enumerate(kernel):
        band[np.clip(out + tap - kernel.size // 2, 0, n - 1), out] += weight
    band.flags.writeable = False
    return band


def _smooth_box(values: np.ndarray, sigma: float, lo, shape):
    """Gaussian-smooth a non-negative field of `shape` that holds `values`
    (float, or bool for a 0/1 penalty) on the box starting at voxel `lo`
    and is +0.0 outside it. Returns the smoothed field on that box grown by
    the kernel radius (clamped to the field), and the grown box as (lo, hi)
    index lists; outside it the smoothed field is +0.0.

    Pass `axis` smooths the lines along `axis` of the box grown along the
    axes smoothed so far, writing them on the box grown along `axis` too.
    A line whose input is all zero is skipped and written +0.0, which is
    what a zero line times the non-negative band gives. Every other line's
    box span is copied into its whole-axis row of one zeroed (SMOOTH_ROWS,
    n) block, SMOOTH_ROWS lines at a time, and the block is multiplied by
    the axis's band. Every product has the one shape (SMOOTH_ROWS, n) @
    (n, n), so a voxel's bits depend only on its line: not on the box, the
    lines skipped, nor the BLAS thread count. A strided view, a product
    narrowed to the box span, or one product over all of a box's lines
    takes other BLAS paths with other bits.

    The first pass reads `values`; the passes then alternate between two
    flat buffers of the grown box's size, allocated once per call, so no
    (S, S, S) field is built."""
    kernel = gaussian_kernel_1d(sigma)
    lo = list(lo)
    hi = [a + m for a, m in zip(lo, values.shape)]
    if kernel.size == 1:
        return values.astype(float), (lo, hi)
    radius = kernel.size // 2
    grown = ([max(a - radius, 0) for a in lo], [min(b + radius, n) for b, n in zip(hi, shape)])
    # pass 0 and pass 2 write buffer 0, pass 1 buffer 1. Pass 1 needs less,
    # but at the full size a freed buffer 1 can take the box-sized temporary
    # of _cost_bounds, where a smaller one left the heap to grow by it.
    bufs = [np.empty(math.prod(b - a for a, b in zip(*grown))) for _ in range(2)]
    src = values
    for axis in range(3):
        n = shape[axis]
        a, b, ga, gb = lo[axis], hi[axis], grown[0][axis], grown[1][axis]
        dst_shape = src.shape[:axis] + (gb - ga,) + src.shape[axis + 1:]
        dst = bufs[axis % 2][:math.prod(dst_shape)].reshape(dst_shape)
        ins, outs = (np.moveaxis(f, axis, -1) for f in (src, dst))   # (p, q, line) views
        keep = ins.any(axis=-1)
        outs[~keep] = 0.0
        ii, jj = np.nonzero(keep)
        band = _band(sigma, n)
        block, prod = np.zeros((SMOOTH_ROWS, n)), np.empty((SMOOTH_ROWS, n))
        for k in range(0, ii.size, SMOOTH_ROWS):
            i, j = ii[k:k + SMOOTH_ROWS], jj[k:k + SMOOTH_ROWS]
            block[:i.size, a:b] = ins[i, j]
            np.matmul(block, band, out=prod)
            outs[i, j] = prod[:i.size, ga:gb]
        src = dst
    return src, grown


def build_gripper_map(dist: np.ndarray, g_open, g_open_init,
                      params: GravMapParams = DEFAULT_GRAVMAP_PARAMS) -> np.ndarray:
    """Desired openness within gripper_radius voxels of the sub-goal, the
    current openness everywhere else. Closed encodes to params.closed_value.
    The two states may be arrays that broadcast against `dist`, one per map."""
    return np.where(dist <= params.gripper_radius, params.encode_open(g_open),
                    params.encode_open(g_open_init))


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
    # one block for every intermediate, so a pick allocates nothing
    min_d2, d2, term = np.empty((3, n))

    def sq_dist(c, out):
        np.square(np.subtract(x, c[0], out=out), out=out)
        for col, v in ((y, c[1]), (z, c[2])):
            out += np.square(np.subtract(col, v, out=term), out=term)
        return out

    first = int(np.argmin(sq_dist(pts.mean(axis=0), d2)))
    selected = np.empty(num_points, dtype=int)
    selected[0] = first
    sq_dist(pts[first], min_d2)
    for t in range(1, num_points):
        nxt = int(np.argmax(min_d2))
        selected[t] = nxt
        np.minimum(min_d2, sq_dist(pts[nxt], d2), out=min_d2)
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
    """Obstacle penalty: the occupied voxels at least avoid_clear_frac *
    map_size from the sub-goal voxel, Gaussian-smoothed. Returns the penalty
    on the box outside which it is +0.0, and that box as (lo, hi) index
    lists; (None, None) when clearing leaves no voxel."""
    # np.nonzero on the 3-D array is ~30x slower than on its flat view
    ijk = np.unravel_index(np.flatnonzero(occupancy), occupancy.shape)
    keep = _voxel_distance(*ijk, center) >= params.avoid_clear_frac * occupancy.shape[0]
    if not keep.any():
        return None, None
    kept = [u[keep] for u in ijk]
    lo = [int(u.min()) for u in kept]
    values = np.zeros([int(u.max()) + 1 - a for u, a in zip(kept, lo)], dtype=bool)
    values[tuple(u - a for u, a in zip(kept, lo))] = True
    return _smooth_box(values, params.sigma_avoid, lo, occupancy.shape)


def _raw_cost(dist: np.ndarray, dmax, penalty) -> np.ndarray:
    """The cost before normalisation, 2 d/dmax + penalty (None: none), formed
    in place in `dist`; dmax = 0 means every distance is 0, which stays 0.
    dmax may be an array that broadcasts against `dist`, one per map; it is 0
    only on a one-voxel grid, so for every map or none."""
    if np.all(dmax > 0):
        dist /= dmax
    dist *= 2.0
    if penalty is not None:
        dist += penalty
    return dist


def _dmax(map_size: int, centers) -> np.ndarray:
    """The largest distance from each sub-goal voxel of `centers` (..., 3),
    to the corner farthest along each axis: the exact integer squared sum,
    rounded once to float64 before its square root."""
    centers = np.asarray(centers)
    far2 = [float(sum(max(c, map_size - 1 - c) ** 2 for c in row))
            for row in centers.reshape(-1, 3).tolist()]
    return np.sqrt(far2).reshape(centers.shape[:-1])


def _cost_bounds(map_size: int, center, m_a, box):
    """(dmax, lo, hi): the largest distance from the sub-goal voxel `center`,
    and the raw cost's min-max over every voxel, given the penalty `m_a` on
    the index box `box` (both None without a penalty).

    Without a penalty (m_a None) `center` may be a batch of voxels (..., 3),
    with one dmax each, and the bounds are closed-form: the raw cost 2 d/dmax
    is 0 at the sub-goal voxel and exactly 2 at the farthest corner, dmax /
    dmax rounding to 1, and it rounds monotonically in d in between. On a
    one-voxel grid dmax and every distance are 0, and so is hi.

    With a penalty, for one voxel, the raw cost is formed on the penalty's
    box only. Outside the box the penalty is +0.0 and the raw cost 2 d/dmax.
    So no voxel there exceeds the farthest corner's 2, which the box's max
    reaches anyway when it holds that corner; and the least there is at the
    voxel outside the box nearest the sub-goal: the sub-goal voxel itself,
    or one face step out of the box around it (none when the box is the
    whole grid)."""
    dmax = _dmax(map_size, center)
    if m_a is None:
        lo, hi = 0.0, (2.0 if map_size > 1 else 0.0)
    else:
        raw = _raw_cost(_voxel_distance(*np.ogrid[_slices(box)], center), dmax, m_a)
        steps = [0]   # distances to voxels outside the box, the nearest one among them
        if all(a <= c < b for c, a, b in zip(center, *box)):
            steps = ([c - a + 1 for c, a in zip(center, box[0]) if a > 0]
                     + [b - c for c, b in zip(center, box[1]) if b < map_size])
        far, *near = _raw_cost(np.array([dmax, *steps]), dmax, None)
        lo, hi = min([raw.min(), *near]), max(raw.max(), far)
    if hi == lo:
        log.warning("degenerate cost field (constant %.6g); returning zeros", lo)
    return dmax, lo, hi


def _channels(idx, centers, g_open, current_open, bounds, params: GravMapParams, penalty=None):
    """Distance, cost and gripper channel at the voxels `idx`, a tuple of
    broadcastable index arrays, of the maps whose sub-goal voxels are
    `centers` (..., 3). Each channel has the centers' leading shape followed
    by the indices' shape. g_open, current_open and the bounds' dmax hold
    one value per map, lo and hi one for all; `penalty` (one map's, at
    `idx`) is added to the raw cost. The cost is (raw - lo) / (hi - lo), or
    all zeros when the raw cost is constant."""
    dmax, lo, hi = bounds
    centers = np.asarray(centers)
    per_map_shape = centers.shape[:-1] + (1,) * np.broadcast(*idx).ndim

    def per_map(values):
        return np.reshape(values, per_map_shape)

    dist = _voxel_distance(*idx, [per_map(c) for c in np.moveaxis(centers, -1, 0)])
    cost = _raw_cost(dist.copy(), per_map(dmax), penalty)
    if hi == lo:
        cost[...] = 0.0
    else:
        cost -= lo
        cost /= hi - lo
    return dist, cost, build_gripper_map(dist, per_map(g_open), per_map(current_open), params)


def _subgoal_voxel(subgoal: SubGoal, ws: Workspace, params: GravMapParams, mode: str, seed):
    """The sub-goal's voxel; in train mode jittered by augment_offset, its rng
    seeded from `seed`. Inference never perturbs it."""
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    center = world_to_voxel(subgoal.g_pos, ws, params.map_size)
    if mode == "train":
        rng = np.random.default_rng(seed)
        center = augment_offset(center, params.offset_range, params.map_size, rng)
    return center


def assemble_points(xyz: np.ndarray, channels: np.ndarray, out=None) -> np.ndarray:
    """Point rows (x, y, z, cost, grip), (..., N, 5), from the lattice xyz
    (N, 3) that every map shares and the maps' cost and grip channels
    (..., N, 2). Writes into `out` when it is given."""
    if out is None:
        out = np.empty(channels.shape[:-1] + (5,))
    out[..., :3] = xyz
    out[..., 3:] = channels
    return out


def empty_scene_channels(subgoals, current_open, ws: Workspace = Workspace(),
                         params: GravMapParams = DEFAULT_GRAVMAP_PARAMS, mode: str = "infer",
                         seeds=None, out=None) -> np.ndarray:
    """Cost and grip channels, (B, num_points, 2), of the empty-scene maps of
    B sub-goals. Row b holds, bit for bit, the points[:, 3:] that
    generate_gravmap gives for subgoals[b] on an all-False occupancy grid,
    with current_open[b] and, in train mode, seeds[b]. No grid is built or
    scanned. The maps are synthesised SYNTH_CHUNK_POINTS sampled points at a
    time, so the temporaries stay small; they are written into `out` when it
    is given."""
    seeds = [None] * len(subgoals) if seeds is None else seeds
    rows = [(_subgoal_voxel(sub, ws, params, mode, seed), sub.g_open, cur)
            for sub, cur, seed in zip(subgoals, current_open, seeds, strict=True)]
    centers = np.array([c for c, _, _ in rows], dtype=int).reshape(-1, 3)
    g_open = np.array([g for _, g, _ in rows])
    current = np.array([c for _, _, c in rows])
    dmax, lo, hi = _cost_bounds(params.map_size, centers, None, None)
    _, vox = _sample_lattice(ws, params)
    if out is None:
        out = np.empty((len(rows), len(vox), 2))
    step = max(1, SYNTH_CHUNK_POINTS // len(vox))
    for a in range(0, len(rows), step):
        part = slice(a, a + step)
        _, out[part, :, 0], out[part, :, 1] = _channels(
            tuple(vox.T), centers[part], g_open[part], current[part], (dmax[part], lo, hi), params)
    return out


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
    voxel when with_fields is set. A batch of empty-scene maps is
    `empty_scene_channels`, on the same formula.

    Returns the GravMap, or (GravMap, fields) when with_fields is set: the
    same channels at every voxel ("dist", "avoid", "cost", "grip") and the
    (possibly jittered) center voxel.
    """
    center = _subgoal_voxel(subgoal, ws, params, mode, seed)
    s = params.map_size
    if occupancy.shape != (s, s, s):
        raise ValueError(f"occupancy shape {occupancy.shape} != {(s, s, s)}")

    m_a, box = _avoidance(occupancy, center, params)
    bounds = _cost_bounds(s, center, m_a, box)
    xyz, vox = _sample_lattice(ws, params)
    penalty = None
    if m_a is not None:   # the sampled voxels' penalty: read inside the box, +0.0 outside
        rel = vox - box[0]
        inside = np.all((rel >= 0) & (rel < m_a.shape), axis=1)
        penalty = np.zeros(len(vox))
        penalty[inside] = m_a[tuple(rel[inside].T)]
    _, cost, grip = _channels(tuple(vox.T), center, subgoal.g_open, current_open, bounds, params, penalty)
    gmap = GravMap(points=assemble_points(xyz, np.stack([cost, grip], axis=-1)), workspace=ws)
    if not with_fields:
        return gmap
    avoid = np.zeros(occupancy.shape)
    if m_a is not None:
        avoid[_slices(box)] = m_a
    dist, cost, grip = _channels(tuple(np.ogrid[:s, :s, :s]), center, subgoal.g_open, current_open,
                                 bounds, params, None if m_a is None else avoid)
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
