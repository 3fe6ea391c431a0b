"""Independent brute-force oracles used to cross-check the library.

Everything here is written as plain loops, or as the most direct numpy
form where the library's version is an optimisation or a refactoring of it
(the encoder, the denoiser), sharing no code with the package under test,
so agreement is meaningful.
"""
import numpy as np


def keypose_oracle(demo, eps_vel=1e-3, stop_buffer=4):
    """Linear scan: stopped frames (respecting the buffer) plus gripper
    toggles, with the last frame forced."""
    picked = []
    last_pick = None
    for f in range(len(demo.frames)):
        fr = demo.frames[f]
        toggle = f > 0 and fr.open != demo.frames[f - 1].open
        stopped = all(abs(v) < eps_vel for v in fr.joint_vel)
        buffer_clear = last_pick is None or (f - last_pick) > stop_buffer
        if toggle or (stopped and buffer_clear):
            picked.append(f)
            last_pick = f
    final = len(demo.frames) - 1
    if final not in picked:
        picked.append(final)
    return picked


def touch_change_oracle(demo, k, touch_threshold=2, delta=0.005):
    for j in range(max(0, k - touch_threshold), k):
        for c in range(len(demo.frames[k].touch)):
            if abs(demo.frames[j].touch[c] - demo.frames[k].touch[c]) > delta:
                return True
    return False


def gripper_change_oracle(demo, k, gripper_threshold=4):
    for j in range(max(0, k - gripper_threshold), k):
        if demo.frames[j].open != demo.frames[k].open:
            return True
    return False


def subgoal_oracle(demo, eps_vel=1e-3, stop_buffer=4, touch_threshold=2,
                   delta=0.005, gripper_threshold=4):
    keyposes = keypose_oracle(demo, eps_vel, stop_buffer)
    picked = []
    for k in keyposes:
        if demo.task_kind.value == "touch_only":
            keep = touch_change_oracle(demo, k, touch_threshold, delta)
        else:
            keep = (gripper_change_oracle(demo, k, gripper_threshold)
                    or touch_change_oracle(demo, k, touch_threshold, delta))
        if keep:
            picked.append(k)
    if keyposes[-1] not in picked:
        picked.append(keyposes[-1])
    return picked


def assignment_oracle(demo, keyposes, subgoal_keyposes):
    """keypose -> frame index of its nearest future sub-goal keypose."""
    out = {}
    for k in keyposes:
        future = [s for s in sorted(subgoal_keyposes) if s >= k]
        out[k] = future[0]
    return out


def fps_oracle(points, num_points):
    """Greedy farthest point sampling over an explicit pairwise distance
    matrix, with explicit first-index tie scans.

    Start at the point nearest the componentwise mean (ties: lowest index);
    then repeatedly take the point whose minimum squared distance to the
    selected set is largest (ties: lowest index). The running minimum is
    updated incrementally, which is exactly equivalent to recomputing the
    minimum over the selected set.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if num_points >= n:
        return list(range(n))
    pair_d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    centroid = pts.mean(axis=0)
    cdist = ((pts - centroid) ** 2).sum(axis=1)
    best, best_d = 0, cdist[0]
    for i in range(1, n):
        if cdist[i] < best_d:
            best, best_d = i, cdist[i]
    selected = [best]
    mind = [pair_d2[i, best] for i in range(n)]
    while len(selected) < num_points:
        cand, cand_d = 0, mind[0]
        for i in range(1, n):
            if mind[i] > cand_d:
                cand, cand_d = i, mind[i]
        selected.append(cand)
        for i in range(n):
            if pair_d2[i, cand] < mind[i]:
                mind[i] = pair_d2[i, cand]
    return selected


def fps_rows_oracle(points, num_points):
    """The library's farthest point sampling as it was before it moved to
    coordinate columns: the same greedy loop on (n, 3) rows. Unlike
    fps_oracle it runs at full-lattice sizes."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if num_points >= n:
        return list(range(n))
    first = int(np.argmin(((pts - pts.mean(axis=0)) ** 2).sum(axis=1)))
    selected = [first]
    min_d2 = ((pts - pts[first]) ** 2).sum(axis=1)
    while len(selected) < num_points:
        nxt = int(np.argmax(min_d2))
        selected.append(nxt)
        np.minimum(min_d2, ((pts - pts[nxt]) ** 2).sum(axis=1), out=min_d2)
    return selected


def gaussian_smooth_oracle(field, sigma):
    """The library's Gaussian smoothing over the whole field instead of the
    support box: per axis, every line multiplied by a replicate-edge band
    matrix, 16 lines at a time as the library groups them, the kernel
    written out with the same operations as gaussian_kernel_1d."""
    radius = int(np.floor(3.0 * sigma))
    if sigma <= 0 or radius == 0:
        return np.array(field, dtype=float)
    x = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    kernel = kernel / kernel.sum()
    out = np.array(field, dtype=float)
    for axis in range(3):
        n = out.shape[axis]
        band = np.zeros((n, n))
        for i in range(n):
            for t in range(kernel.size):
                band[min(max(i + t - radius, 0), n - 1), i] += kernel[t]
        moved = np.moveaxis(out, axis, -1)
        lines = np.ascontiguousarray(moved).reshape(-1, n)
        smoothed = np.empty_like(lines)
        for k in range(0, len(lines), 16):
            rows = lines[k:k + 16]
            block = np.zeros((16, n))
            block[:len(rows)] = rows
            smoothed[k:k + 16] = (block @ band)[:len(rows)]
        out = np.moveaxis(smoothed.reshape(moved.shape), -1, axis)
    return out


def distance_field(map_size, center):
    """Euclidean distance (in voxels) from every voxel of a map_size^3 grid
    to the center voxel."""
    i, j, k = np.indices((map_size,) * 3)
    ci, cj, ck = center
    return np.sqrt((i - ci) ** 2.0 + (j - cj) ** 2.0 + (k - ck) ** 2.0)


def abar(sched, k):
    """alpha_bar of step k of `sched`, 1 at step 0."""
    return 1.0 if k == 0 else float(sched.alpha_bar[k - 1])


def posterior_sigma(k, sched):
    """The reverse step's posterior std, sigma_k^2 = (1 - abar_{k-1}) /
    (1 - abar_k) * beta_k, for step k of `sched`."""
    return float(np.sqrt((1.0 - abar(sched, k - 1)) / (1.0 - abar(sched, k)) * sched.beta[k - 1]))


def reverse_table_oracle(sched_pos, sched_rot):
    """(K, 3, 9) reverse-update terms built per scalar schedule, then spread:
    each schedule's (K, 3) mean coefficient beta_k / sqrt(1 - abar_k),
    sqrt(alpha_k) and posterior std, its columns indexed out to the pose's
    3 position and 6 rotation channels."""
    def terms(s):
        abar_prev = np.concatenate(([1.0], s.alpha_bar[:-1]))
        return np.stack([s.beta / np.sqrt(1.0 - s.alpha_bar), np.sqrt(s.alpha),
                         np.sqrt((1.0 - abar_prev) / (1.0 - s.alpha_bar) * s.beta)], axis=1)

    return np.stack([terms(sched_pos), terms(sched_rot)], axis=-1)[..., np.repeat([0, 1], (3, 6))]


def reverse_chain_oracle(denoiser, sched_pos, sched_rot, seed, stochastic):
    """The pose vector (9,) that the reverse chain ends at, channel by
    channel in scalars: from standard normal noise at step K, each step
    x <- (x - beta_k / sqrt(1 - abar_k) * eps) / sqrt(alpha_k), plus
    posterior_sigma times fresh noise when stochastic and k > 1, positions
    on `sched_pos` and rotations on `sched_rot`; the start and the noise
    drawn from one generator seeded with `seed`."""
    rng = np.random.default_rng(seed)
    x = list(rng.standard_normal(9))
    for k in range(sched_pos.steps, 0, -1):
        eps = denoiser(np.array(x), k)[0]
        noise = rng.standard_normal(9) if stochastic and k > 1 else None
        for c in range(9):
            s = sched_pos if c < 3 else sched_rot
            x[c] = (x[c] - s.beta[k - 1] / np.sqrt(1.0 - abar(s, k)) * eps[c]) / np.sqrt(s.alpha[k - 1])
            if noise is not None:
                x[c] = x[c] + posterior_sigma(k, s) * noise[c]
    return np.array(x)


def _raw_cost_oracle(occupancy, center, params):
    """A full distance field, occupancy cleared by a full distance mask and
    smoothed over the whole field, and the raw cost 2 d/dmax + avoidance."""
    dist = distance_field(occupancy.shape[0], center)
    avoid = occupancy.astype(float)
    avoid[dist < params.avoid_clear_frac * occupancy.shape[0]] = 0.0
    if avoid.any():
        avoid = gaussian_smooth_oracle(avoid, params.sigma_avoid)
    dmax = dist.max()
    raw = 2.0 * (dist / dmax if dmax > 0 else np.zeros_like(dist)) + avoid
    return dist, avoid, raw


def cost_bounds_oracle(occupancy, center, params):
    """(dmax, lo, hi): the largest distance from the center voxel and the raw
    cost's min and max, each over every voxel."""
    dist, _, raw = _raw_cost_oracle(occupancy, center, params)
    return dist.max(), raw.min(), raw.max()


def gravmap_fields_oracle(occupancy, center, g_open, current_open, params):
    """The library's value-map fields as they were built before synthesis
    moved to the voxels that are read: the full fields of _raw_cost_oracle,
    the cost min-max normalised over every voxel (a constant field gives
    zeros), and the gripper field thresholded on the full distance field."""
    dist, avoid, cost = _raw_cost_oracle(occupancy, center, params)
    lo, hi = cost.min(), cost.max()
    cost = np.zeros_like(cost) if hi == lo else (cost - lo) / (hi - lo)
    goal, elsewhere = (1.0 if state else float(params.closed_value) for state in (g_open, current_open))
    grip = np.where(dist <= params.gripper_radius, goal, elsewhere)
    return {"dist": dist, "avoid": avoid, "cost": cost, "grip": grip}


def occupancy_grid_oracle(world, map_size, ws):
    """The library's occupancy rasterisation as it was before it moved to
    each sphere's index box: every sphere's squared distance over every
    voxel center, the centers written out as voxel_center forms them."""
    lo = np.asarray(ws.min)
    cell = (np.asarray(ws.max) - lo) / map_size
    ax = lo + (np.arange(map_size, dtype=float)[:, None] + 0.5) * cell    # (S, 3)
    xs = ax[:, 0, None, None]
    ys = ax[None, :, 1, None]
    zs = ax[None, None, :, 2]
    occ = np.zeros((map_size, map_size, map_size), dtype=bool)
    for obj in world.objects:
        c = obj.center
        d2 = (xs - c[0]) ** 2 + (ys - c[1]) ** 2 + (zs - c[2]) ** 2
        occ |= d2 <= obj.radius**2
    return occ


def gaussian3d_oracle(field, sigma):
    """Direct (non-separable) 3D Gaussian convolution with replicate-edge
    padding; kernel support |offset| <= floor(3 sigma) per axis, normalized
    over the truncated support."""
    radius = int(np.floor(3.0 * sigma))
    if sigma <= 0 or radius == 0:
        return np.array(field, dtype=float)
    offs = np.arange(-radius, radius + 1)
    kern = np.zeros((offs.size,) * 3)
    for a, dx in enumerate(offs):
        for b, dy in enumerate(offs):
            for c, dz in enumerate(offs):
                kern[a, b, c] = np.exp(-(dx * dx + dy * dy + dz * dz) / (2.0 * sigma * sigma))
    kern /= kern.sum()
    padded = np.pad(np.asarray(field, dtype=float), radius, mode="edge")
    out = np.zeros_like(np.asarray(field, dtype=float))
    nx, ny, nz = out.shape
    for a, dx in enumerate(offs):
        for b, dy in enumerate(offs):
            for c, dz in enumerate(offs):
                out += kern[a, b, c] * padded[a:a + nx, b:b + ny, c:c + nz]
    return out


def encoder_oracle(maps, params):
    """The point-set encoder written the straightforward way: fresh arrays
    for every step, `argmax` + `take_along_axis` for the max-pool and ReLU
    masks taken from the pre-activations. Returns (tokens, arg, pooled,
    forward state for `encoder_backward_oracle`)."""
    m, n, d = maps.shape
    x = maps.reshape(m * n, d)
    h1 = np.maximum(x @ params["enc.w1"] + params["enc.b1"], 0.0)
    pre2 = h1 @ params["enc.w2"] + params["enc.b2"]
    h2 = np.maximum(pre2, 0.0).reshape(m, n, -1)
    arg = h2.argmax(axis=1)
    pooled = np.take_along_axis(h2, arg[:, None, :], axis=1)[:, 0, :]
    tokens = pooled @ params["enc.w3"] + params["enc.b3"]
    return tokens, arg, pooled, (x, h1, pre2, arg, pooled, m, n)


def encoder_backward_oracle(d_tokens, state, params, grads):
    """Adds the gradients of `encoder_oracle` into `grads` ("enc.*" keys),
    the max-pool passing gradient to each channel's winning row and the
    layer-2 mask taken from `pre2 <= 0`."""
    x, h1, pre2, arg, pooled, m, n = state
    width = pre2.shape[1]
    grads["enc.w3"] += pooled.T @ d_tokens
    grads["enc.b3"] += d_tokens.sum(axis=0)
    d_pooled = d_tokens @ params["enc.w3"].T
    flat_rows = (arg + (np.arange(m) * n)[:, None]).ravel()
    rows, inverse = np.unique(flat_rows, return_inverse=True)
    d_pre2 = np.zeros((rows.size, width))
    np.add.at(d_pre2, (inverse, np.tile(np.arange(width), m)), d_pooled.ravel())
    d_pre2[pre2[rows] <= 0] = 0.0
    grads["enc.w2"] += h1[rows].T @ d_pre2
    grads["enc.b2"] += d_pre2.sum(axis=0)
    d_pre1 = d_pre2 @ params["enc.w2"].T
    d_pre1[h1[rows] <= 0] = 0.0
    grads["enc.w1"] += x[rows].T @ d_pre1
    grads["enc.b1"] += d_pre1.sum(axis=0)


def sigmoid_oracle(x):
    """The logistic function in its masked two-branch form: 1 / (1 + e^-x)
    on x >= 0 and e^x / (1 + e^x) on the rest, each exp on its own subset."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def denoiser_oracle(pose, proprio, scene, emb, tokens, params):
    """The dual-trunk denoiser unrolled layer by layer, given the step
    embedding rows `emb`: fresh arrays for every step and pre-activations
    kept for the ReLU masks. Returns (eps_pos, eps_rot, open_p, aux_pos,
    aux_open_p, forward state for `denoiser_backward_oracle`)."""
    p = params
    in_b = np.concatenate([pose, proprio, scene, emb], axis=1)
    in_a = np.concatenate([in_b, tokens], axis=1)
    a_pre1 = in_a @ p["den.a_w1"] + p["den.a_b1"]
    a_h1 = np.maximum(a_pre1, 0.0)
    a_pre2 = a_h1 @ p["den.a_w2"] + p["den.a_b2"]
    a_h2 = np.maximum(a_pre2, 0.0)
    eps_pos = a_h2 @ p["den.pos_w"] + p["den.pos_b"]
    open_logit = a_h2 @ p["den.open_w"] + p["den.open_b"]
    aux_pos = a_h2 @ p["den.auxp_w"] + p["den.auxp_b"]
    auxo_logit = a_h2 @ p["den.auxo_w"] + p["den.auxo_b"]

    b_pre1 = in_b @ p["den.b_w1"] + p["den.b_b1"]
    b_h1 = np.maximum(b_pre1, 0.0)
    b_pre2 = b_h1 @ p["den.b_w2"] + p["den.b_b2"]
    b_h2 = np.maximum(b_pre2, 0.0)
    eps_rot = b_h2 @ p["den.rot_w"] + p["den.rot_b"]

    state = (in_a, in_b, a_pre1, a_h1, a_pre2, a_h2, b_pre1, b_h1, b_pre2, b_h2)
    return (eps_pos, eps_rot, sigmoid_oracle(open_logit), aux_pos,
            sigmoid_oracle(auxo_logit), state)


def denoiser_backward_oracle(d_eps_pos, d_open_logit, d_aux_pos, d_auxo_logit, d_eps_rot,
                             state, params, grads):
    """Adds the gradients of `denoiser_oracle` into `grads` ("den.*" keys),
    masks taken from the pre-activations, and returns d loss / d tokens."""
    p = params
    in_a, in_b, a_pre1, a_h1, a_pre2, a_h2, b_pre1, b_h1, b_pre2, b_h2 = state
    grads["den.pos_w"] += a_h2.T @ d_eps_pos
    grads["den.pos_b"] += d_eps_pos.sum(axis=0)
    grads["den.open_w"] += a_h2.T @ d_open_logit
    grads["den.open_b"] += d_open_logit.sum(axis=0)
    grads["den.auxp_w"] += a_h2.T @ d_aux_pos
    grads["den.auxp_b"] += d_aux_pos.sum(axis=0)
    grads["den.auxo_w"] += a_h2.T @ d_auxo_logit
    grads["den.auxo_b"] += d_auxo_logit.sum(axis=0)

    d_a_h2 = (d_eps_pos @ p["den.pos_w"].T + d_open_logit @ p["den.open_w"].T
              + d_aux_pos @ p["den.auxp_w"].T + d_auxo_logit @ p["den.auxo_w"].T)
    d_a_h2[a_pre2 <= 0] = 0.0
    grads["den.a_w2"] += a_h1.T @ d_a_h2
    grads["den.a_b2"] += d_a_h2.sum(axis=0)
    d_a_h1 = d_a_h2 @ p["den.a_w2"].T
    d_a_h1[a_pre1 <= 0] = 0.0
    grads["den.a_w1"] += in_a.T @ d_a_h1
    grads["den.a_b1"] += d_a_h1.sum(axis=0)

    grads["den.rot_w"] += b_h2.T @ d_eps_rot
    grads["den.rot_b"] += d_eps_rot.sum(axis=0)
    d_b_h2 = d_eps_rot @ p["den.rot_w"].T
    d_b_h2[b_pre2 <= 0] = 0.0
    grads["den.b_w2"] += b_h1.T @ d_b_h2
    grads["den.b_b2"] += d_b_h2.sum(axis=0)
    d_b_h1 = d_b_h2 @ p["den.b_w2"].T
    d_b_h1[b_pre1 <= 0] = 0.0
    grads["den.b_w1"] += in_b.T @ d_b_h1
    grads["den.b_b1"] += d_b_h1.sum(axis=0)

    return (d_a_h1 @ p["den.a_w1"].T)[:, in_b.shape[1]:]


# The training losses as six separate functions, one value and one gradient
# per term, each repeating its own checks: the form the library had before
# it returned (value, gradient) from one call.

def noise_l1_oracle(pred, target):
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    assert pred.shape == target.shape
    return float(np.mean(np.abs(pred - target)))


def noise_l1_grad_oracle(pred, target, weight=1.0):
    """(weight * sign) / count, in that order."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    assert pred.shape == target.shape
    return weight * np.sign(pred - target) / pred.size


def bce_oracle(p, y, clamp=1e-7):
    p = np.clip(np.asarray(p, dtype=float), clamp, 1.0 - clamp)
    y = np.asarray(y, dtype=float)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def bce_logit_grad_oracle(p, y, clamp=1e-7):
    """(p - y) / count strictly inside the clamp, 0 elsewhere."""
    p = np.asarray(p, dtype=float)
    inside = (p > clamp) & (p < 1.0 - clamp)
    return np.where(inside, p - np.asarray(y, dtype=float), 0.0) / p.size


def _contrastive_terms_oracle(f, t):
    sim = f @ f.T / t
    pos = np.einsum("ij,ij->i", f, f) / t
    m = sim.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(sim - m).sum(axis=1))
    return sim, pos, lse, m


def contrastive_oracle(features, temperature):
    f = np.asarray(features, dtype=float)
    _, pos, lse, _ = _contrastive_terms_oracle(f, temperature)
    return float(np.mean(lse - pos))


def contrastive_grad_oracle(features, temperature):
    """Anchor path plus positive path, summed in that order."""
    f = np.asarray(features, dtype=float)
    n, t = f.shape[0], temperature
    sim, _, _, m = _contrastive_terms_oracle(f, t)
    e = np.exp(sim - m)
    p = e / e.sum(axis=1, keepdims=True)
    d_anchor = (-f + p @ f + p.T @ f) / (n * t)
    d_positive = -f / (n * t)
    return d_anchor + d_positive
