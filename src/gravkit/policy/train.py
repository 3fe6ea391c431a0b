"""Dataset construction, exact manual gradients and the Adam training loop.

Each demo is distilled into keypose transitions (observation at one keypose,
target action at the next, sub-goal from the goal assignment). Value maps
for the transitions are synthesized up front in train mode (a few jittered
variants per transition) together with a pool of randomly generated maps
that serve as contrastive negatives; per-iteration work is then pure linear
algebra.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..demos import Demo, GravkitError, SubGoal
from ..diffusion import add_noise
from ..gravmap import generate_gravmap
from ..keypose import distill_demo
from ..losses import (W_AUX_POS, W_CON, W_POS, W_ROT, NonFiniteLoss, bce, contrastive, noise_l1,
                      total_loss)
from .model import ToyPolicy
from .nets import (PARAM_COUNT, PROPRIO_DIM, SCENE_DIM, denoiser_backward, denoiser_forward_batch,
                   encoder_backward, encoder_forward, param_views)
from .rollout import normalize_pos, proprio_vec, scene_feat_from_frame


WEIGHT_DECAY = 5e-4       # L2 decay folded into each Adam gradient
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_CHUNK = 16384        # entries per Adam chunk: its two scratch buffers stay in cache
CONTRAST_N = 8            # anchor map + (n-1) generated negatives
TEMPERATURE = 0.1         # contrastive softmax temperature
MAP_VARIANTS = 2          # pre-jittered maps per transition
FEATURE_NOISE = 0.03      # std of conditioning jitter during training


class TrainingDiverged(GravkitError):
    def __init__(self, iteration, detail):
        super().__init__(f"training diverged at iteration {iteration}: {detail}")
        self.iteration = iteration


@dataclass
class TrainConfig:
    iters: int = 12000
    seed: int = 0
    lr: float = 1e-4
    batch: int = 8
    pool_size: int = 32          # shared pool of generated negative maps

    def __post_init__(self):
        for name in ("iters", "batch", "lr"):
            if not getattr(self, name) > 0:   # NaN fails too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.pool_size < CONTRAST_N - 1:
            raise ValueError(f"pool_size must be at least {CONTRAST_N - 1}, "
                             "one map per contrastive negative")


def build_transitions(demos, policy: ToyPolicy, config: TrainConfig):
    """Distill demos into training transitions with pre-synthesized maps.

    Returns stacked arrays with one row per transition: maps
    (T, MAP_VARIANTS, num_points, 5), proprio (T, 8), scene (T, 16),
    targets (T, 10) = normalized target position, target rotation encoding,
    target openness, and aux (T, 4) = normalized assigned sub-goal position,
    sub-goal openness.

    Demos carry no scene geometry, so training maps use empty occupancy;
    obstacle bumps only appear in inference-time maps.
    """
    ws, gp = policy.workspace, policy.gravmap_params
    empty = np.zeros((gp.map_size,) * 3, dtype=bool)
    maps, proprio, scene, targets, aux = [], [], [], [], []
    for di, demo in enumerate(demos):
        keyposes, _, assignment = distill_demo(demo)
        src_keys = ([0] if keyposes[0] != 0 else []) + keyposes[:-1]
        tgt_keys = keyposes if keyposes[0] != 0 else keyposes[1:]
        prev = src_keys[0]
        for pi, (src, tgt) in enumerate(zip(src_keys, tgt_keys)):
            src_fr, tgt_fr = demo.frames[src], demo.frames[tgt]
            sub = assignment[tgt]
            maps.append([
                generate_gravmap(sub, empty, current_open=src_fr.open, ws=ws, params=gp,
                                 mode="train", seed=[config.seed, di, pi, v]).points
                for v in range(MAP_VARIANTS)
            ])
            proprio.append(proprio_vec(demo.frames[prev], src_fr, ws))
            scene.append(scene_feat_from_frame(src_fr, ws))
            targets.append(np.concatenate([normalize_pos(tgt_fr.pose.pos, ws),
                                           tgt_fr.pose.rot6d, [tgt_fr.open]]))
            aux.append(np.concatenate([normalize_pos(sub.g_pos, ws), [sub.g_open]]))
            prev = src
    if not maps:
        raise GravkitError("no training transitions distilled from demos")
    return tuple(np.array(a, dtype=float) for a in (maps, proprio, scene, targets, aux))


def build_negative_pool(policy: ToyPolicy, config: TrainConfig) -> np.ndarray:
    """(pool_size, num_points, 5) maps of random in-workspace sub-goals with
    random openness, inference mode."""
    ws, gp = policy.workspace, policy.gravmap_params
    empty = np.zeros((gp.map_size,) * 3, dtype=bool)
    rng = np.random.default_rng([config.seed, 909090])
    lo = np.asarray(ws.min) + 0.05
    hi = np.asarray(ws.max) - 0.05
    pool = []
    for _ in range(config.pool_size):
        sub = SubGoal(g_pos=rng.uniform(lo, hi), g_open=int(rng.integers(2)),
                      g_rot=np.array([1.0, 0, 0, 0, 1.0, 0]))
        pool.append(generate_gravmap(sub, empty, current_open=int(rng.integers(2)),
                                     ws=ws, params=gp, mode="infer").points)
    return np.array(pool)


def compute_gradients(maps, proprio, scene, targets, aux, k, eps, negatives, policy: ToyPolicy):
    """Exact reverse-mode gradients of the full objective for one batch.

    The batch is B rows of `build_transitions` arrays, with one map variant
    per row (maps (B, num_points, 5)), diffusion steps k (B,) and ground-truth
    noise eps (B, 9), 3 position then 6 rotation channels. The contrastive
    term compares the first row's map feature against the generated
    `negatives` (n, num_points, 5), each feature being its own positive.

    Returns (grads, loss, terms); grads is one flat buffer laid out like
    `policy.flat` (`nets.param_views` names its parts).
    """
    sched_pos, sched_rot = policy.schedules()
    params = policy.params
    b = len(maps)

    tokens, enc_cache = encoder_forward(np.concatenate([maps, negatives]), params)
    feat_idx = np.array([0] + list(range(b, tokens.shape[0])))
    features = tokens[feat_idx]

    xk_pos = add_noise(targets[:, :3], k, eps[:, :3], sched_pos)
    xk_rot = add_noise(targets[:, 3:9], k, eps[:, 3:], sched_rot)
    pose = np.concatenate([xk_pos, xk_rot], axis=1)
    y_open, aux_pos_t, y_auxo = targets[:, 9:], aux[:, :3], aux[:, 3:]

    eps_pos_hat, eps_rot_hat, open_p, aux_pos_hat, auxo_p, den_cache = denoiser_forward_batch(
        pose, k, proprio, scene, tokens[:b], params)

    l_pos, d_eps_pos = noise_l1(eps_pos_hat, eps[:, :3], W_POS)
    l_rot, d_eps_rot = noise_l1(eps_rot_hat, eps[:, 3:], W_ROT)
    l_aux_pos, d_aux_pos = noise_l1(aux_pos_hat, aux_pos_t, W_AUX_POS)
    l_open, d_open_logit = bce(open_p, y_open)
    l_auxo, d_auxo_logit = bce(auxo_p, y_auxo)
    l_con, d_features = contrastive(features, TEMPERATURE)

    loss = total_loss(l_open, l_pos, l_rot, l_aux_pos, l_auxo, l_con)
    terms = {"open": l_open, "pos": l_pos, "rot": l_rot,
             "aux_pos": l_aux_pos, "aux_open": l_auxo, "con": l_con}

    grads = np.empty(PARAM_COUNT)     # every entry is written once by nets._write_grads
    views = param_views(grads)
    d_tokens = np.zeros_like(tokens)
    d_tokens[:b] = denoiser_backward(d_eps_pos, d_open_logit, d_aux_pos, d_auxo_logit,
                                     d_eps_rot, den_cache, params, views)
    np.add.at(d_tokens, feat_idx, W_CON * d_features)
    encoder_backward(d_tokens, enc_cache, params, views)
    return grads, loss, terms


class Adam:
    """Classic Adam with L2 weight decay folded into the gradient, over one
    flat parameter buffer and two flat moment buffers."""

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m = self.v = None

    def step(self, params: np.ndarray, grads: np.ndarray):
        """One update of the flat `params`, in place. The arithmetic is the
        textbook form's, operation for operation, run over ADAM_CHUNK-entry
        slices through two chunk-sized scratch buffers."""
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        g_buf, tmp_buf = np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK)
        for lo in range(0, params.size, ADAM_CHUNK):
            chunk = slice(lo, lo + ADAM_CHUNK)
            arr, grad, m, v = params[chunk], grads[chunk], self.m[chunk], self.v[chunk]
            g, tmp = g_buf[:arr.size], tmp_buf[:arr.size]
            np.multiply(arr, WEIGHT_DECAY, out=g)   # g = grad + WEIGHT_DECAY * arr
            g += grad
            np.multiply(g, 1 - ADAM_BETA1, out=tmp)
            m *= ADAM_BETA1
            m += tmp
            np.multiply(g, 1 - ADAM_BETA2, out=tmp)
            tmp *= g
            v *= ADAM_BETA2
            v += tmp
            # arr -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=tmp)
            tmp *= self.lr
            np.divide(v, c2, out=g)
            np.sqrt(g, out=g)
            g += ADAM_EPS
            tmp /= g
            arr -= tmp


def train(config: TrainConfig, demos: list[Demo], policy: ToyPolicy | None = None):
    """Train a policy on distilled demos.

    Returns (policy, loss_curve). Deterministic in (config.seed, demos);
    parameters are f32-quantized at the end so checkpoints round-trip
    bit-exactly. Raises TrainingDiverged on a non-finite loss or a
    floating-point overflow or invalid operation in an iteration.
    """
    if policy is None:
        policy = ToyPolicy.init(seed=config.seed)
    maps, proprio, scene, targets, aux = build_transitions(demos, policy, config)
    pool = build_negative_pool(policy, config)

    rng = np.random.default_rng([config.seed, 1])
    opt = Adam(config.lr)
    steps = policy.steps
    curve = np.empty(config.iters)
    for it in range(config.iters):
        idx = rng.integers(len(proprio), size=config.batch)
        variants = rng.integers(MAP_VARIANTS, size=config.batch)
        ks = rng.integers(1, steps + 1, size=config.batch)
        eps = rng.standard_normal((config.batch, 9))
        neg = rng.integers(len(pool), size=CONTRAST_N - 1)
        noise = rng.normal(0.0, FEATURE_NOISE, (config.batch, PROPRIO_DIM + SCENE_DIM))
        p_rows = proprio[idx] + noise[:, :PROPRIO_DIM]
        s_rows = scene[idx] + noise[:, PROPRIO_DIM:]
        try:
            with np.errstate(over="raise", invalid="raise"):
                grads, loss, _ = compute_gradients(maps[idx, variants], p_rows, s_rows,
                                                   targets[idx], aux[idx], ks, eps, pool[neg],
                                                   policy)
                opt.step(policy.flat, grads)
        except (NonFiniteLoss, FloatingPointError) as exc:
            raise TrainingDiverged(it, exc) from exc
        curve[it] = loss
    policy.quantize()
    policy.meta = {"iters": config.iters, "seed": config.seed,
                   "transitions": len(proprio), "final_loss": float(curve[-100:].mean())}
    return policy, curve
