"""Dataset construction, exact manual gradients and the Adam training loop.

Each demo is distilled into keypose transitions (observation at one keypose,
target action at the next, sub-goal from the goal assignment). Value maps
for the transitions are synthesized up front in train mode (a few jittered
variants per transition) together with a pool of randomly generated maps
that serve as contrastive negatives; per-iteration work is then pure linear
algebra.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..demos import Demo, GravkitError, SubGoal
from ..diffusion import add_noise
from ..gravmap import generate_gravmap
from ..keypose import KeyposeParams, distill_demo
from ..losses import (ContrastiveBatch, DEFAULT_LOSS_WEIGHTS, LossWeights, NonFiniteLoss, bce,
                      bce_logit_grad, contrastive, contrastive_grad, noise_l1, noise_l1_grad,
                      total_loss)
from .model import ToyPolicy
from .nets import denoiser_backward, denoiser_forward_batch, encoder_backward, encoder_forward, zeros_like_params
from .rollout import normalize_pos, proprio_vec, scene_feat_from_frame


class TrainingDiverged(GravkitError):
    def __init__(self, iteration, detail):
        super().__init__(f"training diverged at iteration {iteration}: {detail}")
        self.iteration = iteration


@dataclass
class TrainConfig:
    iters: int = 12000
    seed: int = 0
    lr: float = 1e-4
    weight_decay: float = 5e-4
    batch: int = 8
    weights: LossWeights = field(default_factory=LossWeights)
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    contrast_n: int = 8          # anchor map + (n-1) generated negatives
    temperature: float = 0.1
    map_variants: int = 2        # pre-jittered maps per transition
    pool_size: int = 32          # shared pool of generated negative maps
    feature_noise: float = 0.03  # std of conditioning jitter during training
    keypose: KeyposeParams = field(default_factory=KeyposeParams)

    def __post_init__(self):
        if self.iters <= 0 or self.batch <= 0 or self.lr <= 0:
            raise ValueError("iters, batch and lr must be positive")
        if self.contrast_n < 2 or self.pool_size < self.contrast_n - 1:
            raise ValueError("need contrast_n >= 2 and a large enough pool")


@dataclass
class Transition:
    maps: list                 # map_variants arrays of (num_points, 5)
    proprio: np.ndarray        # (8,)
    scene: np.ndarray          # (16,)
    x0_pos: np.ndarray         # (3,) normalized target position
    x0_rot: np.ndarray         # (6,) target rotation encoding
    open_target: int
    aux_pos: np.ndarray        # (3,) normalized assigned sub-goal position
    aux_open: int


@dataclass
class TrainingExample:
    """One batch element: a (possibly feature-noised) transition view with
    its sampled diffusion step and sampled ground-truth noise."""

    map_points: np.ndarray     # (num_points, 5)
    proprio: np.ndarray        # (8,)
    scene: np.ndarray          # (16,)
    x0_pos: np.ndarray
    x0_rot: np.ndarray
    open_target: int
    aux_pos: np.ndarray
    aux_open: int
    k: int
    eps: np.ndarray            # (9,) = 3 position + 6 rotation noise

    @classmethod
    def from_transition(cls, tr: Transition, variant: int, k: int, eps, rng=None,
                        feature_noise: float = 0.0):
        proprio, scene = tr.proprio, tr.scene
        if feature_noise > 0.0 and rng is not None:
            proprio = proprio + rng.normal(0.0, feature_noise, proprio.shape)
            scene = scene + rng.normal(0.0, feature_noise, scene.shape)
        return cls(map_points=tr.maps[variant], proprio=proprio, scene=scene,
                   x0_pos=tr.x0_pos, x0_rot=tr.x0_rot, open_target=tr.open_target,
                   aux_pos=tr.aux_pos, aux_open=tr.aux_open, k=k, eps=np.asarray(eps, float))


def build_transitions(demos, policy: ToyPolicy, config: TrainConfig) -> list[Transition]:
    """Distill demos into training transitions with pre-synthesized maps.

    Demos carry no scene geometry, so training maps use empty occupancy;
    obstacle bumps only appear in inference-time maps.
    """
    ws, gp = policy.workspace, policy.gravmap_params
    empty = np.zeros((gp.map_size,) * 3, dtype=bool)
    out = []
    for di, demo in enumerate(demos):
        keyposes, _, assignment = distill_demo(demo, config.keypose)
        sources = ([0] if keyposes[0] != 0 else []) + keyposes[:-1]
        targets = keyposes if keyposes[0] != 0 else keyposes[1:]
        prev = sources[0]
        for pi, (src, tgt) in enumerate(zip(sources, targets)):
            src_fr, tgt_fr = demo.frames[src], demo.frames[tgt]
            sub = assignment[tgt]
            maps = [
                generate_gravmap(sub, empty, current_open=src_fr.open, ws=ws, params=gp,
                                 mode="train", seed=[config.seed, di, pi, v]).points
                for v in range(config.map_variants)
            ]
            out.append(Transition(
                maps=maps,
                proprio=proprio_vec(demo.frames[prev], src_fr, ws),
                scene=scene_feat_from_frame(src_fr, ws),
                x0_pos=normalize_pos(tgt_fr.pose.pos, ws),
                x0_rot=tgt_fr.pose.rot6d.copy(),
                open_target=tgt_fr.open,
                aux_pos=normalize_pos(sub.g_pos, ws),
                aux_open=sub.g_open,
            ))
            prev = src
    return out


def build_negative_pool(policy: ToyPolicy, config: TrainConfig) -> list[np.ndarray]:
    """Random in-workspace sub-goals with random openness, inference mode."""
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
    return pool


def compute_gradients(examples, contrast_maps, policy: ToyPolicy,
                      weights: LossWeights = DEFAULT_LOSS_WEIGHTS,
                      temperature: float = 0.1):
    """Exact reverse-mode gradients of the full objective for one batch.

    The contrastive term compares the first example's map feature against
    the generated negatives; positives are re-encodings of the same maps, so
    their gradient path is added to the feature path.

    Returns (grads, loss, terms).
    """
    sched_pos, sched_rot = policy.schedules()
    enc, den = policy.encoder, policy.denoiser
    b = len(examples)

    maps = np.stack([ex.map_points for ex in examples] + list(contrast_maps))
    tokens, enc_cache = encoder_forward(maps, enc)
    feat_idx = np.array([0] + list(range(b, maps.shape[0])))
    features = tokens[feat_idx]

    k = np.array([ex.k for ex in examples])
    eps = np.stack([ex.eps for ex in examples])
    x0_pos = np.stack([ex.x0_pos for ex in examples])
    x0_rot = np.stack([ex.x0_rot for ex in examples])
    xk_pos = add_noise(x0_pos, k, eps[:, :3], sched_pos)
    xk_rot = add_noise(x0_rot, k, eps[:, 3:], sched_rot)
    pose = np.concatenate([xk_pos, xk_rot], axis=1)
    proprio = np.stack([ex.proprio for ex in examples])
    scene = np.stack([ex.scene for ex in examples])
    y_open = np.array([ex.open_target for ex in examples], dtype=float)[:, None]
    y_auxo = np.array([ex.aux_open for ex in examples], dtype=float)[:, None]
    aux_pos_t = np.stack([ex.aux_pos for ex in examples])

    eps_pos_hat, eps_rot_hat, open_p, aux_pos_hat, auxo_p, den_cache = denoiser_forward_batch(
        pose, k, proprio, scene, tokens[:b], den)

    eps_pos, eps_rot = eps[:, :3], eps[:, 3:]
    l_pos = noise_l1(eps_pos_hat, eps_pos)
    l_rot = noise_l1(eps_rot_hat, eps_rot)
    l_aux_pos = noise_l1(aux_pos_hat, aux_pos_t)
    l_open = bce(open_p, y_open)
    l_auxo = bce(auxo_p, y_auxo)

    cbatch = ContrastiveBatch(features=features, positives=features, temperature=temperature)
    l_con = contrastive(cbatch)

    loss = total_loss(l_open, l_pos, l_rot, l_aux_pos, l_auxo, l_con, weights)
    terms = {"open": l_open, "pos": l_pos, "rot": l_rot,
             "aux_pos": l_aux_pos, "aux_open": l_auxo, "con": l_con}

    grads = zeros_like_params(enc, den)
    d_eps_pos = noise_l1_grad(eps_pos_hat, eps_pos, weights.w_pos)
    d_eps_rot = noise_l1_grad(eps_rot_hat, eps_rot, weights.w_rot)
    d_aux_pos = noise_l1_grad(aux_pos_hat, aux_pos_t, weights.w_aux_pos)
    d_open_logit = bce_logit_grad(open_p, y_open)
    d_auxo_logit = bce_logit_grad(auxo_p, y_auxo)

    d_tokens = np.zeros_like(tokens)
    d_tokens[:b] = denoiser_backward(d_eps_pos, d_open_logit, d_aux_pos, d_auxo_logit,
                                     d_eps_rot, den_cache, den, grads)
    d_f, d_fp = contrastive_grad(cbatch)
    np.add.at(d_tokens, feat_idx, weights.w_con * (d_f + d_fp))
    encoder_backward(d_tokens, enc_cache, enc, grads)
    return grads, loss, terms


class Adam:
    """Classic Adam with L2 weight decay folded into the gradient."""

    def __init__(self, config: TrainConfig):
        self.lr = config.lr
        self.b1, self.b2 = config.adam_beta1, config.adam_beta2
        self.eps = config.adam_eps
        self.wd = config.weight_decay
        self.t = 0
        self.m: dict = {}
        self.v: dict = {}

    def step(self, params, grads):
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for name, arr in params:
            g = grads[name] + self.wd * arr
            m = self.m.setdefault(name, np.zeros_like(arr))
            v = self.v.setdefault(name, np.zeros_like(arr))
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            arr -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def train(config: TrainConfig, demos: list[Demo], policy: ToyPolicy | None = None):
    """Train a policy on distilled demos.

    Returns (policy, loss_curve). Deterministic in (config.seed, demos);
    parameters are f32-quantized at the end so checkpoints round-trip
    bit-exactly. Raises TrainingDiverged on a non-finite loss.
    """
    if policy is None:
        policy = ToyPolicy.init(seed=config.seed)
    transitions = build_transitions(demos, policy, config)
    if not transitions:
        raise GravkitError("no training transitions distilled from demos")
    pool = build_negative_pool(policy, config)

    rng = np.random.default_rng([config.seed, 1])
    opt = Adam(config)
    steps = policy.steps
    curve = np.empty(config.iters)
    params = list(policy.params())
    for it in range(config.iters):
        idx = rng.integers(len(transitions), size=config.batch)
        variants = rng.integers(config.map_variants, size=config.batch)
        ks = rng.integers(1, steps + 1, size=config.batch)
        eps = rng.standard_normal((config.batch, 9))
        neg = rng.integers(len(pool), size=config.contrast_n - 1)
        examples = [
            TrainingExample.from_transition(transitions[i], int(v), int(kk), e,
                                            rng=rng, feature_noise=config.feature_noise)
            for i, v, kk, e in zip(idx, variants, ks, eps)
        ]
        try:
            grads, loss, _ = compute_gradients(examples, [pool[j] for j in neg], policy,
                                               config.weights, config.temperature)
        except NonFiniteLoss as exc:
            raise TrainingDiverged(it, exc) from exc
        opt.step(params, grads)
        curve[it] = loss
    policy.quantize()
    policy.meta = {"iters": config.iters, "seed": config.seed,
                   "transitions": len(transitions), "final_loss": float(curve[-100:].mean())}
    return policy, curve
