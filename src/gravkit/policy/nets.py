"""Point-set encoder and dual-trunk denoiser with hand-written gradients.

The encoder is a small per-point MLP max-pooled over the sampled map points
and projected to a fixed token. The denoiser has two trunks: trunk A sees
the map token and feeds the position-noise, openness and auxiliary heads;
trunk B never sees the token and feeds the rotation-noise head, so rotation
predictions are independent of the map by construction.

All math is float64 numpy; forwards return caches that the corresponding
backward functions consume.
"""
from __future__ import annotations

import numpy as np

POINT_DIM = 5
ENC_H1 = 64
ENC_H2 = 128
TOKEN_DIM = 120

PROPRIO_DIM = 8      # two past (position, openness) snapshots
SCENE_DIM = 16       # current-frame observables
STEP_EMBED_DIM = 32
POSE_DIM = 9         # 3 position + 6 rotation
HIDDEN = 256

IN_A = POSE_DIM + PROPRIO_DIM + SCENE_DIM + STEP_EMBED_DIM + TOKEN_DIM
IN_B = POSE_DIM + PROPRIO_DIM + SCENE_DIM + STEP_EMBED_DIM


def step_embedding(steps, dim: int = STEP_EMBED_DIM) -> np.ndarray:
    """Sinusoidal embedding of the diffusion step: half sines, half cosines
    over a geometric frequency ladder."""
    steps = np.atleast_1d(np.asarray(steps, dtype=float))
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = steps[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _linear_init(rng, fan_in, fan_out, relu=True):
    scale = np.sqrt(2.0 / fan_in) if relu else np.sqrt(1.0 / fan_in)
    return rng.standard_normal((fan_in, fan_out)) * scale


class EncoderParams:
    """5 -> 64 -> 128 per-point MLP, channelwise max over points, 128 -> 120
    linear projection."""

    FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")

    def __init__(self, w1, b1, w2, b2, w3, b3):
        self.w1, self.b1 = w1, b1
        self.w2, self.b2 = w2, b2
        self.w3, self.b3 = w3, b3

    @classmethod
    def init(cls, rng):
        return cls(
            w1=_linear_init(rng, POINT_DIM, ENC_H1), b1=np.zeros(ENC_H1),
            w2=_linear_init(rng, ENC_H1, ENC_H2), b2=np.zeros(ENC_H2),
            w3=_linear_init(rng, ENC_H2, TOKEN_DIM, relu=False), b3=np.zeros(TOKEN_DIM),
        )


class DenoiserParams:
    """Trunk A (token-conditioned) with four heads, trunk B (no token) with
    the rotation head."""

    FIELDS = (
        "a_w1", "a_b1", "a_w2", "a_b2",
        "pos_w", "pos_b", "open_w", "open_b",
        "auxp_w", "auxp_b", "auxo_w", "auxo_b",
        "b_w1", "b_b1", "b_w2", "b_b2", "rot_w", "rot_b",
    )

    def __init__(self, **kw):
        for name in self.FIELDS:
            setattr(self, name, kw[name])

    @classmethod
    def init(cls, rng):
        return cls(
            a_w1=_linear_init(rng, IN_A, HIDDEN), a_b1=np.zeros(HIDDEN),
            a_w2=_linear_init(rng, HIDDEN, HIDDEN), a_b2=np.zeros(HIDDEN),
            pos_w=_linear_init(rng, HIDDEN, 3, relu=False), pos_b=np.zeros(3),
            open_w=_linear_init(rng, HIDDEN, 1, relu=False), open_b=np.zeros(1),
            auxp_w=_linear_init(rng, HIDDEN, 3, relu=False), auxp_b=np.zeros(3),
            auxo_w=_linear_init(rng, HIDDEN, 1, relu=False), auxo_b=np.zeros(1),
            b_w1=_linear_init(rng, IN_B, HIDDEN), b_b1=np.zeros(HIDDEN),
            b_w2=_linear_init(rng, HIDDEN, HIDDEN), b_b2=np.zeros(HIDDEN),
            rot_w=_linear_init(rng, HIDDEN, 6, relu=False), rot_b=np.zeros(6),
        )


def param_items(enc: EncoderParams, den: DenoiserParams):
    """Stable (name, array) listing across both parameter sets."""
    for f in EncoderParams.FIELDS:
        yield "enc." + f, getattr(enc, f)
    for f in DenoiserParams.FIELDS:
        yield "den." + f, getattr(den, f)


def zeros_like_params(enc: EncoderParams, den: DenoiserParams) -> dict:
    return {name: np.zeros_like(arr) for name, arr in param_items(enc, den)}


def sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def encoder_forward(maps: np.ndarray, enc: EncoderParams):
    """maps: (M, N, 5) -> tokens (M, TOKEN_DIM) plus a backward cache.

    The cache keeps the post-ReLU activations h1 (M*N, 64) and h2
    (M*N, 128); the backward pass takes its ReLU masks from them, since an
    activation is positive exactly when its pre-activation was. Bias and
    ReLU run in place on the matmul outputs, so each layer allocates one
    (M*N, width) array.
    """
    m, n, d = maps.shape
    x = maps.reshape(m * n, d)
    h1 = x @ enc.w1
    h1 += enc.b1
    np.maximum(h1, 0.0, out=h1)
    h2 = h1 @ enc.w2
    h2 += enc.b2
    np.maximum(h2, 0.0, out=h2)
    per_map = h2.reshape(m, n, ENC_H2)
    pooled = per_map.max(axis=1)                  # (M, 128)
    # first point attaining each channel's maximum, as argmax would pick it
    # (ties: dead channels at 0, duplicate points), without argmax's slow
    # strided reduction over the point axis
    arg = (per_map == pooled[:, None, :]).argmax(axis=1)
    tokens = pooled @ enc.w3 + enc.b3
    cache = {"x": x, "h1": h1, "h2": h2, "arg": arg,
             "pooled": pooled, "shape": (m, n)}
    return tokens, cache


def encoder_backward(d_tokens: np.ndarray, cache, enc: EncoderParams, grads: dict):
    m, n = cache["shape"]
    grads["enc.w3"] += cache["pooled"].T @ d_tokens
    grads["enc.b3"] += d_tokens.sum(axis=0)
    d_pooled = d_tokens @ enc.w3.T                # (M, 128)
    # the max-pool passes gradient only to each channel's winning point, so
    # backprop touches at most M * 128 rows instead of all M * N
    flat_rows = (cache["arg"] + (np.arange(m) * n)[:, None]).ravel()
    rows, inverse = np.unique(flat_rows, return_inverse=True)
    d_pre2 = np.zeros((rows.size, ENC_H2))
    cols = np.tile(np.arange(ENC_H2), m)
    np.add.at(d_pre2, (inverse, cols), d_pooled.ravel())
    d_pre2[cache["h2"][rows] <= 0] = 0.0    # h2 > 0 iff pre2 > 0
    h1_rows = cache["h1"][rows]
    grads["enc.w2"] += h1_rows.T @ d_pre2
    grads["enc.b2"] += d_pre2.sum(axis=0)
    d_pre1 = d_pre2 @ enc.w2.T
    d_pre1[h1_rows <= 0] = 0.0    # h1 > 0 iff its pre-activation was
    grads["enc.w1"] += cache["x"][rows].T @ d_pre1
    grads["enc.b1"] += d_pre1.sum(axis=0)


def encode_gravmap(points: np.ndarray, enc: EncoderParams) -> np.ndarray:
    """Token for one sampled map, rows of (x, y, z, cost, grip)."""
    pts = np.asarray(points, dtype=float)
    tokens, _ = encoder_forward(pts[None, :, :], enc)
    return tokens[0]


# ---------------------------------------------------------------------------
# denoiser
# ---------------------------------------------------------------------------

def denoiser_forward_batch(pose: np.ndarray, steps: np.ndarray, proprio: np.ndarray,
                           scene: np.ndarray, tokens: np.ndarray, den: DenoiserParams):
    """Batched forward pass.

    pose (B, 9), steps (B,), proprio (B, 8), scene (B, 16), tokens (B, 120).
    Returns (eps_pos, eps_rot, open_p, aux_pos, aux_open_p, cache); the
    openness outputs are probabilities.
    """
    emb = step_embedding(steps)
    in_b = np.concatenate([pose, proprio, scene, emb], axis=1)
    in_a = np.concatenate([in_b, tokens], axis=1)

    a_pre1 = in_a @ den.a_w1 + den.a_b1
    a_h1 = np.maximum(a_pre1, 0.0)
    a_pre2 = a_h1 @ den.a_w2 + den.a_b2
    a_h2 = np.maximum(a_pre2, 0.0)
    eps_pos = a_h2 @ den.pos_w + den.pos_b
    open_logit = a_h2 @ den.open_w + den.open_b
    aux_pos = a_h2 @ den.auxp_w + den.auxp_b
    auxo_logit = a_h2 @ den.auxo_w + den.auxo_b

    b_pre1 = in_b @ den.b_w1 + den.b_b1
    b_h1 = np.maximum(b_pre1, 0.0)
    b_pre2 = b_h1 @ den.b_w2 + den.b_b2
    b_h2 = np.maximum(b_pre2, 0.0)
    eps_rot = b_h2 @ den.rot_w + den.rot_b

    cache = {"in_a": in_a, "in_b": in_b, "a_pre1": a_pre1, "a_h1": a_h1,
             "a_pre2": a_pre2, "a_h2": a_h2, "b_pre1": b_pre1, "b_h1": b_h1,
             "b_pre2": b_pre2, "b_h2": b_h2}
    return eps_pos, eps_rot, sigmoid(open_logit), aux_pos, sigmoid(auxo_logit), cache


def denoiser_backward(d_eps_pos, d_open_logit, d_aux_pos, d_auxo_logit, d_eps_rot,
                      cache, den: DenoiserParams, grads: dict) -> np.ndarray:
    """Backward pass from head gradients (openness grads are w.r.t. logits).
    Returns the gradient w.r.t. the tokens, (B, TOKEN_DIM)."""
    a_h2, b_h2 = cache["a_h2"], cache["b_h2"]
    grads["den.pos_w"] += a_h2.T @ d_eps_pos
    grads["den.pos_b"] += d_eps_pos.sum(axis=0)
    grads["den.open_w"] += a_h2.T @ d_open_logit
    grads["den.open_b"] += d_open_logit.sum(axis=0)
    grads["den.auxp_w"] += a_h2.T @ d_aux_pos
    grads["den.auxp_b"] += d_aux_pos.sum(axis=0)
    grads["den.auxo_w"] += a_h2.T @ d_auxo_logit
    grads["den.auxo_b"] += d_auxo_logit.sum(axis=0)

    d_a_h2 = (d_eps_pos @ den.pos_w.T + d_open_logit @ den.open_w.T
              + d_aux_pos @ den.auxp_w.T + d_auxo_logit @ den.auxo_w.T)
    d_a_h2[cache["a_pre2"] <= 0] = 0.0
    grads["den.a_w2"] += cache["a_h1"].T @ d_a_h2
    grads["den.a_b2"] += d_a_h2.sum(axis=0)
    d_a_h1 = d_a_h2 @ den.a_w2.T
    d_a_h1[cache["a_pre1"] <= 0] = 0.0
    grads["den.a_w1"] += cache["in_a"].T @ d_a_h1
    grads["den.a_b1"] += d_a_h1.sum(axis=0)

    grads["den.rot_w"] += b_h2.T @ d_eps_rot
    grads["den.rot_b"] += d_eps_rot.sum(axis=0)
    d_b_h2 = d_eps_rot @ den.rot_w.T
    d_b_h2[cache["b_pre2"] <= 0] = 0.0
    grads["den.b_w2"] += cache["b_h1"].T @ d_b_h2
    grads["den.b_b2"] += d_b_h2.sum(axis=0)
    d_b_h1 = d_b_h2 @ den.b_w2.T
    d_b_h1[cache["b_pre1"] <= 0] = 0.0
    grads["den.b_w1"] += cache["in_b"].T @ d_b_h1
    grads["den.b_b1"] += d_b_h1.sum(axis=0)

    d_in_a = d_a_h1 @ den.a_w1.T
    return d_in_a[:, IN_B:]

