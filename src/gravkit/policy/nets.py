"""Point-set encoder and dual-trunk denoiser with hand-written gradients.

The encoder is a small per-point MLP max-pooled over the sampled map points
and projected to a fixed token. The denoiser has two trunks: trunk A sees
the map token and feeds the position-noise, openness and auxiliary heads;
trunk B never sees the token and feeds the rotation-noise head, so rotation
predictions are independent of the map by construction.

This module alone knows the parameter layout. `LAYERS` fixes the names,
shapes and order of one flat buffer, and `param_views` gives the
`{name: view}` dict of it that the networks index. The encoder's point MLP
and both trunks are the same two-layer ReLU MLP. The trunks run it
row-major, one row per sample (`_mlp_forward`). The encoder runs it
channel-major, one column per point, so each channel's max-pool reads one
contiguous line; its cache keeps the winning points as rows, so one
backward (`_mlp_backward`) serves all three, and every weight gradient is
written in one place. The encoder writes only into an `EncoderWorkspace`,
which training allocates once per run. All math is float64 numpy; forwards
return caches that the corresponding backward functions consume.
"""
from __future__ import annotations

import numpy as np

from ..diffusion import DEFAULT_STEPS

POINT_DIM = 5
ENC_H1 = 64
ENC_H2 = 128
TOKEN_DIM = 120
ENC_BLOCK_ROWS = 1024   # rows per encoder block: one map at the default 1024 points

PROPRIO_DIM = 8      # two past (position, openness) snapshots
SCENE_DIM = 16       # current-frame observables
STEP_EMBED_DIM = 32
POSE_DIM = 9         # 3 position + 6 rotation
HIDDEN = 256

IN_A = POSE_DIM + PROPRIO_DIM + SCENE_DIM + STEP_EMBED_DIM + TOKEN_DIM
IN_B = POSE_DIM + PROPRIO_DIM + SCENE_DIM + STEP_EMBED_DIM

# (weight, bias, fan_in, fan_out, feeds_relu). The order is the checkpoint's
# layer order and the order init draws the weights, so changing it changes
# every seeded model.
LAYERS = (
    ENC1 := ("enc.w1", "enc.b1", POINT_DIM, ENC_H1, True),
    ENC2 := ("enc.w2", "enc.b2", ENC_H1, ENC_H2, True),
    ENC3 := ("enc.w3", "enc.b3", ENC_H2, TOKEN_DIM, False),
    A1 := ("den.a_w1", "den.a_b1", IN_A, HIDDEN, True),
    A2 := ("den.a_w2", "den.a_b2", HIDDEN, HIDDEN, True),
    POS := ("den.pos_w", "den.pos_b", HIDDEN, 3, False),
    OPEN := ("den.open_w", "den.open_b", HIDDEN, 1, False),
    AUXP := ("den.auxp_w", "den.auxp_b", HIDDEN, 3, False),
    AUXO := ("den.auxo_w", "den.auxo_b", HIDDEN, 1, False),
    B1 := ("den.b_w1", "den.b_b1", IN_B, HIDDEN, True),
    B2 := ("den.b_w2", "den.b_b2", HIDDEN, HIDDEN, True),
    ROT := ("den.rot_w", "den.rot_b", HIDDEN, 6, False),
)

# parameter name -> shape, in LAYERS (flat buffer and checkpoint) order
PARAM_SHAPES = {name: shape for w, b, fan_in, fan_out, _ in LAYERS
                for name, shape in ((w, (fan_in, fan_out)), (b, (fan_out,)))}
_PARAM_ENDS = np.cumsum([np.prod(shape) for shape in PARAM_SHAPES.values()])
PARAM_COUNT = int(_PARAM_ENDS[-1])


def param_views(flat: np.ndarray) -> dict:
    """{name: view} of a flat `PARAM_COUNT`-entry buffer (parameters,
    gradients or any per-parameter array), in `PARAM_SHAPES` order."""
    parts = np.split(flat, _PARAM_ENDS[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(PARAM_SHAPES.items(), parts)}


def step_embedding(steps, dim: int = STEP_EMBED_DIM) -> np.ndarray:
    """Sinusoidal embedding of the diffusion step: half sines, half cosines
    over a geometric frequency ladder."""
    steps = np.atleast_1d(np.asarray(steps, dtype=float))
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = steps[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


STEP_EMBEDDINGS = step_embedding(np.arange(1, DEFAULT_STEPS + 1))   # row k-1 embeds step k


def sigmoid(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both from one
    e^-|x|, which never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# shared layers
# ---------------------------------------------------------------------------

def _dense(x, params, layer):
    """x @ w + b, then ReLU if the layer feeds one. Bias and ReLU run in
    place on the matmul output, so a layer allocates one array."""
    w, b, _, _, feeds_relu = layer
    h = x @ params[w]
    h += params[b]
    if feeds_relu:
        np.maximum(h, 0.0, out=h)
    return h


def _mlp_forward(x, params, layer1, layer2):
    """Two ReLU layers; returns both post-ReLU activations."""
    h1 = _dense(x, params, layer1)
    return h1, _dense(h1, params, layer2)


def _write_grads(grads, layer, x, d_out):
    """Writes the weight and bias gradients of one layer with input x into
    their arrays in `grads`."""
    w, b = layer[:2]
    np.matmul(x.T, d_out, out=grads[w])
    d_out.sum(axis=0, out=grads[b])


def _mlp_backward(d_h2, x, h1, h2, params, layer1, layer2, grads):
    """Backward through `_mlp_forward` from d loss / d h2 (masked in place).
    The ReLU masks come from the post-ReLU activations: h > 0 exactly when
    its pre-activation was. Returns d loss / d (layer-1 pre-activation)."""
    d_h2[h2 <= 0] = 0.0
    _write_grads(grads, layer2, h1, d_h2)
    d_h1 = d_h2 @ params[layer2[0]].T
    d_h1[h1 <= 0] = 0.0
    _write_grads(grads, layer1, x, d_h1)
    return d_h1


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def _encoder_blocks(m: int, n: int):
    """(first map, end map) of each encoder block: whole maps, about
    ENC_BLOCK_ROWS points each, so a block's activations stay in cache.

    A block runs channel-major, one column per point, and its products must
    be the transposes of the row-major products `x @ w`, byte for byte:
    - A one-column product takes BLAS's gemv path, whose bits differ from the
      same column of a larger product, so a one-point tail joins the block
      before it. Only a one-point input runs as one column; its row-major
      product is a gemv too, and the two agree.
    - Layer 2's `W2ᵀ @ h1` matches `h1ᵀ @ W2` only when h1 has a multiple of
      8 columns (OpenBLAS 0.3.31 differs at 145, 290 or 1023 columns, say),
      so layer 2 runs on `_padded_cols` columns. Layer 1's `W1ᵀ @ xᵀ` matches
      at any count. The padding columns hold stale finite values, and no
      real column reads them.
    """
    per = max(1, ENC_BLOCK_ROWS // n)
    starts = list(range(0, m, per))
    if len(starts) > 1 and (m - starts[-1]) * n == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [m]))


def _padded_cols(k: int) -> int:
    """k rounded up to a multiple of 8, except a lone column (a gemv)."""
    return k if k == 1 else -(-k // 8) * 8


class EncoderWorkspace:
    """Every array `encoder_forward` writes for (m, n, 5) maps: one block's
    channel-major activations, the max-pool's winners and pooled values, and
    the winning rows the backward reads. A forward's cache is views of these
    arrays, valid until the next forward on the same workspace."""

    def __init__(self, m: int, n: int):
        self.shape = (m, n)
        self.blocks = _encoder_blocks(m, n)
        cols = max(_padded_cols((hi - lo) * n) for lo, hi in self.blocks)
        # zeros: layer 2 reads padding columns that layer 1 never writes
        self.h1 = np.zeros(ENC_H1 * cols)
        self.h2 = np.empty(ENC_H2 * cols)
        self.block_arg = np.empty(ENC_H2 * max(hi - lo for lo, hi in self.blocks), dtype=np.intp)
        self.arg = np.empty((m, ENC_H2), dtype=np.intp)
        self.pooled = np.empty((m, ENC_H2))
        # a map has at most one winning row per channel
        self.winners = {name: np.empty((m * ENC_H2, width))
                        for name, width in (("x", POINT_DIM), ("h1", ENC_H1), ("h2", ENC_H2))}
        self.inverse = np.empty(m * ENC_H2, dtype=np.intp)


def encoder_forward(maps: np.ndarray, params: dict, workspace: EncoderWorkspace | None = None):
    """maps: (M, N, 5) -> tokens (M, TOKEN_DIM) plus a backward cache.

    5 -> 64 -> 128 per-point MLP, channelwise max over points, 128 -> 120
    linear projection. The point MLP and the max-pool run block by block
    (`_encoder_blocks`) and channel-major: a block's activations are
    (channels, points), so each channel's max-pool `argmax` runs along a
    contiguous line. The cache keeps only the winning rows of x, h1 and h2,
    in ascending row order and row-major, since the backward reads no other
    row. Every array the forward writes, cache included, lives in
    `workspace`, a new one when none is given.
    """
    m, n, d = maps.shape
    ws = EncoderWorkspace(m, n) if workspace is None else workspace
    if ws.shape != (m, n):
        raise ValueError(f"encoder workspace holds {ws.shape} maps, got {(m, n)}")
    x = maps.reshape(m * n, d)
    w1, w2 = params["enc.w1"].T, params["enc.w2"].T
    b1, b2 = params["enc.b1"][:, None], params["enc.b2"][:, None]
    kept = 0
    for lo, hi in ws.blocks:
        k = (hi - lo) * n
        cols = _padded_cols(k)
        xb = x[lo * n:hi * n]
        h1 = ws.h1[:ENC_H1 * cols].reshape(ENC_H1, cols)
        h2 = ws.h2[:ENC_H2 * cols].reshape(ENC_H2, cols)
        h1k, h2k = h1[:, :k], h2[:, :k]
        np.matmul(w1, xb.T, out=h1k)
        h1k += b1
        np.maximum(h1k, 0.0, out=h1k)
        np.matmul(w2, h1, out=h2)
        h2k += b2
        # Layer 2's ReLU runs only on the winning rows. A channel whose
        # pre-activations are all <= 0 is 0 on every point after the ReLU, so
        # its winner is point 0, the first of the tied maxima.
        per_map = h2k.reshape(ENC_H2, hi - lo, n)
        arg = ws.block_arg[:ENC_H2 * (hi - lo)].reshape(ENC_H2, hi - lo)
        # argmax takes the first point attaining each channel's maximum (ties:
        # duplicate points)
        per_map.argmax(axis=2, out=arg)
        best = np.take_along_axis(per_map, arg[:, :, None], axis=2)[:, :, 0]
        arg[best <= 0] = 0
        ws.arg[lo:hi] = arg.T
        rows, blk_inv = np.unique(ws.arg[lo:hi] + (np.arange(hi - lo) * n)[:, None],
                                  return_inverse=True)
        end = kept + rows.size
        ws.winners["x"][kept:end] = xb[rows]
        ws.winners["h1"][kept:end] = h1k.T[rows]
        h2_rows = np.maximum(h2k.T[rows], 0.0, out=ws.winners["h2"][kept:end])
        ws.pooled[lo:hi] = h2_rows[blk_inv.reshape(hi - lo, ENC_H2), np.arange(ENC_H2)]
        ws.inverse[lo * ENC_H2:hi * ENC_H2] = blk_inv.ravel() + kept
        kept = end
    tokens = _dense(ws.pooled, params, ENC3)
    cache = {name: winners[:kept] for name, winners in ws.winners.items()}
    cache.update(inverse=ws.inverse, arg=ws.arg, pooled=ws.pooled)
    return tokens, cache


def encoder_backward(d_tokens: np.ndarray, cache, params: dict, grads: dict):
    """The max-pool passes gradient only to each channel's winning row, so
    backprop touches the cached winning rows, at most M * 128, not all M * N."""
    _write_grads(grads, ENC3, cache["pooled"], d_tokens)
    d_pooled = d_tokens @ params["enc.w3"].T      # (M, 128)
    h2 = cache["h2"]
    d_h2 = np.zeros(h2.shape)
    cols = np.tile(np.arange(ENC_H2), d_tokens.shape[0])
    np.add.at(d_h2, (cache["inverse"], cols), d_pooled.ravel())
    _mlp_backward(d_h2, cache["x"], cache["h1"], h2, params, ENC1, ENC2, grads)


def encode_gravmap(points: np.ndarray, params: dict) -> np.ndarray:
    """Token for one sampled map, rows of (x, y, z, cost, grip)."""
    pts = np.asarray(points, dtype=float)
    tokens, _ = encoder_forward(pts[None, :, :], params)
    return tokens[0]


# ---------------------------------------------------------------------------
# denoiser
# ---------------------------------------------------------------------------

def _input_rows(pose, proprio, scene, emb, tokens) -> np.ndarray:
    """(B, IN_A) denoiser input rows; trunk B reads the first IN_B columns."""
    return np.concatenate([pose, proprio, scene, emb, tokens], axis=1)


def denoiser_forward(in_a: np.ndarray, params: dict):
    """Both trunks and the pos, rot and open heads on assembled input rows.

    in_a (B, IN_A) from `_input_rows`. Returns eps (B, 9) (3 position then
    6 rotation channels), the open probability (B, 1) and the backward
    cache. The auxiliary heads are left to `denoiser_forward_batch`.
    """
    a_h1, a_h2 = _mlp_forward(in_a, params, A1, A2)
    b_h1, b_h2 = _mlp_forward(in_a[:, :IN_B], params, B1, B2)
    eps = np.concatenate([_dense(a_h2, params, POS), _dense(b_h2, params, ROT)], axis=1)
    cache = {"in_a": in_a, "a_h1": a_h1, "a_h2": a_h2, "b_h1": b_h1, "b_h2": b_h2}
    return eps, sigmoid(_dense(a_h2, params, OPEN)), cache


def denoiser_forward_batch(pose: np.ndarray, steps: np.ndarray, proprio: np.ndarray,
                           scene: np.ndarray, tokens: np.ndarray, params: dict):
    """Training forward pass: `denoiser_forward` plus the auxiliary heads.

    pose (B, 9), steps (B,) integers in 1..K, proprio (B, 8), scene (B, 16),
    tokens (B, 120); each row's step embedding is row k-1 of `STEP_EMBEDDINGS`.
    Returns (eps_pos, eps_rot, open_p, aux_pos, aux_open_p, cache); the
    openness outputs are probabilities.
    """
    in_a = _input_rows(pose, proprio, scene, STEP_EMBEDDINGS[steps - 1], tokens)
    eps, open_p, cache = denoiser_forward(in_a, params)
    a_h2 = cache["a_h2"]
    return (eps[:, :3], eps[:, 3:], open_p, _dense(a_h2, params, AUXP),
            sigmoid(_dense(a_h2, params, AUXO)), cache)


def chain_denoiser(params: dict, proprio, scene, token):
    """The denoiser(x, k) -> (eps (9,), open probability) that
    `diffusion.sample` calls for one reverse chain: `denoiser_forward` at
    B = 1 on one input row, filled once with proprio (8,), scene (16,) and
    token (TOKEN_DIM,). Each step writes only the pose and row k-1 of
    `STEP_EMBEDDINGS`."""
    row = _input_rows(np.zeros((1, POSE_DIM)), proprio[None, :], scene[None, :],
                      STEP_EMBEDDINGS[:1], token[None, :])
    pose_cols, emb_cols = row[0, :POSE_DIM], row[0, IN_B - STEP_EMBED_DIM:IN_B]

    def denoiser(x, k):
        pose_cols[...] = x
        emb_cols[...] = STEP_EMBEDDINGS[k - 1]
        eps, open_p, _ = denoiser_forward(row, params)
        return eps[0], open_p[0, 0]

    return denoiser


def denoiser_backward(d_eps_pos, d_open_logit, d_aux_pos, d_auxo_logit, d_eps_rot,
                      cache, params: dict, grads: dict) -> np.ndarray:
    """Backward pass from head gradients (openness grads are w.r.t. logits).
    Returns the gradient w.r.t. the tokens, (B, TOKEN_DIM)."""
    a_h2, b_h2 = cache["a_h2"], cache["b_h2"]
    heads = ((POS, d_eps_pos), (OPEN, d_open_logit), (AUXP, d_aux_pos), (AUXO, d_auxo_logit))
    for layer, d_out in heads:
        _write_grads(grads, layer, a_h2, d_out)
    d_a_h2 = (d_eps_pos @ params["den.pos_w"].T + d_open_logit @ params["den.open_w"].T
              + d_aux_pos @ params["den.auxp_w"].T + d_auxo_logit @ params["den.auxo_w"].T)
    d_a_h1 = _mlp_backward(d_a_h2, cache["in_a"], cache["a_h1"], a_h2, params, A1, A2, grads)

    _write_grads(grads, ROT, b_h2, d_eps_rot)
    _mlp_backward(d_eps_rot @ params["den.rot_w"].T, cache["in_a"][:, :IN_B], cache["b_h1"],
                  b_h2, params, B1, B2, grads)

    d_in_a = d_a_h1 @ params["den.a_w1"].T
    return d_in_a[:, IN_B:]
