"""Training losses with analytic gradients.

Noise regression uses a mean-absolute form, openness heads use clamped
binary cross-entropy, sub-goal auxiliary heads reuse both, and map features
get a temperature-scaled contrastive term whose denominator sums similarities
against every batch feature (including self). The total objective is an
affine combination with fixed weights.
"""
from __future__ import annotations

import numpy as np

from .demos import GravkitError

BCE_CLAMP = 1e-7

# weights of the total objective; the openness terms carry unit weight
W_POS = 30.0
W_ROT = 10.0
W_AUX_POS = 30.0
W_CON = 10.0


class DimMismatch(GravkitError):
    pass


class NonFiniteLoss(GravkitError, ValueError):
    pass


def noise_l1(pred, target, weight: float = 1.0):
    """Mean absolute error over all coordinates of a (batch of) prediction(s),
    and d (weight * loss) / d pred; the subgradient at zero difference is 0.

    Returns (loss, gradient). The gradient is computed as (weight * sign) /
    count: weight * (sign / count) can differ in the last bit, and seeded
    training runs are pinned to this order.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise DimMismatch(f"{pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(np.abs(diff))), weight * np.sign(diff) / pred.size


def bce(p, y):
    """Mean binary cross-entropy over a (batch of) probability(ies), each
    clamped to [1e-7, 1 - 1e-7] so p = 0 or 1 stays finite, and d loss / d
    logit for p = sigmoid(logit).

    Returns (loss, gradient). The gradient is (p - y) / count inside the
    clamp and 0 where the clamp is active (the loss is flat there).
    """
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loss = float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))
    inside = (p > BCE_CLAMP) & (p < 1.0 - BCE_CLAMP)
    return loss, np.where(inside, p - y, 0.0) / p.size


def contrastive(features, temperature: float):
    """-(1/N) sum_i log( exp(f_i . f_i / T) / sum_j exp(f_i . f_j / T) ),
    log-sum-exp stabilized, and d loss / d features (N, d).

    The denominator runs over all batch features, self included. Each
    feature enters the gradient as an anchor and as its own positive; the
    two paths are summed in that order. Returns (loss, gradient).
    """
    f = np.asarray(features, dtype=float)
    if f.ndim != 2:
        raise DimMismatch("features must be an (N, d) array")
    if f.shape[0] < 2:
        raise ValueError("contrastive batch needs N >= 2")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    n, t = f.shape[0], temperature
    sim = f @ f.T / t                          # (N, N), includes self-similarity
    pos = np.einsum("ij,ij->i", f, f) / t      # (N,)
    m = sim.max(axis=1, keepdims=True)
    e = np.exp(sim - m)
    z = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(m[:, 0] + np.log(z[:, 0]) - pos))
    p = e / z                                  # row-softmax of similarities
    d_anchor = (-f + p @ f + p.T @ f) / (n * t)
    d_positive = -f / (n * t)
    return loss, d_anchor + d_positive


def total_loss(l_open, l_pos, l_rot, l_aux_pos, l_aux_open, l_con) -> float:
    """Weighted objective; the openness terms carry unit weight."""
    loss = float(l_open + W_POS * l_pos + W_ROT * l_rot
                 + W_AUX_POS * l_aux_pos + l_aux_open + W_CON * l_con)
    if not np.isfinite(loss):
        terms = (l_open, l_pos, l_rot, l_aux_pos, l_aux_open, l_con)
        raise NonFiniteLoss(f"non-finite loss {loss} from terms {terms}")
    return loss
