"""Training losses with analytic gradients.

Noise regression uses a mean-absolute form, openness heads use clamped
binary cross-entropy, sub-goal auxiliary heads reuse both, and map features
get a temperature-scaled contrastive term whose denominator sums similarities
against every batch feature (including self). The total objective is an
affine combination with fixed weights.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demos import GravkitError

BCE_CLAMP = 1e-7
DEFAULT_TEMPERATURE = 0.1


class DimMismatch(GravkitError):
    pass


class NonFiniteLoss(GravkitError, ValueError):
    pass


@dataclass(frozen=True)
class LossWeights:
    w_pos: float = 30.0
    w_rot: float = 10.0
    w_aux_pos: float = 30.0
    w_con: float = 10.0

    def __post_init__(self):
        if min(self.w_pos, self.w_rot, self.w_aux_pos, self.w_con) < 0:
            raise ValueError("loss weights must be non-negative")


DEFAULT_LOSS_WEIGHTS = LossWeights()


def noise_l1(pred, target) -> float:
    """Mean absolute error over all coordinates of a (batch of) prediction(s)."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise DimMismatch(f"{pred.shape} vs {target.shape}")
    return float(np.mean(np.abs(pred - target)))


def noise_l1_grad(pred, target, weight: float = 1.0) -> np.ndarray:
    """d (weight * noise_l1) / d pred; the subgradient at zero difference is 0.

    Computed as (weight * sign) / count: weight * (sign / count) can differ in
    the last bit, and seeded training runs are pinned to this order.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise DimMismatch(f"{pred.shape} vs {target.shape}")
    return weight * np.sign(pred - target) / pred.size


def bce(p, y) -> float:
    """Mean binary cross-entropy over a (batch of) probability(ies), each
    clamped to [1e-7, 1 - 1e-7] so p = 0 or 1 stays finite."""
    p = np.clip(np.asarray(p, dtype=float), BCE_CLAMP, 1.0 - BCE_CLAMP)
    y = np.asarray(y, dtype=float)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def bce_logit_grad(p, y) -> np.ndarray:
    """d bce / d logit for p = sigmoid(logit): (p - y) / count inside the
    clamp, 0 where the clamp is active (the loss is flat there)."""
    p = np.asarray(p, dtype=float)
    inside = (p > BCE_CLAMP) & (p < 1.0 - BCE_CLAMP)
    return np.where(inside, p - np.asarray(y, dtype=float), 0.0) / p.size


@dataclass
class ContrastiveBatch:
    """Features, each its own positive, and a softmax temperature."""

    features: np.ndarray   # (N, d)
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2:
            raise DimMismatch("features must be an (N, d) array")
        if self.features.shape[0] < 2:
            raise ValueError("contrastive batch needs N >= 2")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


def _contrastive_terms(batch: ContrastiveBatch):
    f, t = batch.features, batch.temperature
    sim = f @ f.T / t                          # (N, N), includes self-similarity
    pos = np.einsum("ij,ij->i", f, f) / t      # (N,)
    m = sim.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(sim - m).sum(axis=1))
    return sim, pos, lse, m


def contrastive(batch: ContrastiveBatch) -> float:
    """-(1/N) sum_i log( exp(f_i . f_i / T) / sum_j exp(f_i . f_j / T) ),
    log-sum-exp stabilized. The denominator runs over all batch features,
    self included."""
    _, pos, lse, _ = _contrastive_terms(batch)
    return float(np.mean(lse - pos))


def contrastive_grad(batch: ContrastiveBatch) -> np.ndarray:
    """d loss / d features, (N, d). Each feature enters as an anchor and as
    its own positive; the two paths are summed in that order."""
    f, t = batch.features, batch.temperature
    n = f.shape[0]
    sim, _, _, m = _contrastive_terms(batch)
    e = np.exp(sim - m)
    p = e / e.sum(axis=1, keepdims=True)       # row-softmax of similarities
    d_anchor = (-f + p @ f + p.T @ f) / (n * t)
    d_positive = -f / (n * t)
    return d_anchor + d_positive


def total_loss(l_open, l_pos, l_rot, l_aux_pos, l_aux_open, l_con,
               weights: LossWeights = DEFAULT_LOSS_WEIGHTS) -> float:
    """Weighted objective; the openness terms carry unit weight."""
    loss = float(l_open + weights.w_pos * l_pos + weights.w_rot * l_rot
                 + weights.w_aux_pos * l_aux_pos + l_aux_open + weights.w_con * l_con)
    if not np.isfinite(loss):
        terms = (l_open, l_pos, l_rot, l_aux_pos, l_aux_open, l_con)
        raise NonFiniteLoss(f"non-finite loss {loss} from terms {terms}")
    return loss
