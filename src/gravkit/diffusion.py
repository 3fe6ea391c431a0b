"""Denoising diffusion machinery for end-effector poses.

Positions and 6D rotations diffuse under separate noise schedules (scaled
linear and squared cosine by default), spread over the pose vector's
channels once by `pose_schedule`; training's forward noise and the reverse
chain both read that one schedule. The reverse update is the standard
posterior-mean step with optional posterior-variance noise; the final step
never adds noise. Rotations are decoded through Gram-Schmidt so the sampled
output is always a valid rotation matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demos import GravkitError, Pose, rot6d_is_degenerate

SCALED_LINEAR = "scaled_linear"
SQUARED_COS = "squaredcos"

DEFAULT_STEPS = 100
BETA_START = 1e-4   # scaled_linear's first and last beta
BETA_END = 0.02


class InvalidRange(GravkitError):
    pass


class StepOutOfRange(GravkitError):
    pass


class DegenerateRotation(GravkitError):
    pass


class NotARotation(GravkitError):
    pass


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step coefficients for steps k = 1..K, stored at row k-1: one
    value per step, or one per channel in (K, C) arrays. alpha_bar of step
    0, not stored, is 1."""

    steps: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray


def make_schedule(kind: str, steps: int) -> NoiseSchedule:
    """Build a noise schedule.

    scaled_linear: beta_k = (sqrt(BETA_START) + (k-1)/(K-1) * (sqrt(BETA_END)
    - sqrt(BETA_START)))^2. squaredcos: alpha_bar follows the squared-cosine
    profile with s = 0.008 and betas clipped at 0.999.
    """
    if steps < 1:
        raise InvalidRange("steps must be >= 1")
    if kind == SCALED_LINEAR:
        beta = np.linspace(np.sqrt(BETA_START), np.sqrt(BETA_END), steps) ** 2
    elif kind == SQUARED_COS:
        s = 0.008
        k = np.arange(steps + 1, dtype=float)
        f = np.cos(((k / steps + s) / (1 + s)) * np.pi / 2.0) ** 2
        abar = f / f[0]
        beta = np.minimum(1.0 - abar[1:] / abar[:-1], 0.999)
    else:
        raise InvalidRange(f"unknown schedule kind {kind!r}")
    return _from_beta(beta)


def pose_schedule(sched_pos: NoiseSchedule, sched_rot: NoiseSchedule) -> NoiseSchedule:
    """The pose vector's schedule: (K, 9) arrays whose 3 position channels
    follow `sched_pos` and whose 6 rotation channels follow `sched_rot`."""
    if sched_pos.steps != sched_rot.steps:
        raise InvalidRange("position and rotation schedules must share K")
    return _from_beta(np.stack([sched_pos.beta, sched_rot.beta], axis=1)[:, np.repeat([0, 1], (3, 6))])


def _from_beta(beta: np.ndarray) -> NoiseSchedule:
    alpha = 1.0 - beta
    return NoiseSchedule(steps=len(beta), beta=beta, alpha=alpha, alpha_bar=np.cumprod(alpha, axis=0))


def add_noise(x0, k, eps, sched: NoiseSchedule):
    """Forward process: x_k = sqrt(abar_k) * x0 + sqrt(1 - abar_k) * eps.

    `k` is one step for a single row, or a (B,) array of steps, one per row
    of (B, d) `x0` and `eps`. A per-channel schedule gives each of the d
    channels its own abar_k.
    """
    k = np.asarray(k)
    if np.any((k < 0) | (k > sched.steps)):
        raise StepOutOfRange(f"step {k} outside 0..{sched.steps}")
    ab = np.where((k == 0)[..., None], 1.0, sched.alpha_bar.reshape(sched.steps, -1)[k - 1])
    return np.sqrt(ab) * np.asarray(x0, dtype=float) + np.sqrt(1.0 - ab) * np.asarray(eps, dtype=float)


def reverse_coefficients(sched: NoiseSchedule) -> np.ndarray:
    """(K, 3, ...) table of the reverse update's terms, row k-1 for step k:
    the mean coefficient beta_k / sqrt(1 - abar_k), sqrt(alpha_k) and the
    posterior std sigma_k = sqrt((1 - abar_{k-1}) / (1 - abar_k) * beta_k),
    each per channel when `sched` is."""
    abar = sched.alpha_bar
    abar_prev = np.concatenate((np.ones_like(abar[:1]), abar[:-1]))
    return np.stack([sched.beta / np.sqrt(1.0 - abar), np.sqrt(sched.alpha),
                     np.sqrt((1.0 - abar_prev) / (1.0 - abar) * sched.beta)], axis=1)


def sample(denoiser, coefs: np.ndarray, seed, stochastic: bool = True):
    """Run the full reverse chain and return (Pose, openness).

    `coefs` is the (K, 3, 9) `reverse_coefficients` table of a
    `pose_schedule`. `denoiser` is called as denoiser(x, k) with the noisy
    pose vector x (9,), 3 position then 6 rotation channels, at step k, and
    must return (eps_hat, open_prob): the predicted noise (9,) and the
    openness probability. The chain starts from standard normal noise at
    step K; each step takes the posterior mean, plus posterior-variance
    noise when stochastic and k > 1. The start and every step's noise come
    from one generator seeded with `seed`. The openness is read from the
    final (k = 1) prediction and thresholded at 0.5, and the final rotation
    is orthonormalized via Gram-Schmidt.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(9)
    for k in range(len(coefs), 0, -1):
        eps_hat, open_prob = denoiser(x, k)
        mean_coef, root_alpha, sigma = coefs[k - 1]
        x = (x - mean_coef * eps_hat) / root_alpha
        if stochastic and k > 1:
            x = x + sigma * rng.standard_normal(x.shape)
    pose = Pose(pos=x[:3], rot6d=matrix_to_rot6d(rot6d_to_matrix(x[3:])))
    return pose, int(open_prob > 0.5)


# ---------------------------------------------------------------------------
# 6D rotation representation
# ---------------------------------------------------------------------------

def rot6d_to_matrix(r6) -> np.ndarray:
    """Gram-Schmidt the two encoded columns into a rotation matrix; raises
    DegenerateRotation exactly when `demos.rot6d_is_degenerate` holds."""
    r6 = np.asarray(r6, dtype=float)
    if rot6d_is_degenerate(r6):
        raise DegenerateRotation(f"encoded columns {r6.tolist()} are near zero or (anti)parallel")
    a1, a2 = r6[:3], r6[3:]
    b1 = a1 / np.linalg.norm(a1)
    u2 = a2 - np.dot(b1, a2) * b1
    b2 = u2 / np.linalg.norm(u2)
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=1)


def matrix_to_rot6d(rot) -> np.ndarray:
    """Concatenate the first two columns of a rotation matrix."""
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3):
        raise NotARotation(f"expected 3x3 matrix, got {rot.shape}")
    if np.abs(rot.T @ rot - np.eye(3)).max() > 1e-6:
        raise NotARotation("matrix is not orthonormal")
    if np.linalg.det(rot) < 0:
        raise NotARotation("matrix has negative determinant")
    return np.concatenate([rot[:, 0], rot[:, 1]])
