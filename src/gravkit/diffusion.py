"""Denoising diffusion machinery for end-effector poses.

Positions and 6D rotations diffuse under separate noise schedules (scaled
linear and squared cosine by default). The reverse update is the standard
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
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.02


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
    """Per-step coefficients for steps k = 1..K, stored at index k-1.
    alpha_bar of step 0, not stored, is 1."""

    kind: str
    steps: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray


def make_schedule(kind: str = SCALED_LINEAR, steps: int = DEFAULT_STEPS,
                  beta_start: float = DEFAULT_BETA_START,
                  beta_end: float = DEFAULT_BETA_END) -> NoiseSchedule:
    """Build a noise schedule.

    scaled_linear: beta_k = (sqrt(beta_start) + (k-1)/(K-1) * (sqrt(beta_end)
    - sqrt(beta_start)))^2. squaredcos: alpha_bar follows the squared-cosine
    profile with s = 0.008 and betas clipped at 0.999.
    """
    if steps < 1:
        raise InvalidRange("steps must be >= 1")
    if kind == SCALED_LINEAR:
        if not 0 < beta_start <= beta_end < 1:
            raise InvalidRange("need 0 < beta_start <= beta_end < 1")
        beta = np.linspace(np.sqrt(beta_start), np.sqrt(beta_end), steps) ** 2
    elif kind == SQUARED_COS:
        s = 0.008
        k = np.arange(steps + 1, dtype=float)
        f = np.cos(((k / steps + s) / (1 + s)) * np.pi / 2.0) ** 2
        abar = f / f[0]
        beta = np.minimum(1.0 - abar[1:] / abar[:-1], 0.999)
    else:
        raise InvalidRange(f"unknown schedule kind {kind!r}")
    alpha = 1.0 - beta
    return NoiseSchedule(kind=kind, steps=steps, beta=beta, alpha=alpha,
                         alpha_bar=np.cumprod(alpha))


def add_noise(x0, k, eps, sched: NoiseSchedule):
    """Forward process: x_k = sqrt(abar_k) * x0 + sqrt(1 - abar_k) * eps.

    `k` is one step for a single pose, or a (B,) array of steps, one per row
    of (B, d) `x0` and `eps`.
    """
    k = np.asarray(k)
    if np.any((k < 0) | (k > sched.steps)):
        raise StepOutOfRange(f"step {k} outside 0..{sched.steps}")
    ab = np.where(k == 0, 1.0, sched.alpha_bar[k - 1])[..., None]
    return np.sqrt(ab) * np.asarray(x0, dtype=float) + np.sqrt(1.0 - ab) * np.asarray(eps, dtype=float)


def _reverse_terms(sched: NoiseSchedule) -> np.ndarray:
    """(K, 3) per-step terms of the reverse update, row k-1 for step k: the
    mean coefficient beta_k / sqrt(1 - abar_k), sqrt(alpha_k) and the
    posterior std sigma_k = sqrt((1 - abar_{k-1}) / (1 - abar_k) * beta_k)."""
    abar_prev = np.concatenate(([1.0], sched.alpha_bar[:-1]))
    return np.stack([sched.beta / np.sqrt(1.0 - sched.alpha_bar),
                     np.sqrt(sched.alpha),
                     np.sqrt((1.0 - abar_prev) / (1.0 - sched.alpha_bar) * sched.beta)], axis=1)


_CHANNEL_SCHEDULE = np.repeat([0, 1], (3, 6))   # 0: position channel, 1: rotation


def reverse_coefficients(sched_pos: NoiseSchedule, sched_rot: NoiseSchedule) -> np.ndarray:
    """(K, 3, 9) table of the reverse update's coefficients: row k-1 holds
    step k's mean coefficient, sqrt(alpha) and posterior std, each spread
    over the pose vector's 3 position and 6 rotation channels."""
    if sched_pos.steps != sched_rot.steps:
        raise InvalidRange("position and rotation schedules must share K")
    terms = np.stack([_reverse_terms(sched_pos), _reverse_terms(sched_rot)], axis=-1)
    return terms[..., _CHANNEL_SCHEDULE]


def _reverse_update(x, k: int, eps_hat, coefs: np.ndarray, stochastic: bool, rng) -> np.ndarray:
    """x_{k-1} from x_k with the coefficients of `reverse_coefficients`: the
    posterior mean, plus posterior-variance noise drawn from `rng` only when
    stochastic and k > 1."""
    mean_coef, root_alpha, sigma = coefs[k - 1]
    x = (np.asarray(x, dtype=float) - mean_coef * eps_hat) / root_alpha
    if stochastic and k > 1:
        x = x + sigma * rng.standard_normal(9)
    return x


def sample(denoiser, sched_pos: NoiseSchedule, sched_rot: NoiseSchedule,
           seed, stochastic: bool = True):
    """Run the full reverse chain and return (Pose, openness).

    `denoiser` is called as denoiser(x, k) with the noisy pose vector x (9,),
    3 position then 6 rotation channels, at step k, and must
    return (eps_hat, open_prob): the predicted noise (9,) and the openness
    probability. The chain starts from standard normal noise at step K, the
    openness is read from the final (k = 1) prediction and thresholded at
    0.5, and the final rotation is orthonormalized via Gram-Schmidt. The
    start and every step's noise come from one generator seeded with `seed`,
    and the coefficient table is built once per chain.
    """
    coefs = reverse_coefficients(sched_pos, sched_rot)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(9)
    for k in range(sched_pos.steps, 0, -1):
        eps_hat, open_prob = denoiser(x, k)
        x = _reverse_update(x, k, eps_hat, coefs, stochastic, rng)
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
