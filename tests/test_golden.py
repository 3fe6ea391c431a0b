"""Golden determinism values for training, sampling and evaluation.

Every value below was recorded from a seeded run and is compared bit for
bit, so a change that reorders float operations anywhere on these paths
fails here instead of only in the benchmark. If a change alters the numbers
on purpose, it re-records them and says why.
"""
import hashlib
from pathlib import Path

import numpy as np
import pytest

from gravkit import diffusion
from gravkit.demos import TaskKind
from gravkit.policy import (Conditioning, ToyPolicy, TrainConfig, denoiser_forward_batch,
                            evaluate, load_policy, train)
from gravkit.policy.nets import TOKEN_DIM
from gravkit.sim import scripted_expert

FIXTURE_MODEL = Path(__file__).resolve().parents[1] / "benchmarks" / "fixture" / "model.bin"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_short_training_run():
    demos = [scripted_expert(TaskKind.TOUCH_ONLY, s) for s in range(3)]
    policy, curve = train(TrainConfig(iters=20, seed=7, pool_size=8), demos)
    assert _sha(policy.param_bytes()) == \
        "9c5ff29663906308e892b47065edee14940c5b9d779066d9e215cf062b7a0efa"
    # the float64 loss curve also sees changes the f32 parameters round away
    assert _sha(curve.tobytes()) == \
        "7083d39b66004baffe7662f208bd300e4d1887cd6d5f06cc48296f49d9163f5f"


@pytest.mark.parametrize("stochastic, pose_hex", [
    (True, "e07ddb1da9817a40b526b3be3c2186c0938c2db0ff568040d751cb716f2bd1bf"
           "aa8be5b3eb75e1bf517fffeebe67e93f646e989ca789ecbf367d97bccae2c5bf"
           "8a825dc8becedabf"),
    (False, "f168baa8ba2479405ca8d7e81e4485c077dcfbd416238040cacdfa1e0233d1bf"
            "4a0667a7e857e1bfaeedd183fe7ae93f6ead3e2a4d8becbf459dc0891b01c6bf"
            "7dd7d3ff83c1dabf"),
])
def test_sample_with_policy_denoiser(stochastic, pose_hex):
    policy = ToyPolicy.init(seed=5)
    sp, sr = policy.schedules()

    def denoiser(x, k, cond):
        eps_pos, eps_rot, open_p, _, _, _ = denoiser_forward_batch(
            x[None, :], np.array([k]), cond.proprio[None, :], cond.scene_feat[None, :],
            cond.token[None, :], policy.denoiser)
        return np.concatenate([eps_pos[0], eps_rot[0]]), open_p[0, 0]

    rng = np.random.default_rng(21)
    cond = Conditioning(proprio=rng.standard_normal(8), scene_feat=rng.standard_normal(16),
                        token=rng.standard_normal(TOKEN_DIM))
    pose, open_state = diffusion.sample(denoiser, cond, sp, sr, seed=13, stochastic=stochastic)
    assert (pose.pos.tobytes() + pose.rot6d.tobytes()).hex() == pose_hex
    assert open_state == 1


def test_episode_outcomes_and_predictions(monkeypatch):
    """Guided shifted-goal episodes of the trained checkpoint in
    benchmarks/fixture, with every keypose the sampler predicts."""
    policy = load_policy(FIXTURE_MODEL)
    predictions = hashlib.sha256()
    calls = []
    sample = diffusion.sample

    def recording_sample(*args, **kwargs):
        pose, open_state = sample(*args, **kwargs)
        predictions.update(pose.pos.tobytes() + pose.rot6d.tobytes() + bytes([open_state]))
        calls.append(open_state)
        return pose, open_state

    monkeypatch.setattr(diffusion, "sample", recording_sample)
    outcomes = [evaluate(policy, TaskKind.TOUCH_ONLY, 1, seed, guided=True, shifted=True)
                for seed in range(2000, 2006)]
    assert outcomes == [0.0, 1.0, 0.0, 1.0, 1.0, 1.0]
    assert len(calls) == 93
    assert predictions.hexdigest() == \
        "91fadade912ddfcc3589d3924d2fbad595bd177c80cd279abb854519d8f42058"
