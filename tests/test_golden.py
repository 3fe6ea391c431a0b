"""Golden determinism values for training, sampling and evaluation.

Every value below was recorded from a seeded run and is compared bit for
bit, so a change that reorders float operations anywhere on these paths
fails here instead of only in the benchmark. If a change alters the numbers
on purpose, it re-records them and says why.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gravkit import diffusion
from gravkit.demos import SubGoal, TaskKind
from gravkit.gravmap import GravMapParams, Workspace, generate_gravmap
from gravkit.policy import ToyPolicy, TrainConfig, evaluate, load_policy, step_embedding, train
from gravkit.policy.nets import TOKEN_DIM, chain_denoiser
from gravkit.policy.train import build_negative_pool, build_transitions
from gravkit.sim import SceneObject, World, occupancy_grid, scripted_expert

TESTS = Path(__file__).resolve().parent
FIXTURE_MODEL = TESTS.parent / "benchmarks" / "fixture" / "model.bin"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed, param_sha", [
    (0, "6dda25b1f4febf464d1ff5d2ffd13a630b0e3883a84784c4dfc5e1a14beb731e"),
    (5, "9fd25c5423adf0d67ffd9c8a21d822aae325bc389b7d0da81aeb2b8a09bc4a55"),
])
def test_init_draw_order(seed, param_sha):
    """Seeded init draws the weights layer by layer in checkpoint order."""
    policy = ToyPolicy.init(seed=seed)
    assert list(policy.params) == [
        "enc.w1", "enc.b1", "enc.w2", "enc.b2", "enc.w3", "enc.b3",
        "den.a_w1", "den.a_b1", "den.a_w2", "den.a_b2", "den.pos_w", "den.pos_b",
        "den.open_w", "den.open_b", "den.auxp_w", "den.auxp_b", "den.auxo_w", "den.auxo_b",
        "den.b_w1", "den.b_b1", "den.b_w2", "den.b_b2", "den.rot_w", "den.rot_b"]
    assert _sha(policy.param_bytes()) == param_sha


def test_short_training_run():
    demos = [scripted_expert(TaskKind.TOUCH_ONLY, s) for s in range(3)]
    policy, curve = train(TrainConfig(iters=20, seed=7, pool_size=8), demos)
    assert _sha(policy.param_bytes()) == \
        "9c5ff29663906308e892b47065edee14940c5b9d779066d9e215cf062b7a0efa"
    # the float64 loss curve also sees changes the f32 parameters round away
    assert _sha(curve.tobytes()) == \
        "7083d39b66004baffe7662f208bd300e4d1887cd6d5f06cc48296f49d9163f5f"


def test_training_maps_and_pool():
    """The set-up of test_short_training_run: every transition array (maps
    included) and the negative pool."""
    demos = [scripted_expert(TaskKind.TOUCH_ONLY, s) for s in range(3)]
    config = TrainConfig(iters=20, seed=7, pool_size=8)
    policy = ToyPolicy.init(seed=config.seed)
    assert _sha(b"".join(a.tobytes() for a in build_transitions(demos, policy, config))) == \
        "fe69c0a4b1ef61eb13fb13c1bfd66f275de529f577694ddf25f6c7e6a5721c4e"
    assert _sha(build_negative_pool(policy, config).tobytes()) == \
        "214b14ba81838fbfd88cb7641e62034a3e70c0eb6e31ce00d9f6dd8a84547cfd"


def obstacle_scenes():
    """12 seeded scenes of 1-3 spheres, each with a sub-goal far enough from
    its spheres for every sphere to survive clearing. The first five spheres
    are placed on a face, an edge or a corner of the field."""
    rng = np.random.default_rng(20)
    edges = [(0.0, 0.5, 0.5), (0.5, 1.0, 0.4), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (0.98, 0.02, 0.6)]
    scenes = []
    for i in range(12):
        objs = [SceneObject(center=edges[i] if i < len(edges) and j == 0 else rng.uniform(0.1, 0.9, 3),
                            radius=float(rng.uniform(0.03, 0.1)))
                for j in range(1 + i % 3)]
        while True:
            g_pos = rng.uniform(0.05, 0.95, 3)
            if all(np.linalg.norm(g_pos - o.center) > o.radius + 0.2 for o in objs):
                break
        sub = SubGoal(g_pos=g_pos, g_open=int(rng.integers(2)), g_rot=[1, 0, 0, 0, 1, 0])
        scenes.append((World(objects=objs), sub, int(rng.integers(2))))
    return scenes


def test_obstacle_maps():
    """Value maps on the obstacle path (Gaussian-smoothed avoidance map), in
    both modes, sphere supports touching the field's faces and corners."""
    ws, params = Workspace(), GravMapParams()
    digest = hashlib.sha256()
    for seed, (world, sub, current) in enumerate(obstacle_scenes()):
        occ = occupancy_grid(world, params.map_size, ws)
        for mode in ("infer", "train"):
            digest.update(generate_gravmap(sub, occ, current, ws, params, mode, seed=seed).points.tobytes())
    assert digest.hexdigest() == \
        "92170f2882350653ead8c34de8f154934d46bf5bbdd18083e78a3749e44f40d7"


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

    rng = np.random.default_rng(21)
    rows = (rng.standard_normal(8), rng.standard_normal(16), rng.standard_normal(TOKEN_DIM))
    # the closure run_episode builds for each prediction
    denoiser = chain_denoiser(policy.params, step_embedding(np.arange(1, sp.steps + 1)), *rows)
    pose, open_state = diffusion.sample(denoiser, sp, sr, seed=13, stochastic=stochastic)
    assert (pose.pos.tobytes() + pose.rot6d.tobytes()).hex() == pose_hex
    assert open_state == 1


EPISODE_RECORD = ([0.0, 1.0, 0.0, 1.0, 1.0, 1.0], 93,
                  "91fadade912ddfcc3589d3924d2fbad595bd177c80cd279abb854519d8f42058")


def episode_record():
    """Guided shifted-goal episodes of the trained checkpoint in
    benchmarks/fixture: (outcomes, number of predicted keyposes, sha256 of
    every keypose the sampler predicts)."""
    policy = load_policy(FIXTURE_MODEL)
    predictions = hashlib.sha256()
    calls = []
    sample = diffusion.sample

    def recording_sample(*args, **kwargs):
        pose, open_state = sample(*args, **kwargs)
        predictions.update(pose.pos.tobytes() + pose.rot6d.tobytes() + bytes([open_state]))
        calls.append(open_state)
        return pose, open_state

    diffusion.sample = recording_sample
    try:
        outcomes = [evaluate(policy, TaskKind.TOUCH_ONLY, 1, seed, guided=True, shifted=True)
                    for seed in range(2000, 2006)]
    finally:
        diffusion.sample = sample
    return outcomes, len(calls), predictions.hexdigest()


def test_episode_outcomes_and_predictions():
    assert episode_record() == EPISODE_RECORD


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_episode_record_independent_of_blas_threads(threads):
    """Unlike training's weight gradients, evaluation gives the same bits at
    any BLAS thread count. OpenBLAS reads the count when numpy loads, hence
    a fresh interpreter per count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS),
                                           os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", "import test_golden as g; print(g.episode_record())"],
                         env=env, capture_output=True, text=True, check=True, timeout=600)
    assert out.stdout.strip() == str(EPISODE_RECORD)
