"""Closed-loop policy evaluation on the toy simulator.

Per episode: ask the scripted provider for the current sub-goal, synthesize
an inference-mode value map over the live occupancy grid (or use a zero
token when running unguided), sample the next keypose through the diffusion
chain, drive the gripper there along a straight line, apply the predicted
gripper state, and repeat up to the prediction-step cap.
"""
from __future__ import annotations

import numpy as np

from .. import diffusion
from ..demos import Frame, TaskKind
from ..gravmap import Workspace, generate_gravmap
from ..sim import Command, check_success, make_world, next_subgoal, occupancy_grid, step
from .model import ToyPolicy
from .nets import TOKEN_DIM, Conditioning, denoiser_forward_batch, encode_gravmap

MOVE_FRAME_CAP = 60   # straight-line frames per predicted keypose
SETTLE_FRAMES = 3     # frames holding the target with the predicted openness


def normalize_pos(pos, ws: Workspace) -> np.ndarray:
    return 2.0 * (np.asarray(pos, float) - np.asarray(ws.min)) / ws.extent - 1.0


def denormalize_pos(pos_n, ws: Workspace) -> np.ndarray:
    world = (np.asarray(pos_n, float) + 1.0) / 2.0 * ws.extent + np.asarray(ws.min)
    return np.clip(world, ws.min, ws.max)


def proprio_vec(prev_frame: Frame, cur_frame: Frame, ws: Workspace) -> np.ndarray:
    """Two past (position, openness) snapshots, oldest first."""
    return np.concatenate([
        normalize_pos(prev_frame.pose.pos, ws), [float(prev_frame.open)],
        normalize_pos(cur_frame.pose.pos, ws), [float(cur_frame.open)],
    ])


def scene_feat_from_frame(frame: Frame, ws: Workspace) -> np.ndarray:
    """Current-frame observables standing in for scene perception."""
    return np.concatenate([
        normalize_pos(frame.pose.pos, ws),
        frame.pose.rot6d,
        [float(frame.open)],
        frame.touch,
        frame.joint_vel,
        [1.0],
    ])


def _null_frame(world) -> Frame:
    _, frame = step(world, Command(target=world.gripper_pos.copy(), open=world.gripper_open))
    return frame


def run_episode(policy: ToyPolicy, task_kind: TaskKind, rng: np.random.Generator,
                guided: bool = True, shifted: bool = False, max_steps: int = 25,
                stochastic: bool = True) -> bool:
    ws, gp = policy.workspace, policy.gravmap_params
    sched_pos, sched_rot = policy.schedules()
    world = make_world(task_kind, rng, shifted=shifted)
    frame = _null_frame(world)
    prev_frame = frame
    zero_token = np.zeros(TOKEN_DIM)
    token_cache: dict = {}

    def denoiser(x, k, cond):
        eps_pos, eps_rot, open_p, _, _, _ = denoiser_forward_batch(
            x[None, :], np.array([k]), cond.proprio[None, :], cond.scene_feat[None, :],
            cond.token[None, :], policy.denoiser)
        return np.concatenate([eps_pos[0], eps_rot[0]]), open_p[0, 0]

    for _ in range(max_steps):
        if check_success(world, task_kind):
            break
        if guided:
            sub = next_subgoal(world, task_kind)
            key = (tuple(np.round(sub.g_pos, 6)), sub.g_open, world.gripper_open,
                   tuple(np.round(np.concatenate([o.center for o in world.objects]), 3)))
            token = token_cache.get(key)
            if token is None:
                occ = occupancy_grid(world, gp.map_size, ws)
                gmap = generate_gravmap(sub, occ, current_open=world.gripper_open,
                                        ws=ws, params=gp, mode="infer")
                token = encode_gravmap(gmap.points, policy.encoder)
                token_cache[key] = token
        else:
            token = zero_token
        cond = Conditioning(proprio=proprio_vec(prev_frame, frame, ws),
                            scene_feat=scene_feat_from_frame(frame, ws), token=token)
        pose, open_pred = diffusion.sample(denoiser, cond, sched_pos, sched_rot,
                                           seed=int(rng.integers(2**63)), stochastic=stochastic)
        target = denormalize_pos(np.clip(pose.pos, -1.0, 1.0), ws)
        # the observation that produced this prediction becomes the "previous
        # keypose" entry of the next history pair, mirroring training
        prev_frame = frame
        for _ in range(MOVE_FRAME_CAP):
            if np.array_equal(world.gripper_pos, target):
                break
            _, frame = step(world, Command(target=target, open=world.gripper_open))
        for _ in range(SETTLE_FRAMES):
            _, frame = step(world, Command(target=target, open=open_pred))
    return check_success(world, task_kind)


def evaluate(policy: ToyPolicy, task_kind: TaskKind, episodes: int, seed,
             guided: bool = True, shifted: bool = False, max_steps: int = 25,
             stochastic: bool = True) -> float:
    """Success rate over independently seeded episodes."""
    if episodes <= 0:
        raise ValueError("episodes must be positive")
    wins = 0
    for ep in range(episodes):
        rng = np.random.default_rng([int(seed), ep])
        wins += run_episode(policy, task_kind, rng, guided=guided, shifted=shifted,
                            max_steps=max_steps, stochastic=stochastic)
    return wins / episodes
