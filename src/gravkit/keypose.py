"""Keypose and sub-goal keypose distillation from demonstrations.

Keyposes are frames where the arm pauses (all pseudo-joint speeds below a
threshold) or the gripper toggles. Sub-goal keyposes are the subset that
marks completion of a sub-task stage, filtered by touch-force and gripper
heuristics; each keypose is then assigned the action of its nearest future
sub-goal keypose.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demos import Demo, GravkitError, SubGoal, TaskKind


class MissingTerminalSubgoal(GravkitError):
    pass


@dataclass
class KeyposeParams:
    eps_vel: float = 1e-3        # m/s; a frame is "stopped" below this
    stop_buffer: int = 4         # frames; suppresses duplicates in a long stop
    touch_threshold: int = 2     # frames; touch-change lookback window
    delta: float = 0.005         # newtons; touch change must exceed this
    gripper_threshold: int = 4   # frames; gripper-change lookback window

    def __post_init__(self):
        for name in ("eps_vel", "delta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("eps_vel", "stop_buffer", "touch_threshold", "delta", "gripper_threshold"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


DEFAULT_KEYPOSE_PARAMS = KeyposeParams()


def discover_keyposes(demo: Demo, params: KeyposeParams = DEFAULT_KEYPOSE_PARAMS) -> list[int]:
    """Frame indices where the arm stops or the gripper toggles.

    A stopped frame is kept only when no keypose was accepted within the
    previous stop_buffer frames; gripper toggles are always kept. The last
    frame is always included.
    """
    frames = demo.frames
    keyposes = []
    last = -(params.stop_buffer + 1)
    for f, fr in enumerate(frames):
        toggled = f > 0 and fr.open != frames[f - 1].open
        stopped = bool(np.all(np.abs(fr.joint_vel) < params.eps_vel))
        if toggled or (stopped and f - last > params.stop_buffer):
            keyposes.append(f)
            last = f
    if keyposes[-1:] != [len(frames) - 1]:
        keyposes.append(len(frames) - 1)
    return keyposes


def touch_change(demo: Demo, k: int, params: KeyposeParams = DEFAULT_KEYPOSE_PARAMS) -> bool:
    """True when any touch component at some frame j in
    [max(0, k - touch_threshold), k - 1] differs from frame k by strictly
    more than delta."""
    frames = demo.frames
    ref = frames[k].touch
    start = max(0, k - params.touch_threshold)
    for j in range(start, k):
        if np.any(np.abs(frames[j].touch - ref) > params.delta):
            return True
    return False


def gripper_change(demo: Demo, k: int, params: KeyposeParams = DEFAULT_KEYPOSE_PARAMS) -> bool:
    """True when the gripper state at some frame in
    [max(0, k - gripper_threshold), k - 1] differs from frame k."""
    frames = demo.frames
    start = max(0, k - params.gripper_threshold)
    return any(frames[j].open != frames[k].open for j in range(start, k))


def _pick_subgoals(demo: Demo, keyposes: list[int], params: KeyposeParams) -> list[int]:
    """Filter keyposes down to sub-goal keyposes.

    Touch-only tasks keep keyposes with a significant touch change;
    grasp-and-place tasks keep keyposes with a gripper change or a touch
    change. The last keypose is always appended.
    """
    picked = []
    for k in keyposes:
        if demo.task_kind == TaskKind.TOUCH_ONLY:
            hit = touch_change(demo, k, params)
        else:
            hit = gripper_change(demo, k, params) or touch_change(demo, k, params)
        if hit:
            picked.append(k)
    if keyposes[-1] not in picked:
        picked.append(keyposes[-1])
    return picked


def _subgoal_at(demo: Demo, frame_idx: int) -> SubGoal:
    fr = demo.frames[frame_idx]
    return SubGoal(g_pos=fr.pose.pos.copy(), g_open=fr.open, g_rot=fr.pose.rot6d.copy())


def assign_goal_actions(demo: Demo, keyposes, subgoal_keyposes) -> dict[int, SubGoal]:
    """Map every keypose frame index to the sub-goal built from the action at
    the smallest sub-goal keypose index greater than or equal to its own."""
    sub = sorted(subgoal_keyposes)
    if not sub or keyposes[-1] not in sub:
        raise MissingTerminalSubgoal("last keypose is not a sub-goal keypose")
    mapping = {}
    j = 0
    for k in sorted(keyposes):
        while sub[j] < k:
            j += 1
        mapping[k] = _subgoal_at(demo, sub[j])
    return mapping


def distill_demo(demo: Demo, params: KeyposeParams = DEFAULT_KEYPOSE_PARAMS):
    """Convenience: (keyposes, subgoal_keyposes, assignment) in one call."""
    keyposes = discover_keyposes(demo, params)
    subgoals = _pick_subgoals(demo, keyposes, params)
    return keyposes, subgoals, assign_goal_actions(demo, keyposes, subgoals)
