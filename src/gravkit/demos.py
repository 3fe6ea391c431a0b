"""Demonstration data model and JSON Lines log format.

A demo is an ordered list of per-frame records (end-effector pose, gripper
openness, pseudo-joint velocities, per-finger touch forces) plus a task kind
and a free-text instruction. Logs are one JSON object per line so they can be
streamed, diffed and inspected by hand.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

ROT6D_PARALLEL_TOL = 1e-6  # min angle (rad) between the two implied columns
F32_MAX = float(np.finfo(np.float32).max)   # the largest magnitude of a number read from a file


class GravkitError(Exception):
    """Base class for errors raised by this package."""


class IoError(GravkitError):
    pass


class EmptyInput(GravkitError):
    pass


class CorruptFile(GravkitError):
    """A binary file is truncated, padded or not in the format it claims."""


class SchemaViolation(GravkitError):
    """A record is structurally wrong or breaks a demo invariant."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class TaskKind(str, Enum):
    TOUCH_ONLY = "touch_only"
    GRASP_PLACE = "grasp_place"


@dataclass
class Pose:
    """End-effector pose: position in meters plus a 6D rotation encoding
    (first two columns of the rotation matrix, stored raw)."""

    pos: np.ndarray
    rot6d: np.ndarray

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=float)
        self.rot6d = np.asarray(self.rot6d, dtype=float)


@dataclass
class Frame:
    t: int
    pose: Pose
    open: int
    joint_vel: np.ndarray
    touch: np.ndarray

    def __post_init__(self):
        self.joint_vel = np.asarray(self.joint_vel, dtype=float)
        self.touch = np.asarray(self.touch, dtype=float)


@dataclass
class Demo:
    task_kind: TaskKind
    instruction: str
    frames: list = field(default_factory=list)

    def __len__(self):
        return len(self.frames)


@dataclass
class SubGoal:
    """Target of one sub-task stage: position, gripper openness, rotation."""

    g_pos: np.ndarray
    g_open: int
    g_rot: np.ndarray

    def __post_init__(self):
        self.g_pos = np.asarray(self.g_pos, dtype=float)
        self.g_rot = np.asarray(self.g_rot, dtype=float)


def rot6d_is_degenerate(rot6d, tol=ROT6D_PARALLEL_TOL):
    """True when the two implied 3-vectors are (anti)parallel or near zero.

    Uses |a1 x a2| / (|a1| |a2|) = sin(angle), which catches both the
    parallel and antiparallel cases that break Gram-Schmidt.
    """
    a1, a2 = rot6d[:3], rot6d[3:]
    n1, n2 = np.linalg.norm(a1), np.linalg.norm(a2)
    if n1 < tol or n2 < tol:
        return True
    return np.linalg.norm(np.cross(a1, a2)) / (n1 * n2) <= tol


def validate_demo(demo: Demo) -> list[str]:
    """Return every violated invariant, each tagged with its frame index.

    An empty list means the demo is well formed. Violations are returned,
    not raised, so callers can report all of them at once.
    """
    violations = []
    if len(demo.frames) == 0:
        return ["demo has no frames"]
    prev_t = None
    for i, fr in enumerate(demo.frames):
        if prev_t is not None and fr.t <= prev_t:
            violations.append(f"frame {i}: time order (t={fr.t} after t={prev_t})")
        prev_t = fr.t
        if fr.t < 0:
            violations.append(f"frame {i}: negative frame index")
        if fr.open not in (0, 1):
            violations.append(f"frame {i}: open not in {{0,1}}")
        if not np.all(np.isfinite(fr.pose.pos)):
            violations.append(f"frame {i}: non-finite position")
        if not np.all(np.isfinite(fr.pose.rot6d)):
            violations.append(f"frame {i}: non-finite rot6d")
        elif rot6d_is_degenerate(fr.pose.rot6d):
            violations.append(f"frame {i}: degenerate rot6d (parallel columns)")
        if not np.all(np.isfinite(fr.joint_vel)):
            violations.append(f"frame {i}: non-finite joint velocity")
        if not np.all(np.isfinite(fr.touch)):
            violations.append(f"frame {i}: non-finite touch")
        elif np.any(fr.touch < 0):
            violations.append(f"frame {i}: negative touch force")
    return violations


def _require(cond, msg, line):
    if not cond:
        raise SchemaViolation(msg, line=line)


def _is_number(value) -> bool:
    """A JSON number: int or float, and not a bool (which Python counts as an int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _in_range(value) -> bool:
    """A JSON number no larger in magnitude than F32_MAX, the range the
    `.gmap` header holds; squares and products of such numbers stay finite
    in float64. Compares a huge JSON integer exactly instead of overflowing."""
    return _is_number(value) and abs(value) <= F32_MAX


def _vec(obj, name, size, line):
    _require(isinstance(obj, (list, tuple)), f"{name} must be an array", line)
    _require(len(obj) == size, f"{name} must have {size} elements, got {len(obj)}", line)
    _require(all(_is_number(v) for v in obj), f"{name} must be numeric", line)
    _require(all(_in_range(v) for v in obj), f"{name} must be finite, of magnitude at most {F32_MAX!r}", line)
    return np.asarray(obj, dtype=float)


def _frame_from_record(rec, line):
    _require(isinstance(rec, dict), "frame must be an object", line)
    for key in ("t", "pos", "rot6d", "open", "joint_vel", "touch"):
        _require(key in rec, f"frame missing field '{key}'", line)
    _require(type(rec["t"]) is int, "t must be an integer", line)   # type(): bool is an int
    _require(_is_number(rec["open"]) and rec["open"] in (0, 1), "open must be 0 or 1", line)
    return Frame(
        t=rec["t"],
        pose=Pose(_vec(rec["pos"], "pos", 3, line), _vec(rec["rot6d"], "rot6d", 6, line)),
        open=int(rec["open"]),
        joint_vel=_vec(rec["joint_vel"], "joint_vel", 3, line),
        touch=_vec(rec["touch"], "touch", 2, line),
    )


def demo_from_record(rec, line=None) -> Demo:
    _require(isinstance(rec, dict), "record must be an object", line)
    for key in ("task_kind", "instruction", "frames"):
        _require(key in rec, f"record missing field '{key}'", line)
    try:
        kind = TaskKind(rec["task_kind"])
    except ValueError:
        raise SchemaViolation(f"unknown task_kind '{rec['task_kind']}'", line=line) from None
    _require(isinstance(rec["frames"], list) and rec["frames"], "frames must be a non-empty array", line)
    demo = Demo(
        task_kind=kind,
        instruction=str(rec["instruction"]),
        frames=[_frame_from_record(fr, line) for fr in rec["frames"]],
    )
    bad = validate_demo(demo)
    if bad:
        raise SchemaViolation("; ".join(bad), line=line)
    return demo


def demo_to_record(demo: Demo) -> dict:
    return {
        "task_kind": demo.task_kind.value,
        "instruction": demo.instruction,
        "frames": [
            {
                "t": fr.t,
                "pos": [float(v) for v in fr.pose.pos],
                "rot6d": [float(v) for v in fr.pose.rot6d],
                "open": fr.open,
                "joint_vel": [float(v) for v in fr.joint_vel],
                "touch": [float(v) for v in fr.touch],
            }
            for fr in demo.frames
        ],
    }


def load_demos(path) -> list[Demo]:
    """Parse a JSONL demo log; every record must pass validate_demo.

    Raises EmptyInput for a log with zero records, SchemaViolation (with the
    offending line number) for malformed records or bytes that are not
    UTF-8, IoError for unreadable files.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        # split as text-mode reading would: universal newlines
        lines = io.StringIO(blob.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        raise SchemaViolation(f"{path} is not UTF-8 text ({exc.reason})",
                              line=blob.count(b"\n", 0, exc.start) + 1) from None
    demos = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"invalid JSON ({exc.msg})", line=lineno) from exc
        demos.append(demo_from_record(rec, line=lineno))
    if not demos:
        raise EmptyInput(f"no demo records in {path}")
    return demos


def save_demos(demos, path):
    """Write demos as canonical JSONL: compact separators, insertion-ordered
    keys, shortest round-tripping float text. load -> save is byte-stable."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for demo in demos:
                fh.write(json.dumps(demo_to_record(demo), separators=(",", ":")))
                fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
