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
    """Return every violated invariant, each worded as a field of the demo's
    record: `field 'frames[2].t' <problem>`.

    An empty list means the demo is well formed. Violations are returned,
    not raised, so callers can report all of them at once.
    """
    if len(demo.frames) == 0:
        return ["field 'frames' must hold at least one frame"]
    violations = []
    prev_t = None
    for i, fr in enumerate(demo.frames):
        found = []   # (key, problem) pairs of this frame
        if prev_t is not None and fr.t <= prev_t:
            found.append(("t", f"must be above the previous frame's {prev_t}, got {fr.t}"))
        prev_t = fr.t
        if fr.t < 0:
            found.append(("t", f"must be non-negative, got {fr.t}"))
        if fr.open not in (0, 1):
            found.append(("open", "must be 0 or 1"))
        if not np.all(np.isfinite(fr.pose.pos)):
            found.append(("pos", "must be finite"))
        if not np.all(np.isfinite(fr.pose.rot6d)):
            found.append(("rot6d", "must be finite"))
        elif rot6d_is_degenerate(fr.pose.rot6d):
            found.append(("rot6d", "must not have parallel columns"))
        if not np.all(np.isfinite(fr.joint_vel)):
            found.append(("joint_vel", "must be finite"))
        if not np.all(np.isfinite(fr.touch)):
            found.append(("touch", "must be finite"))
        elif np.any(fr.touch < 0):
            found.append(("touch", "must be non-negative"))
        violations += [f"field 'frames[{i}].{key}' {problem}" for key, problem in found]
    return violations


def _in_range(value) -> bool:
    """A JSON number (int or float, and not a bool, which Python counts as an
    int) no larger in magnitude than F32_MAX, the range the `.gmap` header
    holds; squares and products of such numbers stay finite in float64.
    Compares a huge JSON integer exactly instead of overflowing."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= F32_MAX


class Fields:
    """One JSON object of an input file, read field by field: demo-log
    records and frames, scene files, and the CLI's comma lists. `path` names
    the file, `line` the line of a JSON Lines file, and `name` the object's
    own field path ('' for a whole record). Every error is a SchemaViolation
    `<path> field '<name>.<key>' <problem>`, prefixed `line N: ` in JSON
    Lines. Numbers are finite and at most F32_MAX in magnitude (`_in_range`)."""

    def __init__(self, rec, path, line=None, name=""):
        if not isinstance(rec, dict):
            raise SchemaViolation(f"{path} field '{name}' must be an object" if name
                                  else f"{path} record must be an object", line=line)
        self.rec, self.path, self.line, self.prefix = rec, path, line, f"{name}." if name else ""

    def error(self, key, problem) -> SchemaViolation:
        return SchemaViolation(f"{self.path} field '{self.prefix}{key}' {problem}", line=self.line)

    def get(self, key):
        if key not in self.rec:
            raise self.error(key, "is missing")
        return self.rec[key]

    def number(self, key) -> float:
        value = self.get(key)
        if not _in_range(value):
            raise self.error(key, f"must be a finite number of magnitude at most {F32_MAX!r}")
        return float(value)

    def flag(self, key) -> bool:
        """An optional true/false field, false when absent."""
        value = self.rec.get(key, False)
        if not isinstance(value, bool):
            raise self.error(key, "must be true or false")
        return value

    def vector(self, key, size) -> np.ndarray:
        value = self.get(key)
        if not (isinstance(value, list) and len(value) == size and all(_in_range(v) for v in value)):
            raise self.error(key, f"must be {size} finite numbers of magnitude at most {F32_MAX!r}")
        return np.asarray(value, dtype=float)

    def record(self, key) -> Fields:
        return Fields(self.get(key), self.path, self.line, self.prefix + key)

    def records(self, key) -> list[Fields]:
        """An array of objects, the i-th read as the record `key[i]`."""
        items = self.get(key)
        if not isinstance(items, list):
            raise self.error(key, "must be an array")
        return [Fields(item, self.path, self.line, f"{self.prefix}{key}[{i}]") for i, item in enumerate(items)]


def _frame_from_record(fr: Fields) -> Frame:
    t, open_state = fr.get("t"), fr.get("open")
    if type(t) is not int:   # type(): bool is an int
        raise fr.error("t", "must be an integer")
    if isinstance(open_state, bool) or open_state not in (0, 1):   # 0, 1, 0.0 or 1.0
        raise fr.error("open", "must be 0 or 1")
    return Frame(t=t, pose=Pose(fr.vector("pos", 3), fr.vector("rot6d", 6)), open=int(open_state),
                 joint_vel=fr.vector("joint_vel", 3), touch=fr.vector("touch", 2))


def demo_from_record(rec, path, line=None) -> Demo:
    """The demo of one record of the log at `path` (at `line`); a field
    error or a broken invariant raises SchemaViolation naming the file."""
    fields = Fields(rec, path, line)
    try:
        kind = TaskKind(fields.get("task_kind"))
    except ValueError:
        raise fields.error("task_kind", f"must be one of {', '.join(k.value for k in TaskKind)}") from None
    instruction = fields.get("instruction")
    if not isinstance(instruction, str):
        raise fields.error("instruction", "must be a string")
    demo = Demo(task_kind=kind, instruction=instruction,
                frames=[_frame_from_record(fr) for fr in fields.records("frames")])
    bad = validate_demo(demo)
    if bad:
        raise SchemaViolation(f"{path} " + "; ".join(bad), line=line)
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


def read_json(path, error, blob: bytes | None = None, lines: bool = False):
    """The JSON value of an input file, decoded from UTF-8 bytes: `blob`, or
    the file at `path` read whole. With lines=True the text is JSON Lines,
    split as text-mode reading splits it (universal newlines), and the
    result is a (line number, value) pair per non-blank line.

    A file that cannot be read raises IoError. Bytes that are not UTF-8, text
    that is not JSON, and JSON nested too deep to parse raise `error` naming
    `path`; in JSON Lines, a SchemaViolation-style `error` with the line."""
    def invalid(message, line):
        return error(f"{path} {message}", line=line) if lines else error(f"{path} {message}")

    if blob is None:
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise invalid(f"is not UTF-8 text ({exc.reason})", blob.count(b"\n", 0, exc.start) + 1) from None

    def parse(doc, line):
        try:
            return json.loads(doc)
        except json.JSONDecodeError as exc:
            raise invalid(f"is not valid JSON ({exc.msg if lines else exc})", line) from None
        except RecursionError:
            raise invalid("is JSON nested too deeply to parse", line) from None

    if not lines:
        return parse(text, None)
    return [(lineno, parse(raw, lineno))
            for lineno, raw in enumerate(io.StringIO(text, newline=None).readlines(), start=1)
            if raw.strip()]


def load_demos(path) -> list[Demo]:
    """Parse a JSONL demo log; every record must pass validate_demo.

    Raises EmptyInput for a log with zero records, SchemaViolation naming
    the file and line for malformed records or bytes that are not UTF-8 or
    not JSON, IoError for unreadable files.
    """
    demos = [demo_from_record(rec, path, lineno)
             for lineno, rec in read_json(path, SchemaViolation, lines=True)]
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
