"""Toy 3D tabletop world: a point gripper, spherical objects, distance-based
contact forces, scripted experts, occupancy rasterization and success checks.

There is no physics engine. The gripper moves toward its commanded target at
a capped speed, touch force falls off linearly with distance to the nearest
object surface, and closing near a graspable sphere rigidly attaches it.
The scripted experts are built so that their stop/toggle/contact structure
distills to a fixed number of sub-goal keyposes per task kind.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .demos import Demo, Fields, Frame, Pose, SchemaViolation, SubGoal, TaskKind, read_json
from .gravmap import Workspace, read_workspace, voxel_center

MAX_SPEED = 0.05       # m per frame
CONTACT_RADIUS = 0.02  # m; force ramps up inside this shell
GRASP_RADIUS = 0.03    # m; surface distance for attachment on close
MAX_FORCE = 0.15       # N; force at zero surface distance
SPIKE_FORCE = 0.05     # N; success threshold for touch tasks

IDENTITY_ROT6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])

# expert motion constants; chosen so touch forces are stable for at least
# two frames before every stop keypose except the deliberate contact stops
HOVER_TOUCH = 0.15     # fast-descent height: force jumps inside the window
HOVER_GRASP = 0.06     # slow-descent height: force saturates before the stop
SLOW_STEP = 0.015
LIFT = 0.12
RETREAT = 0.15

INSTRUCTIONS = {
    TaskKind.TOUCH_ONLY: "touch the target sphere",
    TaskKind.GRASP_PLACE: "pick up the sphere and place it in the goal region",
}


@dataclass
class SceneObject:
    center: np.ndarray
    radius: float
    graspable: bool = False

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.radius <= 0:
            raise ValueError("object radius must be positive")


@dataclass
class World:
    workspace: Workspace = Workspace()
    gripper_pos: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.5, 0.45]))
    gripper_open: int = 1
    attached: int | None = None
    objects: list = field(default_factory=list)
    goal_center: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.5, 0.05]))
    goal_tol: float = 0.05
    target_idx: int = 0
    tick: int = 0
    peak_touch: list = field(default_factory=list)

    def __post_init__(self):
        self.gripper_pos = np.asarray(self.gripper_pos, dtype=float)
        self.goal_center = np.asarray(self.goal_center, dtype=float)
        if not self.peak_touch:
            self.peak_touch = [0.0] * len(self.objects)

    @property
    def target(self) -> SceneObject:
        return self.objects[self.target_idx]


def _surface_distance(pos, obj: SceneObject) -> float:
    return float(np.linalg.norm(pos - obj.center) - obj.radius)


def step(world: World, target, open_state: int) -> Frame:
    """Advance one frame toward `target` with the gripper commanded to
    `open_state`. The world is updated in place; returns the observed Frame.

    Order of effects: move (speed-capped, clamped to the workspace), carry
    any attached object, apply the commanded gripper state (a closed gripper
    within the grasp radius of a graspable object attaches it, an open one
    detaches), then read the touch force from the nearest object.
    """
    target = np.asarray(target, dtype=float)
    old = world.gripper_pos
    delta = target - old
    dist = float(np.linalg.norm(delta))
    if dist <= MAX_SPEED:
        new = target.copy()
    else:
        new = old + delta * (MAX_SPEED / dist)
    new = np.clip(new, world.workspace.min, world.workspace.max)
    vel = new - old
    world.gripper_pos = new
    if world.attached is not None:
        world.objects[world.attached].center = new.copy()

    world.gripper_open = int(open_state)
    if open_state == 0 and world.attached is None:
        best, best_d = None, GRASP_RADIUS
        for i, obj in enumerate(world.objects):
            d = max(0.0, _surface_distance(new, obj))
            if obj.graspable and d <= best_d:
                best, best_d = i, d
        world.attached = best
    elif open_state == 1:
        world.attached = None

    force = 0.0
    if world.objects:
        dists = [_surface_distance(new, obj) for obj in world.objects]
        nearest = int(np.argmin(dists))
        force = float(np.clip((CONTACT_RADIUS - dists[nearest]) / CONTACT_RADIUS, 0.0, 1.0) * MAX_FORCE)
        if force > world.peak_touch[nearest]:
            world.peak_touch[nearest] = force

    frame = Frame(
        t=world.tick,
        pose=Pose(pos=new.copy(), rot6d=IDENTITY_ROT6D.copy()),
        open=int(open_state),
        joint_vel=vel,
        touch=np.array([force, force]),
    )
    world.tick += 1
    return frame


def check_success(world: World, task_kind: TaskKind) -> bool:
    """Touch tasks succeed once a force spike above 0.05 N was registered on
    the target; grasp-place succeeds when the target sits within the goal
    tolerance (inclusive) and the gripper is open."""
    if task_kind == TaskKind.TOUCH_ONLY:
        return world.peak_touch[world.target_idx] > SPIKE_FORCE
    return target_placed(world) and world.gripper_open == 1


def target_placed(world: World) -> bool:
    """The target's centre lies within the goal tolerance (inclusive); the
    squared comparison keeps the boundary exact."""
    d2 = float(((world.target.center - world.goal_center) ** 2).sum())
    return d2 <= world.goal_tol**2


def occupancy_grid(world: World, map_size: int, ws: Workspace | None = None) -> np.ndarray:
    """Boolean field: a voxel is occupied iff its center lies inside (or on)
    any object sphere. The gripper body never marks voxels.

    A voxel's squared distance d2 = x2 + y2 + z2 sums one non-negative term
    per axis, and rounding keeps it at least as large as each term. So a
    sphere's predicate d2 <= r**2 is evaluated only on the index box where
    every axis's term alone passes it, found on the S voxel centres of each
    axis; each voxel there sums the same terms in the same order as it
    would over the whole grid."""
    ws = ws or world.workspace
    ax = voxel_center(np.arange(map_size)[:, None], ws, map_size)   # (S, 3)
    occ = np.zeros((map_size, map_size, map_size), dtype=bool)
    for obj in world.objects:
        r2 = obj.radius**2
        terms = (ax - obj.center) ** 2                               # (S, 3)
        near = [np.flatnonzero(t <= r2) for t in terms.T]
        if not all(n.size for n in near):
            continue
        box = tuple(slice(n[0], n[-1] + 1) for n in near)
        x2, y2, z2 = (terms[b, axis] for axis, b in enumerate(box))
        occ[box] |= x2[:, None, None] + y2[None, :, None] + z2[None, None, :] <= r2
    return occ


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

def _train_x(rng):
    return rng.uniform(0.15, 0.45)


def _shifted_x(rng):
    return rng.uniform(0.55, 0.85)


def make_world(task_kind: TaskKind, rng: np.random.Generator, shifted: bool = False) -> World:
    """Randomized episode layout. The shifted variant moves the goal (the
    touch target, or the placement region) to the opposite table half."""
    home = np.array([0.5, 0.5, 0.45]) + rng.uniform(-0.05, 0.05, size=3)
    if task_kind == TaskKind.TOUCH_ONLY:
        r = rng.uniform(0.03, 0.05)
        x = _shifted_x(rng) if shifted else _train_x(rng)
        center = np.array([x, rng.uniform(0.15, 0.85), r])
        target = SceneObject(center=center, radius=r, graspable=False)
        return World(gripper_pos=home, objects=[target],
                     goal_center=center + np.array([0.0, 0.0, r]),
                     goal_tol=0.05)
    r = 0.03
    obj = np.array([_train_x(rng), rng.uniform(0.15, 0.85), r])
    while True:
        gx = _shifted_x(rng) if shifted else _train_x(rng)
        goal = np.array([gx, rng.uniform(0.15, 0.85), r])
        if np.linalg.norm(goal - obj) >= 0.2:
            break
    return World(gripper_pos=home,
                 objects=[SceneObject(center=obj, radius=r, graspable=True)],
                 goal_center=goal, goal_tol=rng.uniform(0.04, 0.06))


# ---------------------------------------------------------------------------
# scripted experts
# ---------------------------------------------------------------------------

class _Script:
    """Runs open-loop commands against a world and records frames."""

    def __init__(self, world: World):
        self.world = world
        self.frames: list[Frame] = []

    def _step(self, target, open_state):
        self.frames.append(step(self.world, target, open_state))

    def goto(self, target, open_state, dwell=2, step_len=None, max_frames=400):
        target = np.asarray(target, dtype=float)
        for _ in range(max_frames):
            if np.array_equal(self.world.gripper_pos, target):
                break
            if step_len is None:
                self._step(target, open_state)
            else:
                # intermediate targets keep the per-frame motion at step_len
                delta = target - self.world.gripper_pos
                dist = float(np.linalg.norm(delta))
                if dist <= step_len:
                    self._step(target, open_state)
                else:
                    self._step(self.world.gripper_pos + delta * (step_len / dist), open_state)
        for _ in range(dwell):
            self._step(target, open_state)

    def set_open(self, open_state, dwell=3):
        for _ in range(dwell):
            self._step(self.world.gripper_pos.copy(), open_state)


def _touch_script(world: World) -> list[Frame]:
    target = world.target
    touch_point = target.center + np.array([0.0, 0.0, target.radius])
    hover = touch_point + np.array([0.0, 0.0, HOVER_TOUCH])
    s = _Script(world)
    s.goto(hover, 1)
    s.goto(touch_point, 1)          # fast descent: force jumps at contact
    s.goto(hover, 1)
    return s.frames


def _grasp_script(world: World) -> list[Frame]:
    target = world.target
    grasp = target.center.copy()
    place = world.goal_center.copy()
    s = _Script(world)
    s.goto(grasp + [0.0, 0.0, HOVER_GRASP], 1)
    s.goto(grasp, 1, step_len=SLOW_STEP)  # slow: force saturates pre-stop
    s.set_open(0)
    s.goto(grasp + [0.0, 0.0, LIFT], 0)
    s.goto(place + [0.0, 0.0, 0.10], 0)
    s.goto(place, 0)
    s.set_open(1)
    s.goto(place + [0.0, 0.0, LIFT], 1)
    return s.frames


def scripted_expert(task_kind: TaskKind, seed) -> Demo:
    """Deterministic expert demo on a randomized layout.

    Touch tasks descend quickly onto the target (one contact stop with a
    clean force spike), grasp-place tasks approach slowly, close, carry and
    release (exactly two gripper toggles).
    """
    rng = np.random.default_rng(seed)
    world = make_world(task_kind, rng)
    if task_kind == TaskKind.TOUCH_ONLY:
        frames = _touch_script(world)
    else:
        frames = _grasp_script(world)
    return Demo(task_kind=task_kind, instruction=INSTRUCTIONS[task_kind], frames=frames)


def scripted_long_demo(seed) -> Demo:
    """Long-horizon drawer analog: grasp a handle sphere, pull it sideways,
    release, then push a second (non-graspable) item by touch and withdraw.

    Eleven keyposes by construction; the gripper/touch heuristics keep only
    the two toggles, the push contact and the terminal keypose.
    """
    rng = np.random.default_rng(seed)
    jitter = lambda: rng.uniform(-0.02, 0.02, size=3) * np.array([1.0, 1.0, 0.0])
    handle_c = np.array([0.25, 0.35, 0.23]) + jitter()
    item_c = np.array([0.65, 0.62, 0.04]) + jitter()
    world = World(
        gripper_pos=np.array([0.5, 0.5, 0.45]),
        objects=[
            SceneObject(center=handle_c, radius=0.03, graspable=True),
            SceneObject(center=item_c, radius=0.04, graspable=False),
        ],
        goal_center=item_c.copy(),
        goal_tol=0.05,
        target_idx=1,
    )
    pulled = handle_c + np.array([0.12, 0.0, 0.0])
    item_top = item_c + np.array([0.0, 0.0, 0.04])
    s = _Script(world)
    s.goto(handle_c + [0.0, 0.0, HOVER_GRASP], 1)
    s.goto(handle_c, 1, step_len=SLOW_STEP)
    s.set_open(0)                      # sub-goal: grip the handle
    s.goto(pulled, 0)
    s.set_open(1)                      # sub-goal: handle released after the pull
    s.goto(pulled + [0.0, 0.0, RETREAT], 1)
    s.goto(item_top + [0.0, 0.0, HOVER_TOUCH], 1)
    s.goto(item_top, 1)                # sub-goal: push contact on the item
    s.goto(item_top + [0.0, 0.0, HOVER_TOUCH], 1)
    s.goto(item_top + [0.15, 0.0, HOVER_TOUCH], 1)
    return Demo(task_kind=TaskKind.GRASP_PLACE,
                instruction="open the drawer analog, then push the item inside",
                frames=s.frames)


# ---------------------------------------------------------------------------
# scripted sub-goal provider (fills the same contract an external planner
# would: the position and openness of the current sub-task's goal)
# ---------------------------------------------------------------------------

def next_subgoal(world: World, task_kind: TaskKind) -> SubGoal:
    target = world.target
    if task_kind == TaskKind.TOUCH_ONLY:
        touch_point = target.center + np.array([0.0, 0.0, target.radius])
        if world.peak_touch[world.target_idx] > SPIKE_FORCE:
            pos, open_state = touch_point + np.array([0.0, 0.0, HOVER_TOUCH]), 1
        else:
            pos, open_state = touch_point, 1
    else:
        if world.attached == world.target_idx:
            pos, open_state = world.goal_center.copy(), 1
        elif target_placed(world) and world.gripper_open == 1:
            pos, open_state = world.goal_center + np.array([0.0, 0.0, LIFT]), 1
        else:
            pos, open_state = target.center.copy(), 0
    return SubGoal(g_pos=pos, g_open=open_state, g_rot=IDENTITY_ROT6D.copy())


# ---------------------------------------------------------------------------
# scene files
# ---------------------------------------------------------------------------

def save_scene(world: World, path):
    rec = {
        "workspace": {"min": list(world.workspace.min), "max": list(world.workspace.max)},
        "objects": [
            {"center": [float(v) for v in o.center], "radius": float(o.radius),
             "graspable": bool(o.graspable)}
            for o in world.objects
        ],
        "goal": {"center": [float(v) for v in world.goal_center], "tol": float(world.goal_tol)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, separators=(",", ":"))
        fh.write("\n")


def load_scene(path) -> World:
    """Read a scene file; a missing, mistyped or out-of-range field raises
    SchemaViolation naming the file and the field, and so do bytes that are
    not UTF-8 JSON. An unreadable file raises IoError."""
    rec = Fields(read_json(path, SchemaViolation), path)
    ws, goal, objs = rec.record("workspace"), rec.record("goal"), []
    for obj in rec.records("objects"):
        radius = obj.number("radius")
        if radius <= 0:
            raise obj.error("radius", "must be positive")
        objs.append(SceneObject(center=obj.vector("center", 3), radius=radius,
                                graspable=obj.flag("graspable")))
    workspace = read_workspace(rec, "workspace", ws.vector("min", 3), ws.vector("max", 3))
    return World(workspace=workspace, objects=objs,
                 goal_center=goal.vector("center", 3), goal_tol=goal.number("tol"))
