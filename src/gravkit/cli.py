"""Command-line frontend.

Deterministic file-based stages: gen-demos -> distill -> synth -> train-eval.
Machine-readable output goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 invalid input, 2 runtime or I/O failure. GRAVKIT_SEED serves as
a fallback seed for stochastic commands.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import sim
from .demos import EmptyInput, GravkitError, SchemaViolation, SubGoal, TaskKind, load_demos, save_demos
from .gravmap import (GravMapParams, Workspace, generate_gravmap, gmap_to_json,
                      save_field_slice_pgm, save_gmap)
from .keypose import KeyposeParams, distill_demo
from .policy import TrainConfig, evaluate, save_policy, train

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2

LONG_HORIZON = "long_horizon"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the CLI contract wants 1
    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _fallback_seed(seed):
    """--seed, else GRAVKIT_SEED, else None; either must be a non-negative
    integer."""
    if seed is not None:
        if seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {seed}")
        return seed
    env = os.environ.get("GRAVKIT_SEED")
    if not env:
        return None
    try:
        seed = int(env)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"GRAVKIT_SEED must be a non-negative integer, got {env!r}")
    return seed


def _require_seed(seed):
    seed = _fallback_seed(seed)
    if seed is None:
        raise ValueError("a --seed (or GRAVKIT_SEED) is required for stochastic commands")
    return seed


def _parse_floats(text, n, what):
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated values, got {len(parts)}")
    vals = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"{what} values must be finite, got {text!r}")
    return vals


def _workspace_from(args) -> Workspace:
    if getattr(args, "workspace", None):
        vals = _parse_floats(args.workspace, 6, "--workspace")
        return Workspace(tuple(vals[:3]), tuple(vals[3:]))
    return Workspace()


def _gravmap_params_from(args) -> GravMapParams:
    return GravMapParams(
        map_size=args.map_size, offset_range=args.offset_range,
        gripper_radius=args.gripper_radius, downsample=args.downsample_stride,
        num_points=args.num_points, sigma_avoid=args.sigma_avoid,
        avoid_clear_frac=args.avoid_clear_frac, closed_value=args.closed_value,
    )


def _add_gravmap_flags(p):
    d = GravMapParams()
    p.add_argument("--map-size", type=int, default=d.map_size)
    p.add_argument("--offset-range", type=int, default=d.offset_range)
    p.add_argument("--gripper-radius", type=float, default=d.gripper_radius)
    p.add_argument("--downsample-stride", type=int, default=d.downsample)
    p.add_argument("--num-points", type=int, default=d.num_points)
    p.add_argument("--sigma-avoid", type=float, default=d.sigma_avoid)
    p.add_argument("--avoid-clear-frac", type=float, default=d.avoid_clear_frac)
    p.add_argument("--closed-value", type=float, default=d.closed_value, choices=[0.0, -1.0])
    p.add_argument("--workspace", help="x0,y0,z0,x1,y1,z1 bounds in meters")


def _keypose_params_from(args) -> KeyposeParams:
    return KeyposeParams(eps_vel=args.eps_vel, stop_buffer=args.stop_buffer,
                         touch_threshold=args.touch_threshold, delta=args.delta,
                         gripper_threshold=args.gripper_threshold)


def _add_keypose_flags(p):
    d = KeyposeParams()
    p.add_argument("--eps-vel", type=float, default=d.eps_vel)
    p.add_argument("--stop-buffer", type=int, default=d.stop_buffer)
    p.add_argument("--touch-threshold", type=int, default=d.touch_threshold)
    p.add_argument("--delta", type=float, default=d.delta)
    p.add_argument("--gripper-threshold", type=int, default=d.gripper_threshold)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_demos(args) -> int:
    if args.n <= 0:
        raise ValueError(f"--n must be positive, got {args.n}")
    seed = _require_seed(args.seed)
    demos = []
    for i in range(args.n):
        if args.task == LONG_HORIZON:
            demos.append(sim.scripted_long_demo([seed, i]))
        else:
            demos.append(sim.scripted_expert(TaskKind(args.task), [seed, i]))
    save_demos(demos, args.out)
    print(f"wrote {len(demos)} demos to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_distill(args) -> int:
    demos = load_demos(args.demos)
    params = _keypose_params_from(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        for i, demo in enumerate(demos):
            keyposes, subgoals, assignment = distill_demo(demo, params)
            rec = {
                "demo": i,
                "keyposes": keyposes,
                "subgoal_keyposes": subgoals,
                "assignments": [
                    {"keypose": k, "g_pos": [float(v) for v in sg.g_pos],
                     "g_open": sg.g_open, "g_rot": [float(v) for v in sg.g_rot]}
                    for k, sg in sorted(assignment.items())
                ],
            }
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")
    print(f"distilled {len(demos)} demos to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_synth(args) -> int:
    seed = _require_seed(args.seed) if args.mode == "train" else _fallback_seed(args.seed)
    vals = _parse_floats(args.subgoal, 4, "--subgoal")
    if vals[3] not in (0.0, 1.0):
        raise ValueError("--subgoal openness must be 0 or 1")
    params = _gravmap_params_from(args)
    if args.pgm:
        if not args.slice:
            raise ValueError("--pgm needs --slice AXIS=INDEX")
        axis_name, _, idx = args.slice.partition("=")
        if axis_name not in ("x", "y", "z") or not idx.lstrip("-").isdigit():
            raise ValueError(f"malformed --slice {args.slice!r}, expected e.g. z=50")
        axis, index = "xyz".index(axis_name), int(idx)
        if not 0 <= index < params.map_size:
            raise ValueError(f"slice index {index} outside 0..{params.map_size - 1}")
    if args.scene:
        world = sim.load_scene(args.scene)
        ws = world.workspace if not args.workspace else _workspace_from(args)
        occ = sim.occupancy_grid(world, params.map_size, ws)
    else:
        ws = _workspace_from(args)
        occ = np.zeros((params.map_size,) * 3, dtype=bool)
    sub = SubGoal(g_pos=vals[:3], g_open=int(vals[3]), g_rot=[1, 0, 0, 0, 1, 0])
    # full-resolution fields only for the --pgm slice; the map bytes are the same
    result = generate_gravmap(sub, occ, current_open=args.current_open, ws=ws,
                              params=params, mode=args.mode, seed=seed,
                              with_fields=bool(args.pgm))
    gmap = result[0] if args.pgm else result
    save_gmap(gmap, args.out)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(gmap_to_json(gmap))
            fh.write("\n")
    if args.pgm:
        save_field_slice_pgm(result[1]["cost"], axis, index, args.pgm)
    print(f"wrote {len(gmap)} map points to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_train_eval(args) -> int:
    if args.episodes <= 0:
        raise ValueError("--episodes must be positive")
    if args.max_steps <= 0:
        raise ValueError("--max-steps must be positive")
    if args.eval_seed is not None and args.eval_seed < 0:
        raise ValueError("--eval-seed must be non-negative")
    seed = _require_seed(args.seed)
    demos = load_demos(args.demos)
    config = TrainConfig(iters=args.iters, seed=seed, lr=args.lr, batch=args.batch)
    policy, _ = train(config, demos)
    if args.out_model:
        save_policy(policy, args.out_model)
        print(f"checkpoint written to {args.out_model}", file=sys.stderr)
    task = TaskKind(args.task)
    eval_seed = args.eval_seed if args.eval_seed is not None else seed
    rates = {
        "guided": evaluate(policy, task, args.episodes, eval_seed, guided=True,
                           shifted=args.shifted, max_steps=args.max_steps),
        "unguided": evaluate(policy, task, args.episodes, eval_seed, guided=False,
                             shifted=args.shifted, max_steps=args.max_steps),
        "episodes": args.episodes,
        "task": task.value,
        "shifted": bool(args.shifted),
        "final_loss": policy.meta["final_loss"],
    }
    print(json.dumps(rates, separators=(",", ":")))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="gravkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-demos", help="write scripted expert demos as JSONL")
    p.add_argument("--task", choices=[t.value for t in TaskKind] + [LONG_HORIZON], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_demos)

    p = sub.add_parser("distill", help="extract keyposes, sub-goal keyposes and goal assignments")
    p.add_argument("--demos", required=True)
    p.add_argument("--out", required=True)
    _add_keypose_flags(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("synth", help="synthesize a value map for one sub-goal")
    p.add_argument("--subgoal", required=True, help="x,y,z,open")
    p.add_argument("--scene", help="scene.json with obstacle spheres")
    p.add_argument("--mode", choices=["train", "infer"], default="infer")
    p.add_argument("--seed", type=int)
    p.add_argument("--current-open", type=int, choices=[0, 1], default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--json", help="also write a JSON mirror of the map")
    p.add_argument("--slice", help="AXIS=INDEX pre-downsampling cost slice")
    p.add_argument("--pgm", help="PGM path for the --slice export")
    _add_gravmap_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-eval", help="train a policy, checkpoint it, evaluate guided and unguided")
    p.add_argument("--demos", required=True)
    d = TrainConfig()
    p.add_argument("--iters", type=int, default=d.iters)
    p.add_argument("--lr", type=float, default=d.lr)
    p.add_argument("--batch", type=int, default=d.batch)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-model")
    p.add_argument("--episodes", type=int, default=25)
    p.add_argument("--eval-seed", type=int)
    p.add_argument("--task", choices=[t.value for t in TaskKind], default=TaskKind.TOUCH_ONLY.value)
    p.add_argument("--shifted", action="store_true", help="goal on the opposite table half")
    p.add_argument("--max-steps", type=int, default=25, help="prediction-step cap per episode")
    p.set_defaults(func=cmd_train_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    try:
        return args.func(args)
    except (EmptyInput, SchemaViolation, ValueError) as exc:
        print(f"gravkit: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (GravkitError, OSError) as exc:   # I/O, a diverged training run, other runtime faults
        print(f"gravkit: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
