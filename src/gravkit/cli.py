"""Command-line frontend.

Deterministic file-based stages: gen-demos -> distill -> synth -> train-eval.
Machine-readable output goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 invalid input, 2 runtime or I/O failure. GRAVKIT_SEED serves as
a fallback seed for stochastic commands.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import sim
from .demos import EmptyInput, Fields, GravkitError, SchemaViolation, SubGoal, TaskKind, load_demos, save_demos
from .gravmap import (GravMapParams, generate_gravmap, gmap_to_json, read_workspace,
                      save_field_slice_pgm, save_gmap)
from .keypose import KeyposeParams, distill_demo
from .policy import TrainConfig, evaluate, save_policy, train

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2

LONG_HORIZON = "long_horizon"

# upper bounds of the count flags that the parameter dataclasses do not own
MAX_DEMOS = 10_000      # gen-demos --n
MAX_EPISODES = 10_000   # train-eval --episodes
MAX_STEPS = 1_000       # train-eval --max-steps


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


def _command_line(flag, text) -> Fields:
    """The comma list `text` of `flag` as a field of the command line, read
    by the number rules of input files: finite and at most F32_MAX in
    magnitude."""
    try:
        vals = [float(part) for part in text.split(",")]
    except ValueError:
        vals = None   # not numbers: the vector read rejects it, naming the flag
    return Fields({flag: vals}, "command line")


def _check_count(flag, value, limit):
    if value <= 0:
        raise ValueError(f"{flag} must be positive, got {value}")
    if value > limit:
        raise ValueError(f"{flag} must be at most {limit}, got {value}")


FLAG_NAMES = {"downsample": "--downsample-stride"}   # every other flag is --field-name


def param_flags(cls) -> dict:
    """{flag: field} of the parameter dataclass `cls`, in field order."""
    return {FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")): f for f in dataclasses.fields(cls)}


def _add_param_flags(p, cls):
    """One flag per field of `cls`, typed and defaulted by the field's default."""
    for flag, f in param_flags(cls).items():
        p.add_argument(flag, dest=f.name, metavar=flag[2:].replace("-", "_").upper(),
                       type=type(f.default), default=f.default)


def _params_from(args, cls):
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_demos(args) -> int:
    _check_count("--n", args.n, MAX_DEMOS)
    seed = _require_seed(args.seed)
    if args.task == LONG_HORIZON:
        demos = [sim.scripted_long_demo([seed, i]) for i in range(args.n)]
    else:
        demos = [sim.scripted_expert(TaskKind(args.task), [seed, i]) for i in range(args.n)]
    save_demos(demos, args.out)
    print(f"wrote {len(demos)} demos to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_distill(args) -> int:
    params = _params_from(args, KeyposeParams)
    demos = load_demos(args.demos)
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
    vals = _command_line("--subgoal", args.subgoal).vector("--subgoal", 4)
    if vals[3] not in (0.0, 1.0):
        raise ValueError("--subgoal openness must be 0 or 1")
    params = _params_from(args, GravMapParams)
    if args.slice and not args.pgm:
        raise ValueError("--slice needs --pgm")
    if args.pgm:
        if not args.slice:
            raise ValueError("--pgm needs --slice AXIS=INDEX")
        axis_name, _, idx = args.slice.partition("=")
        if axis_name not in ("x", "y", "z") or not idx.removeprefix("-").isdecimal():
            raise ValueError(f"malformed --slice {args.slice!r}, expected e.g. z=50")
        axis, index = "xyz".index(axis_name), int(idx)
        if not 0 <= index < params.map_size:
            raise ValueError(f"slice index {index} outside 0..{params.map_size - 1}")
    world = sim.load_scene(args.scene) if args.scene else sim.World()
    ws = world.workspace
    if args.workspace:
        line = _command_line("--workspace", args.workspace)
        bounds = line.vector("--workspace", 6)
        ws = read_workspace(line, "--workspace", bounds[:3], bounds[3:])
    occ = sim.occupancy_grid(world, params.map_size, ws)
    sub = SubGoal(g_pos=vals[:3], g_open=int(vals[3]), g_rot=sim.IDENTITY_ROT6D.copy())
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
    _check_count("--episodes", args.episodes, MAX_EPISODES)
    _check_count("--max-steps", args.max_steps, MAX_STEPS)
    if args.eval_seed is not None and args.eval_seed < 0:
        raise ValueError("--eval-seed must be non-negative")
    config = TrainConfig(iters=args.iters, seed=_require_seed(args.seed), lr=args.lr, batch=args.batch)
    demos = load_demos(args.demos)
    try:
        policy, _ = train(config, demos)
    except EmptyInput as exc:   # the demos held no transition; only the CLI knows their file
        raise EmptyInput(f"{exc} in {args.demos}") from None
    if args.out_model:
        save_policy(policy, args.out_model)
        print(f"checkpoint written to {args.out_model}", file=sys.stderr)
    task = TaskKind(args.task)
    eval_seed = args.eval_seed if args.eval_seed is not None else config.seed
    rates = {mode: evaluate(policy, task, args.episodes, eval_seed, guided=mode == "guided",
                            shifted=args.shifted, max_steps=args.max_steps)
             for mode in ("guided", "unguided")}
    rates.update(episodes=args.episodes, task=task.value, shifted=bool(args.shifted),
                 final_loss=policy.meta["final_loss"])
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
    _add_param_flags(p, KeyposeParams)
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
    _add_param_flags(p, GravMapParams)
    p.add_argument("--workspace", help="x0,y0,z0,x1,y1,z1 bounds in meters")
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
    except MemoryError as exc:   # a size that passes the checks but does not fit
        print(f"gravkit: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
