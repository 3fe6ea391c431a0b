import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gravkit import cli
from gravkit.cli import MAX_DEMOS, MAX_EPISODES, MAX_STEPS, _params_from, build_parser, param_flags
from gravkit.demos import Demo, TaskKind, save_demos
from gravkit.gravmap import GravMapParams
from gravkit.keypose import KeyposeParams
from gravkit.policy import TrainConfig
from gravkit.policy.train import MAX_BATCH, MAX_ITERS
from gravkit.sim import scripted_expert

train_mod = importlib.import_module("gravkit.policy.train")   # gravkit.policy.train is the function
RUN = [sys.executable, "-m", "gravkit.cli"]


def run_cli(*args, env=None):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "demos.jsonl"
    res = run_cli("gen-demos", "--task", "grasp_place", "--n", "4", "--seed", "7",
                  "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


def test_flag_defaults_are_the_dataclass_defaults():
    """synth and distill have exactly one flag per field of their parameter
    dataclass, defaulting to the field's default, and a command line with no
    such flag builds the default parameters."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for command, required, cls in [("synth", ["--subgoal", "0.5,0.5,0.5,1", "--out", "m.gmap"], GravMapParams),
                                   ("distill", ["--demos", "d.jsonl", "--out", "s.jsonl"], KeyposeParams)]:
        actions = commands[command]._actions
        for flag, field in param_flags(cls).items():
            [action] = [a for a in actions if a.dest == field.name]
            assert action.option_strings == [flag]
            assert action.default == field.default and action.type is type(field.default)
        assert _params_from(parser.parse_args([command, *required]), cls) == cls()
    assert param_flags(GravMapParams)["--downsample-stride"].name == "downsample"
    args = parser.parse_args(["train-eval", "--demos", "d.jsonl"])
    assert TrainConfig(iters=args.iters, lr=args.lr, batch=args.batch) == TrainConfig()


SEEDED_COMMANDS = {
    "gen-demos": ["gen-demos", "--task", "touch_only", "--n", "1", "--out", "{out}"],
    "synth": ["synth", "--subgoal", "0.5,0.5,0.5,1", "--mode", "train", "--out", "{out}"],
    "train-eval": ["train-eval", "--demos", "{demos}", "--iters", "5", "--episodes", "1",
                   "--out-model", "{out}"],
}


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
@pytest.mark.parametrize("flag, env_seed, named", [
    ("-1", None, "--seed must be a non-negative integer, got -1"),
    (None, "abc", "GRAVKIT_SEED must be a non-negative integer, got 'abc'"),
    (None, "-3", "GRAVKIT_SEED must be a non-negative integer, got '-3'"),
])
def test_bad_seed_exit_1_names_its_source(demo_file, tmp_path, command, flag, env_seed, named):
    out = tmp_path / "out"
    args = [a.format(out=out, demos=demo_file) for a in SEEDED_COMMANDS[command]]
    if flag is not None:
        args += ["--seed", flag]
    env = {k: v for k, v in os.environ.items() if k != "GRAVKIT_SEED"}
    if env_seed is not None:
        env["GRAVKIT_SEED"] = env_seed
    res = run_cli(*args, env=env)
    assert res.returncode == 1, res.stderr
    assert named in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == "" and not out.exists()


class TestGenDemos:
    def test_writes_requested_count(self, tmp_path):
        out = tmp_path / "d.jsonl"
        res = run_cli("gen-demos", "--task", "grasp_place", "--n", "20", "--seed", "7",
                      "--out", str(out))
        assert res.returncode == 0
        assert "RuntimeWarning" not in res.stderr
        assert len(out.read_text().splitlines()) == 20

    def test_zero_count_is_invalid(self, tmp_path):
        res = run_cli("gen-demos", "--task", "touch_only", "--n", "0", "--seed", "1",
                      "--out", str(tmp_path / "d.jsonl"))
        assert res.returncode == 1
        assert res.stderr == "gravkit: --n must be positive, got 0\n"

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run_cli("gen-demos", "--task", "touch_only", "--n", "3", "--seed", "5",
                           "--out", str(out)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_long_horizon_task(self, tmp_path):
        out = tmp_path / "long.jsonl"
        res = run_cli("gen-demos", "--task", "long_horizon", "--n", "1", "--seed", "0",
                      "--out", str(out))
        assert res.returncode == 0

    def test_missing_seed_is_invalid(self, tmp_path):
        res = run_cli("gen-demos", "--task", "touch_only", "--n", "1",
                      "--out", str(tmp_path / "d.jsonl"))
        assert res.returncode == 1

    def test_env_seed_fallback(self, tmp_path):
        import os
        env = dict(os.environ, GRAVKIT_SEED="5")
        a = tmp_path / "env.jsonl"
        assert run_cli("gen-demos", "--task", "touch_only", "--n", "2", "--out", str(a),
                       env=env).returncode == 0
        b = tmp_path / "flag.jsonl"
        assert run_cli("gen-demos", "--task", "touch_only", "--n", "2", "--seed", "5",
                       "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output_exit_2(self):
        res = run_cli("gen-demos", "--task", "touch_only", "--n", "1", "--seed", "1",
                      "--out", "/nonexistent-dir/x.jsonl")
        assert res.returncode == 2


class TestDistill:
    def test_grasp_record_lists_three_subgoals(self, demo_file, tmp_path):
        out = tmp_path / "subgoals.jsonl"
        res = run_cli("distill", "--demos", str(demo_file), "--out", str(out))
        assert res.returncode == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 4
        for i, rec in enumerate(records):
            assert rec["demo"] == i
            assert len(rec["subgoal_keyposes"]) == 3
            assert set(rec["subgoal_keyposes"]) <= set(rec["keyposes"])
            assert [a["keypose"] for a in rec["assignments"]] == rec["keyposes"]
            for a in rec["assignments"]:
                assert len(a["g_pos"]) == 3 and len(a["g_rot"]) == 6
                assert a["g_open"] in (0, 1)

    def test_empty_input_exit_1(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        res = run_cli("distill", "--demos", str(empty), "--out", str(tmp_path / "s.jsonl"))
        assert res.returncode == 1
        assert "no demo records" in res.stderr

    def test_schema_violation_reports_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"task_kind": "touch_only", "instruction": "x", "frames": []}\n')
        res = run_cli("distill", "--demos", str(bad), "--out", str(tmp_path / "s.jsonl"))
        assert res.returncode == 1
        assert "line 1" in res.stderr

    def test_repeated_frame_time_names_field(self, demo_file, tmp_path):
        rec = json.loads(demo_file.read_text().splitlines()[0])
        rec["frames"][2]["t"] = rec["frames"][1]["t"]
        bad, out = tmp_path / "bad.jsonl", tmp_path / "s.jsonl"
        bad.write_text(json.dumps(rec) + "\n")
        res = run_cli("distill", "--demos", str(bad), "--out", str(out))
        assert (res.returncode, res.stderr) == (1, f"gravkit: line 1: {bad} field 'frames[2].t' must be above "
                                                   "the previous frame's 1, got 1\n")
        assert not out.exists()

    def test_non_finite_eps_vel_exit_1(self, demo_file, tmp_path):
        out = tmp_path / "s.jsonl"
        res = run_cli("distill", "--demos", str(demo_file), "--eps-vel", "nan", "--out", str(out))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "eps_vel must be finite, got nan" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("pos", [True, False, 0.3]), ("open", True)])
    def test_boolean_number_exit_1(self, demo_file, tmp_path, field, value):
        rec = json.loads(demo_file.read_text().splitlines()[0])
        rec["frames"][2][field] = value
        bad, out = tmp_path / "bad.jsonl", tmp_path / "s.jsonl"
        bad.write_text(json.dumps(rec) + "\n")
        res = run_cli("distill", "--demos", str(bad), "--out", str(out))
        assert res.returncode == 1
        assert res.stderr.startswith(f"gravkit: line 1: {bad} field 'frames[2].{field}' must be")
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("field, index, value", [("pos", 0, 10**400), ("rot6d", 1, 1e308)],
                             ids=["pos-int-1e400", "rot6d-1e308"])
    def test_huge_number_exit_1(self, demo_file, tmp_path, field, index, value):
        """Demo-log numbers beyond f32 range are rejected by name, as scene
        numbers are, before they overflow a conversion or a norm."""
        rec = json.loads(demo_file.read_text().splitlines()[0])
        rec["frames"][2][field][index] = value
        bad, out = tmp_path / "bad.jsonl", tmp_path / "s.jsonl"
        bad.write_text(json.dumps(rec) + "\n")
        res = run_cli("distill", "--demos", str(bad), "--out", str(out))
        assert res.returncode == 1
        size = len(rec["frames"][2][field])
        assert res.stderr == (f"gravkit: line 1: {bad} field 'frames[2].{field}' must be {size} finite numbers "
                              "of magnitude at most 3.4028234663852886e+38\n")
        assert not out.exists()

    def test_bad_flag_reported_before_demo_log_read(self, tmp_path):
        """The keypose parameters are checked first: a bad flag is the error
        even when the demo log is missing."""
        out = tmp_path / "s.jsonl"
        res = run_cli("distill", "--demos", str(tmp_path / "missing.jsonl"), "--stop-buffer", "-1",
                      "--out", str(out))
        assert (res.returncode, res.stderr) == (1, "gravkit: stop_buffer must be non-negative, got -1\n")
        assert not out.exists()

    def test_idempotent(self, demo_file, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run_cli("distill", "--demos", str(demo_file), "--out", str(out)).returncode == 0
        assert a.read_bytes() == b.read_bytes()


class TestSynth:
    def test_infer_map_has_1024_points(self, tmp_path):
        out = tmp_path / "m.gmap"
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--mode", "infer",
                      "--out", str(out))
        assert res.returncode == 0
        from gravkit.gravmap import load_gmap
        assert len(load_gmap(out)) == 1024

    def test_train_mode_seeded_determinism(self, tmp_path):
        a, b = tmp_path / "a.gmap", tmp_path / "b.gmap"
        for out in (a, b):
            res = run_cli("synth", "--subgoal", "0.4,0.6,0.2,0", "--mode", "train",
                          "--seed", "3", "--out", str(out))
            assert res.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_subgoal_exit_1(self, tmp_path):
        for value in ("0.5,0.5,0.5", "0.5,0.5,x,1"):
            res = run_cli("synth", "--subgoal", value, "--out", str(tmp_path / "m.gmap"))
            assert res.returncode == 1
            assert res.stderr.startswith("gravkit: command line field '--subgoal' must be 4 finite numbers")
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,2", "--out", str(tmp_path / "m.gmap"))
        assert res.returncode == 1

    def test_huge_subgoal_clamps_to_boundary_voxel(self, tmp_path):
        """A sub-goal far beyond the workspace, and beyond the int64 range in
        voxels, maps as the boundary one does, with no cast warning."""
        outs = [tmp_path / "huge.gmap", tmp_path / "edge.gmap"]
        for value, out in zip(("1e17,0.5,0.5,1", "1,0.5,0.5,1"), outs):
            res = subprocess.run([sys.executable, "-W", "error", *RUN[1:], "synth", "--subgoal", value,
                                  "--out", str(out)], capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_train_mode_without_seed_exit_1(self, tmp_path):
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--mode", "train",
                      "--out", str(tmp_path / "m.gmap"))
        assert res.returncode == 1

    def test_pgm_slice_darkest_at_subgoal(self, tmp_path):
        out, pgm = tmp_path / "m.gmap", tmp_path / "s.pgm"
        res = run_cli("synth", "--subgoal", "0.35,0.7,0.5,1", "--mode", "infer",
                      "--out", str(out), "--slice", "z=50", "--pgm", str(pgm))
        assert res.returncode == 0, res.stderr
        blob = pgm.read_bytes()
        assert blob.startswith(b"P5\n100 100\n255\n")
        img = np.frombuffer(blob.split(b"\n255\n", 1)[1], dtype=np.uint8).reshape(100, 100)
        assert divmod(int(np.argmin(img)), 100) == (35, 70)

    @pytest.mark.parametrize("slice_args", [
        ["--pgm"], ["--pgm", "--slice", "z=500"], ["--slice", "q=abc"],
        ["--pgm", "--slice", "z=\u00b2"], ["--pgm", "--slice", "z=--5"],
    ])
    def test_bad_pgm_slice_exit_1_writes_nothing(self, tmp_path, slice_args):
        """`--pgm` takes the PGM path, and `--slice` is checked whenever it
        is given; each error names the flag it is about."""
        out, mirror, pgm = tmp_path / "m.gmap", tmp_path / "m.json", tmp_path / "s.pgm"
        args = [a for flag in slice_args for a in ((flag, str(pgm)) if flag == "--pgm" else (flag,))]
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--out", str(out),
                      "--json", str(mirror), *args)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "slice" in res.stderr
        assert not out.exists() and not mirror.exists() and not pgm.exists()

    def test_scene_occupancy_consumed(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "workspace": {"min": [0, 0, 0], "max": [1, 1, 1]},
            "objects": [{"center": [0.8, 0.8, 0.8], "radius": 0.06, "graspable": False}],
            "goal": {"center": [0.2, 0.2, 0.2], "tol": 0.05},
        }))
        with_scene, without = tmp_path / "a.gmap", tmp_path / "b.gmap"
        assert run_cli("synth", "--subgoal", "0.2,0.2,0.2,1", "--scene", str(scene),
                       "--out", str(with_scene)).returncode == 0
        assert run_cli("synth", "--subgoal", "0.2,0.2,0.2,1",
                       "--out", str(without)).returncode == 0
        assert with_scene.read_bytes() != without.read_bytes()

    @pytest.mark.parametrize("scene, field", [
        ({"objects": []}, "workspace"),
        ({"workspace": {"min": [0, 0, 0], "max": [1, 1, 1]}, "objects": 5,
          "goal": {"center": [0.2, 0.2, 0.2], "tol": 0.05}}, "objects"),
        ({"workspace": {"min": [0, 0, 0], "max": [1, 1, 1]},
          "objects": [{"center": [0.8, 0.8, 0.8], "radius": "big"}],
          "goal": {"center": [0.2, 0.2, 0.2], "tol": 0.05}}, "objects[0].radius"),
        ({"workspace": {"min": [0, 0, 0], "max": [1, 1, 1]},
          "objects": [{"center": [0.8, 0.8, 0.8], "radius": True}],
          "goal": {"center": [0.2, 0.2, 0.2], "tol": 0.05}}, "objects[0].radius"),
        ({"workspace": {"min": [0, 0, 0], "max": [1, 1, 1]},
          "objects": [{"center": [0.8, 0.8, 0.8], "radius": 0.06, "graspable": "false"}],
          "goal": {"center": [0.2, 0.2, 0.2], "tol": 0.05}}, "objects[0].graspable"),
    ])
    def test_malformed_scene_exit_1(self, tmp_path, scene, field):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        res = run_cli("synth", "--subgoal", "0.2,0.2,0.2,1", "--scene", str(path),
                      "--out", str(tmp_path / "m.gmap"))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert f"'{field}'" in res.stderr

    @pytest.mark.parametrize("path, value, field", [
        (("objects", 0, "center", 0), 1e300, "objects[0].center"),
        (("objects", 0, "center", 1), 10**400, "objects[0].center"),
        (("objects", 0, "radius"), 1e300, "objects[0].radius"),
        (("objects", 0, "radius"), 10**400, "objects[0].radius"),
        (("goal", "tol"), -3.5e38, "goal.tol"),
        (("workspace", "min", 0), -1e308, "workspace.min"),
        (("workspace", "max", 0), 1e308, "workspace.max"),
    ], ids=["center-1e300", "center-int-1e400", "radius-1e300", "radius-int-1e400", "tol--3.5e38",
            "min--1e308", "max-1e308"])
    def test_huge_scene_number_exit_1(self, tmp_path, path, value, field):
        """Scene numbers beyond f32 range (the `.gmap` header's) are rejected
        by name before they overflow a square or the header."""
        scene = {"workspace": {"min": [0, 0, 0], "max": [1, 1, 1]},
                 "objects": [{"center": [0.8, 0.8, 0.8], "radius": 0.06}],
                 "goal": {"center": [0.2, 0.2, 0.2], "tol": 0.05}}
        rec = scene
        for key in path[:-1]:
            rec = rec[key]
        rec[path[-1]] = value
        scene_file, out = tmp_path / "scene.json", tmp_path / "m.gmap"
        scene_file.write_text(json.dumps(scene))
        res = run_cli("synth", "--subgoal", "0.2,0.2,0.2,1", "--scene", str(scene_file), "--out", str(out))
        assert res.returncode == 1
        assert res.stderr.startswith(f"gravkit: {scene_file} field '{field}' must be ")
        assert res.stderr.count("\n") == 1 and "magnitude at most 3.4028234663852886e+38" in res.stderr
        assert not out.exists()

    def test_huge_workspace_flag_exit_1(self, tmp_path):
        out = tmp_path / "m.gmap"
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--workspace=-1e308,0,0,1e308,1,1",
                      "--out", str(out))
        assert res.returncode == 1
        assert res.stderr == ("gravkit: command line field '--workspace' must be 6 finite numbers "
                              "of magnitude at most 3.4028234663852886e+38\n")
        assert not out.exists()

    def test_degenerate_workspace_exit_1(self, tmp_path):
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--workspace", "0,0,0,1,1,0",
                      "--out", str(tmp_path / "m.gmap"))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "workspace": {"min": [0, 0, 0], "max": [1, 0, 1]}, "objects": [],
            "goal": {"center": [0.2, 0.2, 0.2], "tol": 0.05},
        }))
        res = run_cli("synth", "--subgoal", "0.2,0.2,0.2,1", "--scene", str(scene),
                      "--out", str(tmp_path / "m.gmap"))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr

    def test_workspace_order_names_flag_as_scene_names_field(self, tmp_path):
        """An unordered --workspace gets the rule text a scene file's
        `workspace` field gets, naming the flag."""
        rule = "min must be strictly below max on every axis\n"
        out, scene = tmp_path / "m.gmap", tmp_path / "scene.json"
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--workspace", "0,0,0,1,1,0", "--out", str(out))
        assert (res.returncode, res.stderr) == (1, f"gravkit: command line field '--workspace' {rule}")
        scene.write_text(json.dumps({"workspace": {"min": [0, 0, 0], "max": [1, 0, 1]}, "objects": [],
                                     "goal": {"center": [0.2, 0.2, 0.2], "tol": 0.05}}))
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--scene", str(scene), "--out", str(out))
        assert (res.returncode, res.stderr) == (1, f"gravkit: {scene} field 'workspace' {rule}")
        assert not out.exists()

    def test_closed_value_other_than_0_or_minus_1_exit_1(self, tmp_path):
        """The library's rule: GravMapParams refuses it, as the flag does."""
        with pytest.raises(ValueError, match="closed_value must be 0 or -1, got 0.5"):
            GravMapParams(closed_value=0.5)
        out = tmp_path / "m.gmap"
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--closed-value", "0.5", "--out", str(out))
        assert (res.returncode, res.stderr) == (1, "gravkit: closed_value must be 0 or -1, got 0.5\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--subgoal", "nan,0.5,0.5,1"),
                                             ("--subgoal", "inf,0,0,0"),
                                             ("--workspace", "0,0,0,inf,1,1"),
                                             ("--subgoal", "1e300,0.5,0.5,1"),
                                             ("--workspace", "0,0,0,1,1,-3.5e38")])
    def test_non_finite_float_flag_exit_1(self, tmp_path, flag, value):
        """The comma lists follow the number rule of input files: finite and
        at most F32_MAX in magnitude, named as a field of the command line."""
        args = {"--subgoal": "0.5,0.5,0.5,1", flag: value}
        out = tmp_path / "m.gmap"
        res = run_cli("synth", *(a for item in args.items() for a in item), "--out", str(out))
        assert res.returncode == 1
        size = 4 if flag == "--subgoal" else 6
        assert res.stderr == (f"gravkit: command line field '{flag}' must be {size} finite numbers "
                              "of magnitude at most 3.4028234663852886e+38\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, with_scene", [("--sigma-avoid", "nan", False),
                                                         ("--gripper-radius", "inf", False),
                                                         ("--sigma-avoid", "inf", True)])
    def test_non_finite_map_param_exit_1(self, tmp_path, flag, value, with_scene):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "workspace": {"min": [0, 0, 0], "max": [1, 1, 1]},
            "objects": [{"center": [0.8, 0.8, 0.8], "radius": 0.06, "graspable": False}],
            "goal": {"center": [0.2, 0.2, 0.2], "tol": 0.05},
        }))
        out = tmp_path / "m.gmap"
        res = run_cli("synth", "--subgoal", "0.2,0.2,0.2,1", flag, value, "--out", str(out),
                      *(["--scene", str(scene)] if with_scene else []))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert f"{flag[2:].replace('-', '_')} must be finite, got {value}" in res.stderr
        assert not out.exists()

    def test_unknown_flag_exit_1(self, tmp_path):
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--out",
                      str(tmp_path / "m.gmap"), "--frobnicate")
        assert res.returncode == 1

    def test_json_mirror(self, tmp_path):
        out, mirror = tmp_path / "m.gmap", tmp_path / "m.json"
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--out", str(out),
                      "--json", str(mirror))
        assert res.returncode == 0
        rec = json.loads(mirror.read_text())
        assert len(rec["points"]) == 1024 and rec["workspace"]["min"] == [0, 0, 0]


@pytest.fixture(scope="module")
def tiny_demos(tmp_path_factory):
    path = tmp_path_factory.mktemp("te") / "d.jsonl"
    assert run_cli("gen-demos", "--task", "touch_only", "--n", "3", "--seed", "2",
                   "--out", str(path)).returncode == 0
    return path


class TestTrainEval:
    def test_json_schema_and_determinism(self, tiny_demos, tmp_path):
        outputs = []
        models = []
        for tag in ("a", "b"):
            model = tmp_path / f"{tag}.bin"
            res = run_cli("train-eval", "--demos", str(tiny_demos), "--iters", "40",
                          "--seed", "9", "--episodes", "2", "--eval-seed", "1",
                          "--out-model", str(model))
            assert res.returncode == 0, res.stderr
            outputs.append(res.stdout)
            models.append(model.read_bytes())
        assert outputs[0] == outputs[1]
        assert models[0] == models[1]
        rec = json.loads(outputs[0])
        for key in ("guided", "unguided", "episodes"):
            assert key in rec
        assert rec["episodes"] == 2
        assert 0.0 <= rec["guided"] <= 1.0 and 0.0 <= rec["unguided"] <= 1.0

    @pytest.mark.parametrize("flag, value", [("--episodes", "0"), ("--eval-seed", "-1"),
                                             ("--max-steps", "0"), ("--max-steps", "-3")])
    def test_bad_eval_flag_exit_1_before_training(self, tiny_demos, tmp_path, flag, value):
        model = tmp_path / "m.bin"
        res = run_cli("train-eval", "--demos", str(tiny_demos), "--iters", "5", "--seed", "9",
                      "--out-model", str(model), flag, value)
        assert res.returncode == 1, res.stderr
        assert flag in res.stderr
        assert res.stdout == ""
        assert not model.exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--iters", "0", "iters must be positive, got 0"),
        ("--batch", "-2", "batch must be positive, got -2"),
        ("--lr", "0", "lr must be positive, got 0.0"),
        ("--lr", "nan", "lr must be positive, got nan"),
    ])
    def test_bad_training_flag_exit_1_names_field_and_value(self, tiny_demos, tmp_path, flag,
                                                            value, named):
        model = tmp_path / "m.bin"
        res = run_cli("train-eval", "--demos", str(tiny_demos), "--iters", "5", "--seed", "9",
                      "--out-model", str(model), flag, value)
        assert res.returncode == 1, res.stderr
        assert named in res.stderr
        assert res.stdout == ""
        assert not model.exists()

    @pytest.mark.parametrize("n_frames", [1, 2, 3, 4])
    def test_short_demos(self, tmp_path, n_frames):
        """A one-frame demo distills to no transition: a log of only such
        demos is invalid input with one `gravkit:` line, not a traceback."""
        demo = scripted_expert(TaskKind.TOUCH_ONLY, 0)
        demos = tmp_path / "d.jsonl"
        save_demos([Demo(demo.task_kind, demo.instruction, demo.frames[:n_frames])] * 2, demos)
        res = run_cli("train-eval", "--demos", str(demos), "--iters", "5", "--seed", "9",
                      "--episodes", "1")
        if n_frames == 1:
            assert (res.returncode, res.stdout) == (1, "")
            assert res.stderr == f"gravkit: no training transitions distilled from demos in {demos}\n"
        else:
            assert res.returncode == 0, res.stderr
            assert json.loads(res.stdout)["episodes"] == 1

    def test_diverging_training_exit_2(self, tiny_demos, tmp_path):
        res = run_cli("train-eval", "--demos", str(tiny_demos), "--iters", "5",
                      "--seed", "9", "--lr", "1e300", "--episodes", "1")
        assert res.returncode == 2, res.stderr
        assert re.fullmatch(r"gravkit: training diverged at iteration \d+: [^\n]+\n", res.stderr), res.stderr
        assert res.stdout == ""


class TestSizeBounds:
    """A size beyond its documented bound is invalid input, refused before
    anything is allocated. The map size bounds the stride and point count
    too."""

    @pytest.mark.parametrize("size, stride", [(257, 1), (1000, 10), (1000000, 10000)])
    def test_synth_map_size_over_limit_exit_1(self, tmp_path, size, stride):
        out = tmp_path / "m.gmap"
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--map-size", str(size),
                      "--downsample-stride", str(stride), "--out", str(out))
        assert res.returncode == 1, res.stderr
        assert res.stderr == f"gravkit: map_size must be at most 256, got {size}\n"
        assert res.stdout == "" and not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--sigma-avoid", "1e300", "sigma_avoid must be at most 100, got 1e+300"),
        ("--offset-range", str(10**20), f"offset_range must be at most 100, got {10**20}"),
        ("--offset-range", "-1", "offset_range must be non-negative, got -1")])
    def test_synth_voxel_count_out_of_range_exit_1(self, tmp_path, flag, value, message):
        """The jitter and the smoothing sigma are at most map_size voxels."""
        out = tmp_path / "m.gmap"
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--mode", "train", "--seed", "1",
                      flag, value, "--out", str(out))
        assert (res.returncode, res.stdout, res.stderr) == (1, "", f"gravkit: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, limit, value", [
        ("gen-demos", "--n", MAX_DEMOS, MAX_DEMOS + 1),
        ("train-eval", "--iters", MAX_ITERS, MAX_ITERS + 1),
        ("train-eval", "--iters", MAX_ITERS, 10**18),
        ("train-eval", "--batch", MAX_BATCH, MAX_BATCH + 1),
        ("train-eval", "--episodes", MAX_EPISODES, MAX_EPISODES + 1),
        ("train-eval", "--max-steps", MAX_STEPS, MAX_STEPS + 1)])
    def test_count_over_limit_exit_1(self, tiny_demos, tmp_path, command, flag, limit, value):
        """The error names the value and the limit, and the TrainConfig field
        for --iters and --batch."""
        out = tmp_path / "out"
        args = {"gen-demos": ["--task", "touch_only", "--out", str(out)],
                "train-eval": ["--demos", str(tiny_demos), "--out-model", str(out)]}[command]
        res = run_cli(command, *args, "--seed", "9", flag, str(value))
        name = flag[2:] if flag in ("--iters", "--batch") else flag
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == f"gravkit: {name} must be at most {limit}, got {value}\n"
        assert not out.exists()


class TestOutOfMemory:
    """A size that passes the checks but does not fit is a runtime error, not
    a traceback. numpy refuses these sizes at once, allocating nothing. Every
    size flag is bounded, so the test lifts the --iters bound to reach one."""

    def test_train_eval_iters_exit_2(self, tiny_demos, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(train_mod, "MAX_ITERS", 10**18)
        model = tmp_path / "m.bin"
        code = cli.main(["train-eval", "--demos", str(tiny_demos), "--iters", "1000000000000000000",
                         "--seed", "9", "--out-model", str(model)])
        res = capsys.readouterr()
        assert code == 2, res.err
        assert re.fullmatch(r"gravkit: out of memory: Unable to allocate [^\n]+\n", res.err), res.err
        assert res.out == "" and not model.exists()


NO_SCIPY_SCRIPT = """
import sys
from gravkit import cli
assert cli.main(sys.argv[1:]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


class TestDependencies:
    def test_no_scipy_at_run_time(self, tmp_path):
        """`import gravkit.cli` and an obstacle-scene synth, whose sphere
        survives clearing, load no scipy module."""
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "workspace": {"min": [0, 0, 0], "max": [1, 1, 1]},
            "objects": [{"center": [0.8, 0.8, 0.8], "radius": 0.06, "graspable": False}],
            "goal": {"center": [0.2, 0.2, 0.2], "tol": 0.05},
        }))
        res = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, "synth", "--subgoal", "0.2,0.2,0.2,1",
                              "--scene", str(scene), "--out", str(tmp_path / "m.gmap")],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_third_party_imports_are_the_declared_dependencies(self):
        import tomllib
        root = Path(__file__).resolve().parents[1]
        deps = tomllib.loads((root / "pyproject.toml").read_text())["project"]["dependencies"]
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps}
        imported = set()
        for path in (root / "src" / "gravkit").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        assert imported - set(sys.stdlib_module_names) - {"gravkit"} == declared


# the file formats' other halves: the program writes `.gmap` and reads scenes
UNREFERENCED_ALLOWED = {"load_gmap", "save_scene"}


def test_every_definition_is_referenced_in_the_package():
    """Each function, class and method defined in src/gravkit is named
    somewhere in src/gravkit outside its own definition (dunder methods
    aside), so the tests drive what the pipeline runs and no test-only
    entry point stays in the package. A function or class counts as
    referenced when it is read, as a name or an attribute, or imported. A
    method counts only when it is read as an attribute, since a bare name
    of its spelling is another binding (a local `abar` is not
    `NoiseSchedule.abar`). A module-level constant counts only when it is
    read as a name or an attribute, and a dataclass field only when it is
    read as an attribute: an import, a store or a keyword is no read."""
    def names(node, bare=True):
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and bare:
                yield n.id
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                yield n.attr
            elif isinstance(n, ast.alias):
                yield n.name

    root = Path(__file__).resolve().parents[1] / "src" / "gravkit"
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(root.rglob("*.py"))]
    methods = {id(item) for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for item in cls.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    counts = {bare: Counter(name for tree in trees for name in names(tree, bare))
              for bare in (True, False)}
    unreferenced = set()
    for tree in trees:
        for d in ast.walk(tree):
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (d.name.startswith("__") and d.name.endswith("__"))):
                bare = id(d) not in methods
                if counts[bare][d.name] == Counter(names(d, bare))[d.name]:
                    unreferenced.add(d.name)
    reads = [n for tree in trees for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]
    read_names = {n.id for n in reads if isinstance(n, ast.Name)}
    read_attrs = {n.attr for n in reads if isinstance(n, ast.Attribute)}
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                unreferenced.update(n.id for t in targets for n in ast.walk(t)
                                    if isinstance(n, ast.Name) and not n.id.startswith("__")
                                    and n.id not in read_names | read_attrs)
        for cls in ast.walk(tree):
            if (isinstance(cls, ast.ClassDef)
                    and any(ast.unparse(dec).startswith("dataclass") for dec in cls.decorator_list)):
                unreferenced.update(f"{cls.name}.{item.target.id}" for item in cls.body
                                    if isinstance(item, ast.AnnAssign)
                                    and item.target.id not in read_attrs)
    assert unreferenced == UNREFERENCED_ALLOWED
