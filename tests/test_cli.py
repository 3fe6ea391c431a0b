import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from gravkit.cli import _gravmap_params_from, _keypose_params_from, build_parser
from gravkit.gravmap import GravMapParams
from gravkit.keypose import KeyposeParams
from gravkit.policy import TrainConfig

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
    parse = build_parser().parse_args
    args = parse(["synth", "--subgoal", "0.5,0.5,0.5,1", "--out", "m.gmap"])
    assert _gravmap_params_from(args) == GravMapParams()
    args = parse(["distill", "--demos", "d.jsonl", "--out", "s.jsonl"])
    assert _keypose_params_from(args) == KeyposeParams()
    args = parse(["train-eval", "--demos", "d.jsonl"])
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
        assert res.stderr.startswith(f"gravkit: line 1: {field} must be")
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
        assert res.stderr == f"gravkit: line 1: {field} must be finite, of magnitude at most 3.4028234663852886e+38\n"
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
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5", "--out", str(tmp_path / "m.gmap"))
        assert res.returncode == 1
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,2", "--out", str(tmp_path / "m.gmap"))
        assert res.returncode == 1

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

    @pytest.mark.parametrize("slice_args", [[], ["--slice", "z=500"]])
    def test_bad_pgm_slice_exit_1_writes_nothing(self, tmp_path, slice_args):
        out, mirror, pgm = tmp_path / "m.gmap", tmp_path / "m.json", tmp_path / "s.pgm"
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--out", str(out),
                      "--json", str(mirror), "--pgm", str(pgm), *slice_args)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
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
        assert res.stderr.startswith(f"gravkit: scene field '{field}' must be ")
        assert res.stderr.count("\n") == 1 and "magnitude at most 3.4028234663852886e+38" in res.stderr
        assert not out.exists()

    def test_huge_workspace_flag_exit_1(self, tmp_path):
        out = tmp_path / "m.gmap"
        res = run_cli("synth", "--subgoal", "0.5,0.5,0.5,1", "--workspace=-1e308,0,0,1e308,1,1",
                      "--out", str(out))
        assert res.returncode == 1
        assert res.stderr.startswith("gravkit: bounds min (-1e+308, 0.0, 0.0) max (1e+308, 1.0, 1.0) "
                                     "must be finite, of magnitude at most")
        assert res.stderr.count("\n") == 1 and not out.exists()

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

    @pytest.mark.parametrize("flag, value", [("--subgoal", "nan,0.5,0.5,1"),
                                             ("--subgoal", "inf,0,0,0"),
                                             ("--workspace", "0,0,0,inf,1,1")])
    def test_non_finite_float_flag_exit_1(self, tmp_path, flag, value):
        args = {"--subgoal": "0.5,0.5,0.5,1", flag: value}
        out = tmp_path / "m.gmap"
        res = run_cli("synth", *(a for item in args.items() for a in item), "--out", str(out))
        assert res.returncode == 1
        assert res.stderr == f"gravkit: {flag} values must be finite, got '{value}'\n"
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

    def test_diverging_training_exit_2(self, tiny_demos, tmp_path):
        res = run_cli("train-eval", "--demos", str(tiny_demos), "--iters", "5",
                      "--seed", "9", "--lr", "1e300", "--episodes", "1")
        assert res.returncode == 2, res.stderr
        assert re.fullmatch(r"gravkit: training diverged at iteration \d+: [^\n]+\n", res.stderr), res.stderr
        assert res.stdout == ""
