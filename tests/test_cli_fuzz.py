"""Derandomized fuzzing of the CLI's file readers, run in-process.

Valid `distill` demo logs and `synth --scene` files are mutated (a JSON
field deleted, retyped, made non-finite or out of f32 range, the file
truncated or one byte flipped) and handed to `cli.main`. Whatever the
input, a run must end with a documented exit code, write exactly one
`gravkit:` line to stderr when it fails, raise no traceback and no numpy
warning, and write only finite numbers when it succeeds.
"""
import contextlib
import copy
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravkit import cli
from gravkit.demos import TaskKind, demo_to_record
from gravkit.gravmap import load_gmap
from gravkit.sim import scripted_expert

RETYPED = [True, False, None, "0.5", [], {}, 1, 0.5]
REPLACEMENTS = {"retype": RETYPED,
                "non-finite": [math.nan, math.inf, -math.inf],
                "out-of-range": [10**400, -10**400, 1e308]}   # finite in JSON, beyond f32 range

DEMO_RECORDS = [demo_to_record(scripted_expert(kind, 0))
                for kind in (TaskKind.TOUCH_ONLY, TaskKind.GRASP_PLACE)]
SCENE = {
    "workspace": {"min": [0.0, 0.0, 0.0], "max": [1.0, 1.0, 1.0]},
    "objects": [{"center": [0.8, 0.75, 0.7], "radius": 0.06, "graspable": False},
                {"center": [0.35, 0.7, 0.5], "radius": 0.05, "graspable": True}],
    "goal": {"center": [0.5, 0.5, 0.05], "tol": 0.05},
}


def json_paths(node, prefix=()):
    """Key/index paths to every value below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def encode_demos(records):
    return "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records).encode()


def encode_scene(scene):
    return json.dumps(scene, separators=(",", ":")).encode()


@st.composite
def mutated(draw, valid, encode):
    """One mutation of `valid` (a JSON value), returned as file bytes."""
    kind = draw(st.sampled_from(["delete", *REPLACEMENTS, "truncate", "flip"]))
    doc = copy.deepcopy(valid)
    if kind == "delete" or kind in REPLACEMENTS:
        *parent_path, key = draw(st.sampled_from(list(json_paths(valid))))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        if kind == "delete":
            del parent[key]
        else:
            parent[key] = draw(st.sampled_from(REPLACEMENTS[kind]))
    blob = encode(doc)
    if kind == "truncate":
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    elif kind == "flip":
        at = draw(st.integers(0, len(blob) - 1))
        blob = blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    return blob


def reject_constant(name):
    raise AssertionError(f"non-finite number {name} in the output")


def assert_finite_json(text):
    """Every number in `text` (one JSON document per line) is finite."""
    def walk(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for child in node:
                walk(child)
        elif isinstance(node, float):
            assert math.isfinite(node)

    for line in text.splitlines():
        walk(json.loads(line, parse_constant=reject_constant))


def run_main(argv):
    """cli.main in-process: (exit code, stderr). Fails on any warning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [str(w.message) for w in caught] == []
    stderr = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    failures = [line for line in stderr.splitlines() if line.startswith("gravkit:")]
    if code == 0:
        assert failures == []
    else:
        assert stderr.splitlines() == failures and len(failures) == 1, stderr
    return code, stderr


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_valid_inputs_exit_0(workdir):
    """The unmutated inputs pass, so every mutation starts from a run that works."""
    (workdir / "demos.jsonl").write_bytes(encode_demos(DEMO_RECORDS))
    assert run_main(["distill", "--demos", str(workdir / "demos.jsonl"),
                     "--out", str(workdir / "s.jsonl")])[0] == 0
    (workdir / "scene.json").write_bytes(encode_scene(SCENE))
    assert run_main(["synth", "--subgoal", "0.2,0.2,0.2,1", "--scene", str(workdir / "scene.json"),
                     "--out", str(workdir / "m.gmap")])[0] == 0


@settings(max_examples=250, derandomize=True, deadline=None)
@given(blob=mutated(DEMO_RECORDS, encode_demos))
def test_mutated_demo_log(workdir, blob):
    demos, out = workdir / "demos.jsonl", workdir / "subgoals.jsonl"
    demos.write_bytes(blob)
    out.unlink(missing_ok=True)
    code, _ = run_main(["distill", "--demos", str(demos), "--out", str(out)])
    if code == 0:
        assert_finite_json(out.read_text(encoding="utf-8"))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(blob=mutated(SCENE, encode_scene))
def test_mutated_scene_file(workdir, blob):
    scene, out, mirror = workdir / "scene.json", workdir / "m.gmap", workdir / "m.json"
    scene.write_bytes(blob)
    for path in (out, mirror):
        path.unlink(missing_ok=True)
    code, _ = run_main(["synth", "--subgoal", "0.2,0.2,0.2,1", "--scene", str(scene),
                        "--out", str(out), "--json", str(mirror)])
    if code == 0:
        assert len(load_gmap(out)) == 1024   # load_gmap rejects non-finite rows and bounds
        assert_finite_json(mirror.read_text(encoding="utf-8"))
