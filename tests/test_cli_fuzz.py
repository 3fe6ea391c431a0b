"""Derandomized fuzzing of the file readers and the command line, run in-process.

Valid `distill` demo logs and `synth --scene` files are mutated (a JSON
field deleted, retyped, made non-finite or out of f32 range, or replaced by
arrays nested 10^5 deep, the file truncated or one byte flipped) and handed
to `cli.main`. Whatever the input, a run must end with a documented exit
code, write exactly one `gravkit:` line to stderr when it fails, naming the
input file when the input is invalid (exit 1), raise no traceback and no
numpy warning, and write only finite numbers when it succeeds. The fixture
checkpoint's manifest gets the same mutations, plus negative and huge
numbers, through `load_policy`, which no CLI command calls yet.

On the command line, every `synth` and `distill` flag that a parameter
field declares (`cli.param_flags`) is set, one per run, to each value of a
fixed list and past its bound; the bounded count flags of `gen-demos` and
`train-eval` are set past theirs. A bad value may also end in argparse's
one-line usage error.
"""
import contextlib
import copy
import io
import json
import math
import re
import struct
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravkit import cli
from gravkit.demos import CorruptFile, TaskKind, demo_to_record
from gravkit.gravmap import GravMapParams, load_gmap
from gravkit.keypose import KeyposeParams
from gravkit.policy import load_policy
from gravkit.policy.model import CONFIG
from gravkit.policy.train import MAX_BATCH, MAX_ITERS
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


NEST_MARK = "nested-arrays-go-here"
NESTED = b"[" * 10**5 + b"]" * 10**5   # deeper than the JSON parser's recursion limit


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


MODEL = (Path(__file__).resolve().parents[1] / "benchmarks" / "fixture" / "model.bin").read_bytes()
MODEL_HEADER = 4 + struct.unpack_from("<I", MODEL)[0]
MANIFEST = json.loads(MODEL[4:MODEL_HEADER])
LAYERS = MANIFEST.pop("layers")   # test_policy flips their bytes; here they stay as written
WEIGHTS = MODEL[MODEL_HEADER:]
MANIFEST_REPLACEMENTS = {**REPLACEMENTS, "negative": [-1, -0.5, -10**6],
                         "huge": [10**6, 2**63, 10**18]}


def json_text(value):
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def encode_manifest(manifest):
    return json_text({**manifest, "layers": LAYERS}).encode()


def all_but_meta(text):
    """A manifest's JSON text without `meta`, or None when it does not parse
    as a JSON object."""
    try:
        manifest = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    if not isinstance(manifest, dict):
        return None
    manifest.pop("meta", None)
    return json_text(manifest)


def nest(blob):
    """`blob` with the JSON string NEST_MARK replaced by NESTED."""
    return blob.replace(json.dumps(NEST_MARK).encode(), NESTED)


@st.composite
def mutated(draw, valid, encode, replacements=REPLACEMENTS):
    """One mutation of `valid` (a JSON value), returned as file bytes."""
    kind = draw(st.sampled_from(["delete", *replacements, "nest", "truncate", "flip"]))
    doc = copy.deepcopy(valid)
    if kind in ("delete", "nest") or kind in replacements:
        *parent_path, key = draw(st.sampled_from(list(json_paths(valid))))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        if kind == "delete":
            del parent[key]
        else:
            parent[key] = NEST_MARK if kind == "nest" else draw(st.sampled_from(replacements[kind]))
    blob = encode(doc)
    if kind == "nest":
        blob = nest(blob)
    elif kind == "truncate":
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
    """cli.main in-process: (exit code, stderr). Fails on any warning. A
    usage error is argparse's one line, `gravkit <command>: error: ...`."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 1 and re.fullmatch(rf"gravkit {argv[0]}: error: [^\n]+\n", err.getvalue()), err.getvalue()
            return code, err.getvalue()
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
@example(blob=nest(encode_demos([DEMO_RECORDS[0], {**DEMO_RECORDS[1], "task_kind": NEST_MARK}])))
def test_mutated_demo_log(workdir, blob):
    demos, out = workdir / "demos.jsonl", workdir / "subgoals.jsonl"
    demos.write_bytes(blob)
    out.unlink(missing_ok=True)
    code, stderr = run_main(["distill", "--demos", str(demos), "--out", str(out)])
    if code == 1:
        assert str(demos) in stderr
    if code == 0:
        assert_finite_json(out.read_text(encoding="utf-8"))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(blob=mutated(SCENE, encode_scene))
@example(blob=nest(encode_scene({**SCENE, "workspace": NEST_MARK})))
def test_mutated_scene_file(workdir, blob):
    scene, out, mirror = workdir / "scene.json", workdir / "m.gmap", workdir / "m.json"
    scene.write_bytes(blob)
    for path in (out, mirror):
        path.unlink(missing_ok=True)
    code, stderr = run_main(["synth", "--subgoal", "0.2,0.2,0.2,1", "--scene", str(scene),
                             "--out", str(out), "--json", str(mirror)])
    if code == 1:
        assert str(scene) in stderr
    if code == 0:
        assert len(load_gmap(out)) == 1024   # load_gmap rejects non-finite rows and bounds
        assert_finite_json(mirror.read_text(encoding="utf-8"))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=mutated(MANIFEST, encode_manifest, MANIFEST_REPLACEMENTS))
@example(text=encode_manifest({**MANIFEST, "gravmap": {**MANIFEST["gravmap"], "map_size": 1_000_000,
                                                       "downsample": 1000}}))
@example(text=encode_manifest({**MANIFEST, "meta": {"note": "meta is free-form"}}))
@example(text=nest(encode_manifest({**MANIFEST, "meta": NEST_MARK})))
def test_mutated_checkpoint_manifest(workdir, text):
    """A checkpoint loads, with the fixture's weights, only when its
    configuration echo is the program's, and it does load when only `meta`
    moved; anything else is a CorruptFile naming the file."""
    path = workdir / "model.bin"
    path.write_bytes(struct.pack("<I", len(text)) + text + WEIGHTS)
    try:
        policy = load_policy(path)
    except CorruptFile as exc:
        assert str(exc).startswith(f"{path}: ")
        assert all_but_meta(text) != all_but_meta(MODEL[4:MODEL_HEADER]), "only meta moved"
    else:
        assert policy.param_bytes() == WEIGHTS
        manifest = json.loads(text.decode("utf-8"))
        assert json_text({name: manifest[name] for name in CONFIG}) == json_text(CONFIG)


FLAG_VALUES = ["0", "-1", "nan", "inf", "1e300", "many", "1", "256"]
PAST_BOUND = {"map_size": "257", "downsample": "3", "num_points": str(25**3 + 1), "closed_value": "0.5",
              "offset_range": "101", "sigma_avoid": "101"}
SYNTH_ARGV = ["synth", "--subgoal", "0.2,0.2,0.2,1", "--mode", "train", "--seed", "0"]
DEFAULT_WORK = (100 // 4) ** 3 * 1024   # lattice points times FPS picks of the default map


def flag_cases(cls):
    """(flag, value) for each flag that a field of `cls` declares, each of
    FLAG_VALUES and, where the field has one, the value past its bound."""
    return [(flag, value) for flag, field in cli.param_flags(cls).items()
            for value in FLAG_VALUES + ([PAST_BOUND[field.name]] if field.name in PAST_BOUND else [])]


def synth_work(argv):
    """Lattice points times FPS picks of a synth command line, 0 when its
    map parameters are invalid, so that it fails before any work."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            params = cli._params_from(cli.build_parser().parse_args(argv), GravMapParams)
    except (SystemExit, TypeError, ValueError):
        return 0
    return (params.map_size // params.downsample) ** 3 * params.num_points


# the size guard: no valid value runs a larger lattice or FPS than the default map's
SYNTH_CASES = [case for case in flag_cases(GravMapParams)
               if synth_work([*SYNTH_ARGV, "--out", "m.gmap", *case]) <= DEFAULT_WORK]


@pytest.mark.parametrize("flag, value", SYNTH_CASES)
def test_synth_flag_value(workdir, flag, value):
    scene, out = workdir / "flag-scene.json", workdir / "flag.gmap"
    scene.write_bytes(encode_scene(SCENE))
    out.unlink(missing_ok=True)
    code, _ = run_main([*SYNTH_ARGV, "--scene", str(scene), "--out", str(out), flag, value])
    assert code in (0, 1)
    if code == 0:
        load_gmap(out)   # rejects non-finite rows and bounds


@pytest.mark.parametrize("flag, value", flag_cases(KeyposeParams))
def test_distill_flag_value(workdir, flag, value):
    demos, out = workdir / "flag-demos.jsonl", workdir / "flag-subgoals.jsonl"
    demos.write_bytes(encode_demos(DEMO_RECORDS))
    out.unlink(missing_ok=True)
    code, _ = run_main(["distill", "--demos", str(demos), "--out", str(out), flag, value])
    assert code in (0, 1)
    if code == 0:
        assert_finite_json(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command, flag, limit", [
    ("gen-demos", "--n", cli.MAX_DEMOS), ("train-eval", "--iters", MAX_ITERS),
    ("train-eval", "--batch", MAX_BATCH), ("train-eval", "--episodes", cli.MAX_EPISODES),
    ("train-eval", "--max-steps", cli.MAX_STEPS)])
@pytest.mark.parametrize("past", [1, 10**18])
def test_count_flag_past_bound(workdir, command, flag, limit, past):
    """Refused before any work, naming the value and the limit."""
    demos, out = workdir / "count-demos.jsonl", workdir / "count-out"
    demos.write_bytes(encode_demos(DEMO_RECORDS))
    args = {"gen-demos": ["--task", "touch_only", "--out", str(out)],
            "train-eval": ["--demos", str(demos), "--out-model", str(out)]}[command]
    code, stderr = run_main([command, *args, "--seed", "0", flag, str(limit + past)])
    assert code == 1 and f"at most {limit}, got {limit + past}" in stderr
    assert not out.exists()
