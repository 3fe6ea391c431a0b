import json
import re

import numpy as np
import pytest

from gravkit.demos import (F32_MAX, Demo, EmptyInput, SchemaViolation, TaskKind, demo_from_record,
                           demo_to_record, load_demos, save_demos, validate_demo)
from gravkit.sim import scripted_expert, scripted_long_demo

from conftest import make_frame, synthetic_demo


def two_frame_demo():
    return Demo(task_kind=TaskKind.TOUCH_ONLY, instruction="poke it", frames=[
        make_frame(0, pos=(0.1, 0.2, 0.3), joint_vel=(0.01, 0.0, -0.02)),
        make_frame(1, pos=(0.15, 0.2, 0.3), open_state=0, touch=(0.11, 0.11)),
    ])


def test_empty_file_is_empty_input(tmp_path):
    path = tmp_path / "demos.jsonl"
    path.write_text("")
    with pytest.raises(EmptyInput):
        load_demos(path)


def test_unreadable_file_is_io_error(tmp_path):
    from gravkit.demos import IoError
    with pytest.raises(IoError):
        load_demos(tmp_path / "missing.jsonl")


def test_round_trip_is_byte_identical(tmp_path):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    save_demos([two_frame_demo()], p1)
    save_demos(load_demos(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_preserves_structure(tmp_path):
    path = tmp_path / "demos.jsonl"
    demo = two_frame_demo()
    save_demos([demo], path)
    loaded = load_demos(path)[0]
    assert loaded.task_kind == demo.task_kind
    assert loaded.instruction == demo.instruction
    assert len(loaded.frames) == len(demo.frames)
    for a, b in zip(loaded.frames, demo.frames):
        assert a.t == b.t and a.open == b.open
        np.testing.assert_array_equal(a.pose.pos, b.pose.pos)
        np.testing.assert_array_equal(a.touch, b.touch)


def test_wrong_rot6d_arity_is_schema_violation(tmp_path):
    rec = demo_to_record(two_frame_demo())
    rec["frames"][0]["rot6d"] = [1.0, 0.0, 0.0, 0.0, 1.0]  # 5 elements
    path = tmp_path / "demos.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(SchemaViolation) as exc:
        load_demos(path)
    assert exc.value.line == 1


def test_non_utf8_log_names_file_and_line(tmp_path):
    path = tmp_path / "demos.jsonl"
    good = json.dumps(demo_to_record(two_frame_demo())).encode()
    path.write_bytes(good + b"\n\n" + b"\xff\xfe" + good + b"\n")
    with pytest.raises(SchemaViolation, match=f"^line 3: {re.escape(str(path))} is not UTF-8 text") as exc:
        load_demos(path)
    assert exc.value.line == 3


@pytest.mark.parametrize("bad, named", [(b"[" * 10**5 + b"]" * 10**5, "is JSON nested too deeply to parse"),
                                        (b'{"task_kind": ', "is not valid JSON (Expecting value)")],
                         ids=["nested", "truncated"])
def test_unparsable_line_names_file_and_line(tmp_path, bad, named):
    path = tmp_path / "demos.jsonl"
    good = json.dumps(demo_to_record(two_frame_demo())).encode()
    path.write_bytes(good + b"\r\n" + bad + b"\n")
    with pytest.raises(SchemaViolation, match=f"^line 2: {re.escape(f'{path} {named}')}$") as exc:
        load_demos(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("mutate,expect", [
    (lambda r: r["frames"][0].pop("touch"), "missing"),
    (lambda r: r["frames"][0].update(open=2), "open"),
    (lambda r: r.update(task_kind="fly"), "task_kind"),
])
def test_malformed_records(tmp_path, mutate, expect):
    rec = demo_to_record(two_frame_demo())
    mutate(rec)
    path = tmp_path / "demos.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(SchemaViolation) as exc:
        load_demos(path)
    assert expect in str(exc.value)


@pytest.mark.parametrize("field, value, named", [
    ("pos", [True, False, 0.3], "pos must be 3 finite numbers"),
    ("touch", [0.0, False], "touch must be 2 finite numbers"),
    ("open", True, "open must be 0 or 1"),
    ("t", True, "t must be an integer"),
])
def test_json_booleans_are_not_numbers(tmp_path, field, value, named):
    """`named` is '<field> <problem>' and starts the problem's text; the
    error names the file and the field's full path."""
    rec = demo_to_record(two_frame_demo())
    rec["frames"][1][field] = value
    path = tmp_path / "demos.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(SchemaViolation) as exc:
        load_demos(path)
    assert str(exc.value).startswith(f"line 1: {path} field 'frames[1].{field}' {named.removeprefix(field + ' ')}")


@pytest.mark.parametrize("field, value", [("pos", 10**400), ("pos", -10**400), ("rot6d", 1e308),
                                          ("joint_vel", -3.5e38), ("touch", float("nan"))])
def test_numbers_beyond_f32_range_are_rejected(tmp_path, field, value):
    """Demo logs share the scene files' magnitude rule: a number must be
    finite and at most F32_MAX in magnitude, so no norm or square of it
    overflows float64."""
    rec = demo_to_record(two_frame_demo())
    rec["frames"][1][field][1] = value
    path = tmp_path / "demos.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(SchemaViolation) as exc:
        load_demos(path)
    size = len(rec["frames"][1][field])
    assert str(exc.value) == (f"line 1: {path} field 'frames[1].{field}' "
                              f"must be {size} finite numbers of magnitude at most {F32_MAX!r}")


def test_numbers_at_f32_max_load():
    rec = demo_to_record(two_frame_demo())
    rec["frames"][1]["pos"] = [F32_MAX, -F32_MAX, 0.3]
    assert demo_from_record(rec, "demos.jsonl").frames[1].pose.pos[0] == F32_MAX


@pytest.mark.parametrize("instruction", [5, None, {"a": [1]}, ["poke"], True])
def test_non_string_instruction_is_rejected(tmp_path, instruction):
    rec = demo_to_record(two_frame_demo())
    rec["instruction"] = instruction
    path = tmp_path / "demos.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(SchemaViolation) as exc:
        load_demos(path)
    assert str(exc.value) == f"line 1: {path} field 'instruction' must be a string"


@pytest.mark.parametrize("instruction", ["5", "null", "", "caf\u00e9 \u2603", "{\"a\":[1]}"])
def test_instruction_round_trip_is_byte_stable(tmp_path, instruction):
    """load -> save reproduces a saved log byte for byte, whatever text the
    instruction holds; a non-string one is rejected instead of stringified."""
    demo = two_frame_demo()
    demo.instruction = instruction
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_demos([demo], p1)
    save_demos(load_demos(p1), p2)
    assert p2.read_bytes() == p1.read_bytes()
    assert load_demos(p2)[0].instruction == instruction


def test_validate_flags_time_order():
    demo = synthetic_demo(3)
    demo.frames[1].t, demo.frames[2].t = 2, 1
    assert validate_demo(demo) == ["field 'frames[2].t' must be above the previous frame's 2, got 1"]


def test_validate_returns_every_violation_as_a_field():
    demo = synthetic_demo(3)
    demo.frames[0].t = -1
    demo.frames[2].touch[1] = -0.5
    assert validate_demo(demo) == ["field 'frames[0].t' must be non-negative, got -1",
                                   "field 'frames[2].touch' must be non-negative"]
    assert validate_demo(Demo(TaskKind.TOUCH_ONLY, "x", [])) == ["field 'frames' must hold at least one frame"]


def test_broken_invariant_in_a_log_names_file_and_field(tmp_path):
    """A demo invariant reads like a field error of the record."""
    rec = demo_to_record(synthetic_demo(3))
    rec["frames"][2]["t"] = 1
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(SchemaViolation) as exc:
        load_demos(path)
    assert str(exc.value) == f"line 1: {path} field 'frames[2].t' must be above the previous frame's 1, got 1"


def test_validate_ok_on_well_formed():
    assert validate_demo(synthetic_demo(5)) == []


def test_validate_flags_nan_touch():
    demo = synthetic_demo(3)
    demo.frames[1].touch[0] = np.nan
    assert any("touch" in v for v in validate_demo(demo))


def test_validate_flags_parallel_rot6d():
    demo = synthetic_demo(2)
    demo.frames[0].pose.rot6d = np.array([1.0, 0, 0, 2.0, 0, 0])
    assert any("rot6d" in v for v in validate_demo(demo))


def test_scripted_experts_validate_clean():
    for seed in range(50):
        assert validate_demo(scripted_expert(TaskKind.TOUCH_ONLY, seed)) == []
        assert validate_demo(scripted_expert(TaskKind.GRASP_PLACE, seed)) == []
    assert validate_demo(scripted_long_demo(0)) == []


def test_save_load_many(tmp_path):
    demos = [scripted_expert(TaskKind.GRASP_PLACE, s) for s in range(3)]
    path = tmp_path / "demos.jsonl"
    save_demos(demos, path)
    assert len(load_demos(path)) == 3
    assert len(path.read_text().splitlines()) == 3
