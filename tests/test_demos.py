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
    ("pos", [True, False, 0.3], "pos must be numeric"),
    ("touch", [0.0, False], "touch must be numeric"),
    ("open", True, "open must be 0 or 1"),
    ("t", True, "t must be an integer"),
])
def test_json_booleans_are_not_numbers(tmp_path, field, value, named):
    rec = demo_to_record(two_frame_demo())
    rec["frames"][1][field] = value
    path = tmp_path / "demos.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(SchemaViolation, match=f"^line 1: {named}$"):
        load_demos(path)


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
    with pytest.raises(SchemaViolation, match=f"^line 1: {field} must be finite, of magnitude at most "
                                              f"{re.escape(repr(F32_MAX))}$"):
        load_demos(path)


def test_numbers_at_f32_max_load():
    rec = demo_to_record(two_frame_demo())
    rec["frames"][1]["pos"] = [F32_MAX, -F32_MAX, 0.3]
    assert demo_from_record(rec).frames[1].pose.pos[0] == F32_MAX


def test_validate_flags_time_order():
    demo = synthetic_demo(3)
    demo.frames[1].t, demo.frames[2].t = 2, 1
    bad = validate_demo(demo)
    assert any("time order" in v and "frame 2" in v for v in bad)


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
