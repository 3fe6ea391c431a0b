import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravkit.demos import IoError, SchemaViolation, TaskKind, validate_demo
from gravkit.gravmap import Workspace, voxel_center
from gravkit.keypose import discover_keyposes, distill_demo
from gravkit.sim import (CONTACT_RADIUS, GRASP_RADIUS, MAX_FORCE, MAX_SPEED,
                         SceneObject, World, check_success, load_scene, make_world,
                         next_subgoal, occupancy_grid, save_scene, scripted_expert,
                         scripted_long_demo, step, target_placed)

from oracles import occupancy_grid_oracle


def simple_world(**kw):
    defaults = dict(
        gripper_pos=np.array([0.5, 0.5, 0.4]),
        objects=[SceneObject(center=[0.5, 0.5, 0.05], radius=0.05, graspable=True)],
        goal_center=np.array([0.7, 0.7, 0.05]),
        goal_tol=0.05,
    )
    defaults.update(kw)
    return World(**defaults)


class TestStep:
    def test_hold_position(self):
        w = simple_world()
        frame = step(w, w.gripper_pos.copy(), 1)
        np.testing.assert_array_equal(frame.joint_vel, np.zeros(3))
        np.testing.assert_array_equal(frame.pose.pos, [0.5, 0.5, 0.4])
        assert frame.touch[0] == 0.0  # far above the sphere

    def test_speed_cap(self):
        w = simple_world()
        frame = step(w, [0.5, 0.5, 0.0], 1)
        assert np.linalg.norm(frame.joint_vel) == pytest.approx(MAX_SPEED, abs=1e-12)

    def test_touch_at_surface(self):
        w = simple_world(gripper_pos=np.array([0.5, 0.5, 0.10]))
        frame = step(w, [0.5, 0.5, 0.10], 1)
        assert frame.touch[0] == pytest.approx(MAX_FORCE, abs=1e-9)
        w2 = simple_world(gripper_pos=np.array([0.5, 0.5, 0.10 + CONTACT_RADIUS / 2]))
        f2 = step(w2, w2.gripper_pos.copy(), 1)
        assert 0.0 < f2.touch[0] < MAX_FORCE

    def test_force_formula(self):
        d = 0.005  # surface distance
        w = simple_world(gripper_pos=np.array([0.5, 0.5, 0.105]))
        frame = step(w, w.gripper_pos.copy(), 1)
        expect = (CONTACT_RADIUS - d) / CONTACT_RADIUS * MAX_FORCE
        assert frame.touch[0] == pytest.approx(expect, abs=1e-9)
        np.testing.assert_array_equal(frame.touch, frame.touch[::-1])  # two equal fingers

    def test_attach_and_carry(self):
        w = simple_world(gripper_pos=np.array([0.5, 0.5, 0.05]))
        step(w, [0.5, 0.5, 0.05], 0)
        assert w.attached == 0
        step(w, [0.5, 0.5, 0.2], 0)
        np.testing.assert_array_equal(w.objects[0].center, w.gripper_pos)

    def test_attach_needs_grasp_radius(self):
        far = 0.05 + GRASP_RADIUS + 0.01
        w = simple_world(gripper_pos=np.array([0.5, 0.5, 0.05 + far]))
        step(w, w.gripper_pos.copy(), 0)
        assert w.attached is None

    def test_non_graspable_never_attaches(self):
        w = simple_world(objects=[SceneObject(center=[0.5, 0.5, 0.05], radius=0.05)])
        w.gripper_pos = np.array([0.5, 0.5, 0.05])
        step(w, [0.5, 0.5, 0.05], 0)
        assert w.attached is None

    def test_open_detaches(self):
        w = simple_world(gripper_pos=np.array([0.5, 0.5, 0.05]))
        step(w, [0.5, 0.5, 0.05], 0)
        step(w, [0.5, 0.5, 0.3], 0)
        step(w, [0.5, 0.5, 0.3], 1)
        assert w.attached is None
        before = w.objects[0].center.copy()
        step(w, [0.1, 0.1, 0.3], 1)
        np.testing.assert_array_equal(w.objects[0].center, before)

    def test_workspace_clamp(self):
        w = simple_world(gripper_pos=np.array([0.01, 0.5, 0.5]))
        for _ in range(5):
            step(w, [-1.0, 0.5, 0.5], 1)
        assert w.gripper_pos[0] == 0.0

    def test_determinism(self):
        a, b = simple_world(), simple_world()
        for target, open_state in [([0.4, 0.4, 0.1], 1), ([0.5, 0.5, 0.05], 0)]:
            fa = step(a, target, open_state)
            fb = step(b, target, open_state)
            np.testing.assert_array_equal(fa.pose.pos, fb.pose.pos)
            np.testing.assert_array_equal(fa.touch, fb.touch)


class TestScriptedExperts:
    def test_touch_force_spike_in_band(self):
        for seed in range(25):
            demo = scripted_expert(TaskKind.TOUCH_ONLY, seed)
            peak = max(fr.touch[0] for fr in demo.frames)
            assert 0.1 <= peak <= 0.15

    def test_grasp_has_exactly_two_toggles(self):
        for seed in range(25):
            demo = scripted_expert(TaskKind.GRASP_PLACE, seed)
            toggles = sum(demo.frames[f].open != demo.frames[f - 1].open
                          for f in range(1, len(demo.frames)))
            assert toggles == 2

    def test_identical_seeds_identical_demos(self):
        a = scripted_expert(TaskKind.GRASP_PLACE, 17)
        b = scripted_expert(TaskKind.GRASP_PLACE, 17)
        assert len(a.frames) == len(b.frames)
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa.pose.pos, fb.pose.pos)
            np.testing.assert_array_equal(fa.touch, fb.touch)
            assert fa.open == fb.open

    def test_designed_subgoal_counts_100_seeds(self):
        for seed in range(100):
            touch = scripted_expert(TaskKind.TOUCH_ONLY, seed)
            grasp = scripted_expert(TaskKind.GRASP_PLACE, seed)
            assert validate_demo(touch) == []
            assert validate_demo(grasp) == []
            assert len(distill_demo(touch)[1]) == 2
            assert len(distill_demo(grasp)[1]) == 3

    def test_long_demo_structure(self):
        for seed in range(10):
            demo = scripted_long_demo(seed)
            assert validate_demo(demo) == []
            assert len(discover_keyposes(demo)) == 11
            assert len(distill_demo(demo)[1]) == 4

    def test_frames_inside_workspace(self):
        demo = scripted_expert(TaskKind.GRASP_PLACE, 3)
        for fr in demo.frames:
            assert np.all(fr.pose.pos >= 0.0) and np.all(fr.pose.pos <= 1.0)


class TestOccupancy:
    def test_empty_world(self):
        w = World(objects=[])
        assert not occupancy_grid(w, 40).any()

    def test_sphere_count_matches_bruteforce(self):
        w = simple_world(objects=[SceneObject(center=[0.5, 0.5, 0.5], radius=0.05)])
        occ = occupancy_grid(w, 100)
        centers = (np.arange(100) + 0.5) / 100
        count = 0
        for i in range(45, 56):
            for j in range(45, 56):
                for k in range(45, 56):
                    d2 = ((centers[i] - 0.5) ** 2 + (centers[j] - 0.5) ** 2
                          + (centers[k] - 0.5) ** 2)
                    count += d2 <= 0.05**2
        assert occ.sum() == count
        assert occ[50, 50, 50]

    def test_gripper_does_not_mark(self):
        w = World(objects=[], gripper_pos=np.array([0.5, 0.5, 0.5]))
        assert not occupancy_grid(w, 50).any()

    # unit, offset and non-cubic workspaces, and one whose voxel centres are
    # coarser than its cell: max is the next float above min, so a cell is
    # 1/S of an ulp of min and the centres take only two values per axis
    WORKSPACES = [Workspace(), Workspace((-0.3, 0.1, 0.0), (0.7, 1.6, 0.4)),
                  Workspace((-2.0, -1.0, 5.0), (-1.5, 3.0, 5.25)),
                  Workspace((1.0, 1.0, 1.0), (float(np.nextafter(1.0, 2.0)),) * 3)]

    @staticmethod
    def assert_matches_oracle(world, s, ws):
        occ = occupancy_grid(world, s, ws)
        assert occ.dtype == bool and occ.shape == (s, s, s)
        assert occ.tobytes() == occupancy_grid_oracle(world, s, ws).tobytes()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data(), s=st.integers(1, 40), ws=st.sampled_from(WORKSPACES),
           count=st.integers(0, 3))
    def test_matches_full_grid_rasterisation(self, data, s, ws, count):
        """Spheres centred on voxel centres with a radius reaching exactly to
        another voxel centre along an axis; centred on the workspace's
        faces, edges and corners; or anywhere in and around it, partly or
        wholly outside; with tiny to workspace-sized radii."""
        lo, extent = np.asarray(ws.min), np.asarray(ws.max) - np.asarray(ws.min)
        objects = []
        for _ in range(count):
            kind = data.draw(st.sampled_from(["on_voxel", "on_face", "anywhere"]))
            idx = np.array(data.draw(st.tuples(*[st.integers(0, s - 1)] * 3)))
            if kind == "on_voxel":
                center = voxel_center(idx, ws, s)
                axis, k = data.draw(st.integers(0, 2)), data.draw(st.integers(-s, s).filter(bool))
                other = idx.copy()
                other[axis] += k
                radius = float(abs(voxel_center(other, ws, s)[axis] - center[axis]))
            else:
                if kind == "on_face":
                    where = data.draw(st.tuples(*[st.sampled_from(["min", "max", "voxel"])] * 3))
                    center = np.array([{"min": lo[a], "max": ws.max[a]}.get(w, voxel_center(idx, ws, s)[a])
                                       for a, w in enumerate(where)])
                else:
                    center = lo + np.array(data.draw(st.tuples(*[st.floats(-0.5, 1.5)] * 3))) * extent
                radius = float(data.draw(st.sampled_from([1e-12, 1e-3, 0.05, 0.3, 0.7])) * extent.max())
            if radius > 0:
                objects.append(SceneObject(center=center, radius=radius))
        self.assert_matches_oracle(World(objects=objects), s, ws)

    def test_coarse_voxel_centres(self):
        """A sphere of radius 1e-30 at min holds every voxel whose centre
        rounds to min, half the grid per axis, though it spans a tiny
        fraction of one cell."""
        ws = self.WORKSPACES[-1]
        world = World(objects=[SceneObject(center=ws.min, radius=1e-30)])
        assert occupancy_grid(world, 40, ws).sum() >= 19**3
        self.assert_matches_oracle(world, 40, ws)


class TestSuccess:
    def test_object_at_goal_open(self):
        w = simple_world()
        w.objects[0].center = w.goal_center.copy()
        assert check_success(w, TaskKind.GRASP_PLACE)

    def test_initial_state_fails(self):
        assert not check_success(simple_world(), TaskKind.GRASP_PLACE)
        assert not check_success(simple_world(), TaskKind.TOUCH_ONLY)

    def test_tolerance_boundary_inclusive(self):
        # dyadic coordinates so the boundary distance is float-exact
        w = simple_world(goal_center=np.array([0.5, 0.5, 0.25]), goal_tol=0.25)
        w.objects[0].center = np.array([0.75, 0.5, 0.25])
        assert check_success(w, TaskKind.GRASP_PLACE)
        w.objects[0].center = np.array([0.75 + 2**-20, 0.5, 0.25])
        assert not check_success(w, TaskKind.GRASP_PLACE)

    @pytest.mark.parametrize("center, placed", [
        ([0.48610286942499625, 0.4938078874879913, 0.09762906155300483], False),
        ([0.5359576886818026, 0.4864237154823771, 0.01801986361256227], True)])
    def test_provider_and_success_agree_at_the_boundary(self, center, placed):
        """Targets on the tolerance boundary, where the distance and its
        square round to opposite sides: the sub-goal provider moves on to the
        lift exactly when check_success holds."""
        w = simple_world(goal_center=np.array([0.5, 0.5, 0.05]), goal_tol=0.05)
        w.objects[0].center = np.array(center)
        assert target_placed(w) == check_success(w, TaskKind.GRASP_PLACE) == placed
        assert next_subgoal(w, TaskKind.GRASP_PLACE).g_open == int(placed)

    def test_closed_gripper_blocks_place_success(self):
        w = simple_world()
        w.objects[0].center = w.goal_center.copy()
        w.gripper_open = 0
        assert not check_success(w, TaskKind.GRASP_PLACE)

    def test_touch_spike_required(self):
        w = simple_world()
        w.peak_touch[0] = 0.04
        assert not check_success(w, TaskKind.TOUCH_ONLY)
        w.peak_touch[0] = 0.12
        assert check_success(w, TaskKind.TOUCH_ONLY)


class TestProviderAndLayouts:
    def test_provider_contract_touch(self):
        rng = np.random.default_rng(0)
        w = make_world(TaskKind.TOUCH_ONLY, rng)
        sub = next_subgoal(w, TaskKind.TOUCH_ONLY)
        top = w.target.center + [0, 0, w.target.radius]
        np.testing.assert_allclose(sub.g_pos, top)
        assert sub.g_open == 1
        w.peak_touch[0] = 0.2
        sub2 = next_subgoal(w, TaskKind.TOUCH_ONLY)
        assert sub2.g_pos[2] > top[2]  # retreat stage

    def test_provider_contract_grasp_stages(self):
        rng = np.random.default_rng(0)
        w = make_world(TaskKind.GRASP_PLACE, rng)
        sub = next_subgoal(w, TaskKind.GRASP_PLACE)
        np.testing.assert_allclose(sub.g_pos, w.target.center)
        assert sub.g_open == 0
        w.attached = 0
        sub2 = next_subgoal(w, TaskKind.GRASP_PLACE)
        np.testing.assert_allclose(sub2.g_pos, w.goal_center)
        assert sub2.g_open == 1

    def test_shifted_layouts_on_opposite_half(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            w = make_world(TaskKind.TOUCH_ONLY, rng, shifted=False)
            assert w.target.center[0] < 0.5
            rng = np.random.default_rng(seed)
            w = make_world(TaskKind.TOUCH_ONLY, rng, shifted=True)
            assert w.target.center[0] > 0.5
            rng = np.random.default_rng(seed)
            w = make_world(TaskKind.GRASP_PLACE, rng, shifted=True)
            assert w.goal_center[0] > 0.5 and w.target.center[0] < 0.5


class TestSceneIo:
    @pytest.mark.parametrize("field, mutate", [
        ("objects[0].radius", lambda rec: rec["objects"][0].update(radius=float("nan"))),
        ("goal.tol", lambda rec: rec["goal"].update(tol=float("inf"))),
        ("objects[0].center", lambda rec: rec["objects"][0]["center"].__setitem__(1, float("nan"))),
    ])
    def test_non_finite_number_named(self, tmp_path, field, mutate):
        path = tmp_path / "scene.json"
        save_scene(simple_world(), path)
        rec = json.loads(path.read_text())
        mutate(rec)
        path.write_text(json.dumps(rec))      # written as the NaN / Infinity literals
        with pytest.raises(SchemaViolation, match=f"^{re.escape(f'{path} field {field!r}')} must be (a|3) finite"):
            load_scene(path)

    @pytest.mark.parametrize("mutate, named", [
        (lambda rec: rec["objects"][0].update(radius=True), "'objects[0].radius' must be a finite number"),
        (lambda rec: rec["goal"].update(tol=False), "'goal.tol' must be a finite number"),
        (lambda rec: rec["goal"].update(center=[True, 0.5, 0.5]), "'goal.center' must be 3 finite numbers"),
        (lambda rec: rec["objects"][0].update(graspable="false"), "'objects[0].graspable' must be true or false"),
        (lambda rec: rec["objects"][0].update(graspable=0), "'objects[0].graspable' must be true or false"),
    ], ids=["radius-true", "tol-false", "center-true", "graspable-string", "graspable-zero"])
    def test_json_type_confusion_named(self, tmp_path, mutate, named):
        path = tmp_path / "scene.json"
        save_scene(simple_world(), path)
        rec = json.loads(path.read_text())
        mutate(rec)
        path.write_text(json.dumps(rec))
        with pytest.raises(SchemaViolation, match=f"^{re.escape(f'{path} field {named}')}"):
            load_scene(path)

    @pytest.mark.parametrize("mutate, named", [
        (lambda rec: rec["objects"][0].update(radius=-0.1), "field 'objects[0].radius' must be positive"),
        (lambda rec: rec["objects"][0].update(radius=0), "field 'objects[0].radius' must be positive"),
        (lambda rec: rec["workspace"]["max"].__setitem__(0, 0.0),
         "field 'workspace' min must be strictly below max on every axis"),
        (lambda rec: rec["goal"].pop("tol"), "field 'goal.tol' is missing"),
        (lambda rec: rec.update(objects={}), "field 'objects' must be an array"),
        (lambda rec: rec["objects"].append(3), "field 'objects[1]' must be an object"),
    ], ids=["radius-negative", "radius-zero", "workspace-flat", "tol-missing", "objects-object",
            "object-number"])
    def test_field_error_names_file_and_field(self, tmp_path, mutate, named):
        """Range failures the constructors would raise unnamed are reported
        under the field's name, as type and presence errors are."""
        path = tmp_path / "scene.json"
        save_scene(simple_world(), path)
        rec = json.loads(path.read_text())
        mutate(rec)
        path.write_text(json.dumps(rec))
        with pytest.raises(SchemaViolation) as exc:
            load_scene(path)
        assert str(exc.value) == f"{path} {named}"

    def test_non_object_scene_names_file(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaViolation, match=f"^{re.escape(str(path))} record must be an object$"):
            load_scene(path)

    @pytest.mark.parametrize("blob, named", [
        (b"\xff" + b"{}", "is not UTF-8 text (invalid start byte)"),
        (b'{"workspace": ', "is not valid JSON (Expecting value: line 1 column 15 (char 14))"),
        (b"[" * 10**5 + b"]" * 10**5, "is JSON nested too deeply to parse"),
    ], ids=["non-utf8", "truncated", "nested"])
    def test_unparsable_scene_names_file(self, tmp_path, blob, named):
        path = tmp_path / "scene.json"
        path.write_bytes(blob)
        with pytest.raises(SchemaViolation, match=f"^{re.escape(f'{path} {named}')}$"):
            load_scene(path)

    def test_unreadable_scene_is_io_error(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(IoError, match=f"^cannot read {re.escape(str(path))}: "):
            load_scene(path)

    def test_graspable_defaults_to_false(self, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(simple_world(), path)
        rec = json.loads(path.read_text())
        del rec["objects"][0]["graspable"]
        path.write_text(json.dumps(rec))
        assert load_scene(path).objects[0].graspable is False

    def test_scene_round_trip(self, tmp_path):
        w = simple_world()
        path = tmp_path / "scene.json"
        save_scene(w, path)
        loaded = load_scene(path)
        assert loaded.workspace == Workspace()
        assert len(loaded.objects) == 1
        np.testing.assert_allclose(loaded.objects[0].center, w.objects[0].center)
        assert loaded.objects[0].graspable
        assert loaded.goal_tol == w.goal_tol
