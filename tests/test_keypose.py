import numpy as np
import pytest

from gravkit import keypose
from gravkit.demos import TaskKind
from gravkit.keypose import (KeyposeParams, MissingTerminalSubgoal, assign_goal_actions,
                             discover_keyposes, distill_demo, gripper_change, touch_change)
from gravkit.sim import scripted_expert, scripted_long_demo

from conftest import synthetic_demo
from oracles import (assignment_oracle, gripper_change_oracle, keypose_oracle,
                     subgoal_oracle, touch_change_oracle)

PARAMS = KeyposeParams()


class TestDiscoverKeyposes:
    def test_single_frame_demo(self):
        demo = synthetic_demo(1)
        assert discover_keyposes(demo, PARAMS) == [0]

    def test_stops_and_toggle(self):
        # stops at frames 10 and 50, gripper toggle at 30
        demo = synthetic_demo(60, stops=(10, 50), toggles=(30,))
        assert discover_keyposes(demo, PARAMS) == [10, 30, 50, 59]

    def test_constant_velocity_no_toggles(self):
        demo = synthetic_demo(40)
        assert discover_keyposes(demo, PARAMS) == [39]

    def test_stop_buffer_suppresses_long_stop(self):
        demo = synthetic_demo(30, stops=tuple(range(10, 20)))
        # one keypose per stop_buffer+1 frames of a continuous stop
        assert discover_keyposes(demo, PARAMS) == [10, 15, 29]

    def test_matches_oracle_on_scripted_demos(self):
        for seed in range(40):
            for kind in TaskKind:
                demo = scripted_expert(kind, seed)
                assert discover_keyposes(demo, PARAMS) == keypose_oracle(demo)


class TestWindows:
    def test_force_rise_is_touch_change(self):
        demo = synthetic_demo(20, stops=(10,), touch_at={t: 0.12 for t in range(10, 20)})
        assert touch_change(demo, 10, PARAMS)

    def test_constant_force_is_not(self):
        demo = synthetic_demo(20, touch_at={t: 0.12 for t in range(20)})
        assert not touch_change(demo, 10, PARAMS)

    def test_exact_delta_is_not_exceeded(self):
        # strict inequality: a change of exactly delta does not fire
        demo = synthetic_demo(20, touch_at={t: 0.005 for t in range(10, 20)})
        assert not touch_change(demo, 10, PARAMS)
        assert touch_change_oracle(demo, 10) == touch_change(demo, 10, PARAMS)

    def test_gripper_toggle_adjacent(self):
        demo = synthetic_demo(20, toggles=(10,))
        assert gripper_change(demo, 10, PARAMS)

    def test_gripper_constant(self):
        demo = synthetic_demo(20)
        assert not gripper_change(demo, 10, PARAMS)

    def test_gripper_toggle_outside_window(self):
        demo = synthetic_demo(20, toggles=(5,))
        # toggle at k-5 with window 4 is invisible
        assert not gripper_change(demo, 10, PARAMS)
        assert gripper_change_oracle(demo, 10) == gripper_change(demo, 10, PARAMS)

    def test_windows_match_oracle_everywhere(self):
        demo = scripted_expert(TaskKind.GRASP_PLACE, 5)
        for k in range(len(demo.frames)):
            assert touch_change(demo, k, PARAMS) == touch_change_oracle(demo, k)
            assert gripper_change(demo, k, PARAMS) == gripper_change_oracle(demo, k)


class TestSubgoalDiscovery:
    def test_touch_only_contact_and_terminal(self):
        demo = scripted_expert(TaskKind.TOUCH_ONLY, 11)
        keyposes = discover_keyposes(demo, PARAMS)
        subgoals = distill_demo(demo, PARAMS)[1]
        assert len(keyposes) == 4
        assert subgoals == [keyposes[1], keyposes[-1]]

    def test_grasp_place_three_subgoals(self):
        demo = scripted_expert(TaskKind.GRASP_PLACE, 11)
        subgoals = distill_demo(demo, PARAMS)[1]
        assert len(subgoals) == 3
        toggles = [f for f in range(1, len(demo.frames))
                   if demo.frames[f].open != demo.frames[f - 1].open]
        assert subgoals[:2] == toggles
        assert subgoals[-1] == len(demo.frames) - 1

    def test_long_demo_eleven_to_four(self):
        demo = scripted_long_demo(3)
        assert len(discover_keyposes(demo, PARAMS)) == 11
        assert len(distill_demo(demo, PARAMS)[1]) == 4

    def test_grasp_branch_synthetic_toggle_pattern(self):
        # close@40, open@80, stops at 20/60/100: toggles and the terminal
        # keypose survive the filter
        demo = synthetic_demo(101, task_kind=TaskKind.GRASP_PLACE,
                              stops=(20, 60, 100), toggles=(40, 80))
        assert discover_keyposes(demo, PARAMS) == [20, 40, 60, 80, 100]
        assert distill_demo(demo, PARAMS)[1] == [40, 80, 100]

    def test_oracle_equivalence_100_demos_each_kind(self):
        for seed in range(100):
            for kind in TaskKind:
                demo = scripted_expert(kind, seed)
                assert distill_demo(demo, PARAMS)[1] == subgoal_oracle(demo), (kind, seed)

    def test_subset_chain(self):
        for seed in range(20):
            demo = scripted_expert(TaskKind.GRASP_PLACE, seed)
            keyposes = discover_keyposes(demo, PARAMS)
            subgoals = distill_demo(demo, PARAMS)[1]
            assert set(subgoals) <= set(keyposes)
            assert all(0 <= k < len(demo.frames) for k in keyposes)
            assert keyposes == sorted(set(keyposes))
            assert subgoals == sorted(set(subgoals))

    def test_determinism(self):
        demo = scripted_expert(TaskKind.GRASP_PLACE, 9)
        assert distill_demo(demo, PARAMS)[1] == distill_demo(demo, PARAMS)[1]

    @pytest.mark.parametrize("kind", list(TaskKind))
    def test_distill_discovers_keyposes_once(self, kind, monkeypatch):
        calls = []
        discover = keypose.discover_keyposes

        def counting_discover(*args, **kwargs):
            calls.append(args)
            return discover(*args, **kwargs)

        monkeypatch.setattr(keypose, "discover_keyposes", counting_discover)
        demo = scripted_expert(kind, 4)
        keyposes, subgoals, _ = distill_demo(demo, PARAMS)
        assert len(calls) == 1
        assert keyposes == discover(demo, PARAMS)
        assert subgoals == subgoal_oracle(demo)


class TestAssignment:
    def test_nearest_future_rule(self):
        demo = synthetic_demo(60, stops=(20, 40))
        assignment = assign_goal_actions(demo, [20, 40], [40])
        np.testing.assert_array_equal(assignment[20].g_pos, demo.frames[40].pose.pos)
        np.testing.assert_array_equal(assignment[40].g_pos, demo.frames[40].pose.pos)

    def test_self_assignment(self):
        demo = synthetic_demo(60, stops=(20, 40))
        assignment = assign_goal_actions(demo, [20, 40], [20, 40])
        np.testing.assert_array_equal(assignment[20].g_pos, demo.frames[20].pose.pos)

    def test_interleaved_case(self):
        demo = synthetic_demo(80, stops=(10, 30, 50, 70))
        assignment = assign_goal_actions(demo, [10, 30, 50, 70], [30, 70])
        expected = assignment_oracle(demo, [10, 30, 50, 70], [30, 70])
        for k, frame_idx in expected.items():
            np.testing.assert_array_equal(assignment[k].g_pos, demo.frames[frame_idx].pose.pos)

    def test_missing_terminal_raises(self):
        demo = synthetic_demo(60, stops=(20, 40))
        with pytest.raises(MissingTerminalSubgoal):
            assign_goal_actions(demo, [20, 40], [20])

    def test_assignment_monotone_on_scripted(self):
        for seed in range(20):
            demo = scripted_expert(TaskKind.GRASP_PLACE, seed)
            keyposes = discover_keyposes(demo, PARAMS)
            subgoals = distill_demo(demo, PARAMS)[1]
            assignment = assign_goal_actions(demo, keyposes, subgoals)
            oracle = assignment_oracle(demo, keyposes, subgoals)
            prev = -1
            for k in keyposes:
                idx = oracle[k]
                assert idx >= k
                assert idx >= prev
                prev = idx
                np.testing.assert_array_equal(assignment[k].g_pos, demo.frames[idx].pose.pos)
                assert assignment[k].g_open == demo.frames[idx].open


@pytest.mark.parametrize("field", ["eps_vel", "stop_buffer", "touch_threshold", "delta", "gripper_threshold"])
def test_negative_param_named(field):
    with pytest.raises(ValueError, match=f"^{field} must be non-negative, got -1$"):
        KeyposeParams(**{field: -1})
