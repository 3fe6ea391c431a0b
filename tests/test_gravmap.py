import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravkit import gravmap
from gravkit.demos import CorruptFile, SubGoal
from gravkit.gravmap import (DegenerateWorkspace, GravMap, GravMapParams, Workspace, augment_offset,
                             build_gripper_map, farthest_point_sampling, generate_gravmap, gmap_to_json,
                             load_gmap, save_field_slice_pgm, save_gmap, voxel_center, world_to_voxel)
from gravkit.sim import SceneObject, World, occupancy_grid

from oracles import (cost_bounds_oracle, distance_field, fps_oracle, fps_rows_oracle, gaussian3d_oracle,
                     gaussian_smooth_oracle, gravmap_fields_oracle)
from test_golden import CLUSTERS_BOX, separated_clusters, smooth_on_box

WS = Workspace()
SUB = SubGoal(g_pos=[0.5, 0.5, 0.5], g_open=1, g_rot=[1, 0, 0, 0, 1, 0])


def small_params(map_size=20, num_points=32, **kw):
    return GravMapParams(map_size=map_size, downsample=kw.pop("downsample", 4),
                         num_points=num_points, **kw)


# a one-voxel map, with the largest jitter and smoothing sigma it allows
ONE_VOXEL = {"map_size": 1, "downsample": 1, "num_points": 1, "offset_range": 1, "sigma_avoid": 1.0}


def empty_occ(s):
    return np.zeros((s, s, s), dtype=bool)


def fields_at(center, occ, params):
    """The full-resolution fields of an infer-mode map on the unit workspace
    whose sub-goal lies in voxel `center`."""
    sub = SubGoal(g_pos=(np.asarray(center) + 0.5) / params.map_size, g_open=1, g_rot=[1, 0, 0, 0, 1, 0])
    _, fields = generate_gravmap(sub, occ, 1, WS, params, "infer", with_fields=True)
    assert fields["center"] == tuple(center)
    return fields


class TestWorldToVoxel:
    def test_center(self):
        assert world_to_voxel((0.5, 0.5, 0.5), WS, 100) == (50, 50, 50)

    def test_min_corner(self):
        assert world_to_voxel(WS.min, WS, 100) == (0, 0, 0)

    def test_max_clamps_to_last_voxel(self):
        assert world_to_voxel(WS.max, WS, 100) == (99, 99, 99)

    def test_out_of_bounds_clamped(self):
        assert world_to_voxel((-3.0, 0.5, 7.0), WS, 100) == (0, 50, 99)

    @pytest.mark.parametrize("x, expected", [(1e16, 99), (1e17, 99), (1e300, 99), (-1e300, 0)])
    def test_huge_coordinate_clamps_to_its_side(self, x, expected):
        """Beyond the int64 range a coordinate still clamps to the boundary
        voxel on its own side; a RuntimeWarning from the cast fails the test."""
        assert world_to_voxel((x, 0.5, 0.5), WS, 100) == (expected, 50, 50)

    def test_degenerate_workspace(self):
        with pytest.raises(DegenerateWorkspace):
            Workspace((0, 0, 0), (1, 0, 1))

    @pytest.mark.parametrize("lo, hi", [((0, 0, 0), (1, np.inf, 1)), ((-np.inf, 0, 0), (1, 1, 1)),
                                        ((0, 0, np.nan), (1, 1, 1))])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(DegenerateWorkspace, match="must be finite"):
            Workspace(lo, hi)

    def test_bounds_within_f32_range(self):
        """The `.gmap` header stores the bounds as f32: its largest magnitude
        is accepted, the next float64 beyond it is not."""
        big = gravmap.F32_MAX
        assert Workspace((-big, 0, 0), (big, 1, 1)).extent[0] == 2 * big
        for lo, hi in [((-np.nextafter(big, np.inf), 0, 0), (1, 1, 1)), ((0, 0, 0), (1, 1e308, 1))]:
            with pytest.raises(DegenerateWorkspace, match="must be finite, of magnitude at most"):
                Workspace(lo, hi)


class TestDistanceField:
    def test_zero_at_center(self):
        d = distance_field(10, (3, 4, 5))
        assert d[3, 4, 5] == 0.0

    def test_analytic_corner_3cube(self):
        d = distance_field(3, (1, 1, 1))
        assert d[0, 0, 0] == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_max_corner_100cube(self):
        d = distance_field(100, (0, 0, 0))
        assert d.max() == pytest.approx(np.sqrt(3 * 99**2), abs=1e-9)
        assert d.max() == pytest.approx(171.473, abs=1e-3)


WHOLE = np.s_[:, :, :]


class TestGaussianSmooth:
    """_smooth_box, the smoother that synthesis runs, on an explicit box
    outside which the field is zero."""

    def test_constant_field_unchanged(self):
        field = np.full((12, 12, 12), 0.7)
        out = smooth_on_box(field, WHOLE, 2.0)
        np.testing.assert_allclose(out, field, atol=1e-6)

    def test_sigma_zero_identity(self):
        field = np.random.default_rng(0).random((8, 8, 8))
        np.testing.assert_array_equal(smooth_on_box(field, WHOLE, 0.0), field)

    def test_impulse_matches_direct_convolution(self):
        field = np.zeros((15, 15, 15))
        field[7, 7, 7] = 1.0
        out = smooth_on_box(field, np.s_[7:8, 7:8, 7:8], 2.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-3)
        np.testing.assert_allclose(out, gaussian3d_oracle(field, 2.0), atol=1e-6)

    def test_random_field_with_edges_matches_oracle(self, rng):
        field = rng.random((9, 9, 9))
        np.testing.assert_allclose(smooth_on_box(field, WHOLE, 1.0),
                                   gaussian3d_oracle(field, 1.0), atol=1e-6)

    @staticmethod
    def assert_same_bytes(field, box, sigma):
        out = smooth_on_box(field, box, sigma)
        assert out.dtype == np.float64 and out.shape == field.shape
        assert out.tobytes() == gaussian_smooth_oracle(field, sigma).tobytes()

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(shape=st.tuples(*[st.integers(5, 40)] * 3),
           place=st.tuples(*[st.sampled_from(["low", "interior", "high"])] * 3),
           extent=st.tuples(*[st.integers(1, 6)] * 3),
           sigma=st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.5, 4.0, 10.0, 15.0]),
           density=st.sampled_from([0.05, 0.3, 1.0]),
           seed=st.integers(0, 2**16))
    def test_sparse_fields_match_full_field_smoother(self, shape, place, extent, sigma, density, seed):
        """Non-negative support boxes at the interior, on faces, on edges
        and in corners; sigma = 15 gives a 91-tap kernel, longer than every
        field."""
        rng = np.random.default_rng(seed)
        box = []
        for n, where, e in zip(shape, place, extent):
            e = min(e, n - 2)
            start = {"low": 0, "high": n - e, "interior": int(rng.integers(1, n - e))}[where]
            box.append(slice(start, start + e))
        box = tuple(box)
        field = np.zeros(shape)
        block = field[box]
        block[...] = rng.random(block.shape) * (rng.random(block.shape) < density)
        self.assert_same_bytes(field, box, sigma)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("where", [(0, 0, 0), (6, 6, 6), (11, 0, 5), (11, 11, 11)])
    def test_one_voxel(self, where, sigma):
        field = np.zeros((12, 12, 12))
        field[where] = 1.0
        self.assert_same_bytes(field, tuple(slice(i, i + 1) for i in where), sigma)

    def test_default_size_box_of_many_blocks(self):
        """At the default 100^3 size and sigma, a box whose every pass has
        more lines than one SMOOTH_ROWS product holds."""
        field = np.zeros((GravMapParams().map_size,) * 3)
        box = np.s_[40:48, 10:17, 90:99]
        assert min(field[box].shape) ** 2 > gravmap.SMOOTH_ROWS
        field[box] = np.random.default_rng(7).random(field[box].shape)
        self.assert_same_bytes(field, box, GravMapParams().sigma_avoid)

    def test_default_size_separated_clusters(self):
        """At the default 100^3 size and sigma, three clusters far apart
        leave all-zero lines inside the box in every pass, which the smoother
        skips."""
        self.assert_same_bytes(separated_clusters(), CLUSTERS_BOX, GravMapParams().sigma_avoid)

    @pytest.mark.parametrize("sigma", [0.0, 2.0])
    def test_all_zero_field(self, sigma):
        self.assert_same_bytes(np.zeros((9, 7, 5)), WHOLE, sigma)
        assert not smooth_on_box(np.zeros((9, 7, 5)), WHOLE, sigma).any()


class TestAvoidanceMap:
    def test_empty_occupancy(self):
        assert not fields_at((10, 10, 10), empty_occ(20), small_params())["avoid"].any()

    def test_occupied_voxel_inside_clear_radius_cleared(self):
        # distance 10 < 0.15 * 100 = 15 from the sub-goal voxel
        occ = empty_occ(100)
        occ[60, 50, 50] = True
        fields = fields_at((50, 50, 50), occ, GravMapParams())
        assert not fields["avoid"].any()
        empty = fields_at((50, 50, 50), empty_occ(100), GravMapParams())
        assert fields["cost"].tobytes() == empty["cost"].tobytes()

    def test_far_voxel_smoothed_bump(self):
        params = small_params(sigma_avoid=1.5, avoid_clear_frac=0.15)
        occ = empty_occ(20)
        occ[16, 16, 16] = True
        out = fields_at((2, 2, 2), occ, params)["avoid"]
        np.testing.assert_allclose(out, gaussian3d_oracle(occ.astype(float), 1.5), atol=1e-6)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.max() > 0.0


class TestCostMap:
    def test_empty_scene_extremes(self):
        fields = fields_at((5, 5, 5), empty_occ(20), small_params())
        cost, d = fields["cost"], fields["dist"]
        assert cost[5, 5, 5] == 0.0
        assert cost.max() == 1.0
        assert np.argmax(cost == 1.0) == np.argmax(d == d.max())

    def test_monotone_in_distance(self):
        fields = fields_at((5, 5, 5), empty_occ(20), small_params())
        order = np.argsort(fields["dist"].ravel())
        assert np.all(np.diff(fields["cost"].ravel()[order]) >= -1e-12)

    def test_obstacle_raises_cost_at_equal_distance(self):
        occ = empty_occ(30)
        occ[25, 15, 15] = True  # bump at distance 10 on +x
        fields = fields_at((15, 15, 15), occ, small_params(map_size=30, downsample=3, sigma_avoid=1.0))
        assert fields["avoid"][25, 15, 15] > 0.0
        assert fields["cost"][25, 15, 15] > fields["cost"][5, 15, 15]  # same distance, no bump at -x

    def test_degenerate_returns_zeros(self):
        # one voxel: a constant raw cost without a penalty, and with one that
        # survives a zero clear radius
        for clear_frac in (0.15, 0.0):
            params = GravMapParams(**ONE_VOXEL, avoid_clear_frac=clear_frac)
            fields = fields_at((0, 0, 0), np.ones((1, 1, 1), dtype=bool), params)
            assert fields["avoid"].any() == (clear_frac == 0.0)
            assert fields["cost"].tobytes() == np.zeros((1, 1, 1)).tobytes()


class TestGripperMap:
    def test_radius_region_carries_goal_state(self):
        d = distance_field(20, (10, 10, 10))
        out = build_gripper_map(d, g_open=0, g_open_init=1, params=small_params())
        inside = d <= 3.0
        assert np.all(out[inside] == 0.0)
        assert np.all(out[~inside] == 1.0)

    def test_equal_states_constant(self):
        d = distance_field(10, (5, 5, 5))
        out = build_gripper_map(d, 1, 1, small_params(map_size=10, num_points=8, downsample=2))
        assert np.all(out == 1.0)

    def test_closed_value_variant(self):
        params = small_params(closed_value=-1.0)
        d = distance_field(20, (10, 10, 10))
        out = build_gripper_map(d, g_open=0, g_open_init=1, params=params)
        assert np.all(out[d <= 3.0] == -1.0)


class TestFPS:
    def test_colinear_three_points(self):
        idx = farthest_point_sampling([(0, 0, 0), (1, 0, 0), (2, 0, 0)], 2)
        assert list(idx) == [1, 0]  # centroid-nearest, then lowest-index tie

    def test_identity_when_budget_covers_all(self):
        pts = np.random.default_rng(0).random((10, 3))
        assert list(farthest_point_sampling(pts, 10)) == list(range(10))
        assert list(farthest_point_sampling(pts, 20)) == list(range(10))

    def test_matches_bruteforce_oracle(self, rng):
        pts = rng.random((512, 3))
        assert list(farthest_point_sampling(pts, 32)) == fps_oracle(pts, 32)

    def test_greedy_certificate(self, rng):
        pts = rng.random((200, 3))
        sel = list(farthest_point_sampling(pts, 24))
        for t in range(1, len(sel)):
            chosen = sel[:t]
            d2 = ((pts[:, None, :] - pts[chosen][None, :, :]) ** 2).sum(-1).min(axis=1)
            assert d2[sel[t]] >= d2.max() - 1e-12


    @pytest.mark.parametrize("ws", [WS, Workspace((-0.3, 0.1, 0.0), (0.7, 1.6, 0.4))])
    @pytest.mark.parametrize("map_size, stride, num_points",
                             [(100, 4, 1024), (60, 3, 500), (48, 2, 2000)])
    def test_lattice_order_matches_row_wise_loop(self, ws, map_size, stride, num_points):
        idx = np.arange(0, map_size, stride)
        vox = np.stack(np.meshgrid(idx, idx, idx, indexing="ij"), axis=-1).reshape(-1, 3)
        grid = voxel_center(vox, ws, map_size)
        assert list(farthest_point_sampling(grid, num_points)) == fps_rows_oracle(grid, num_points)


class TestAugment:
    def test_zero_range_identity(self, rng):
        assert augment_offset((5, 6, 7), 0, 100, rng) == (5, 6, 7)

    def test_offsets_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            out = augment_offset((50, 50, 50), 3, 100, rng)
            assert all(abs(o - 50) <= 3 for o in out)

    def test_clamped_into_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = augment_offset((0, 0, 99), 3, 100, rng)
            assert all(0 <= v <= 99 for v in out)

    def test_seeded_reproducible(self):
        a = augment_offset((50, 50, 50), 3, 100, np.random.default_rng(9))
        b = augment_offset((50, 50, 50), 3, 100, np.random.default_rng(9))
        assert a == b


class TestGenerate:
    def test_infer_min_cost_point_near_subgoal(self):
        params = GravMapParams()
        gmap = generate_gravmap(SUB, empty_occ(100), 1, WS, params, "infer")
        cell = WS.extent[0] / params.map_size
        best = gmap.points[np.argmin(gmap.points[:, 3]), :3]
        assert np.all(np.abs(best - SUB.g_pos) <= params.downsample * cell + 1e-9)

    def test_point_count_and_cost_range(self):
        gmap = generate_gravmap(SUB, empty_occ(100), 1, WS, GravMapParams(), "infer")
        assert len(gmap) == 1024
        assert gmap.points[:, 3].min() >= 0.0 and gmap.points[:, 3].max() <= 1.0
        assert np.all(gmap.points[:, :3] >= WS.min) and np.all(gmap.points[:, :3] <= WS.max)

    def test_train_mode_displaces_center_within_range(self):
        params = GravMapParams()
        _, fields = generate_gravmap(SUB, empty_occ(100), 1, WS, params, "train",
                                     seed=5, with_fields=True)
        base = world_to_voxel(SUB.g_pos, WS, params.map_size)
        delta = np.array(fields["center"]) - np.array(base)
        assert np.all(np.abs(delta) <= params.offset_range)

    def test_train_seed_reproducible_and_infer_unperturbed(self):
        params = GravMapParams()
        a = generate_gravmap(SUB, empty_occ(100), 1, WS, params, "train", seed=3)
        b = generate_gravmap(SUB, empty_occ(100), 1, WS, params, "train", seed=3)
        np.testing.assert_array_equal(a.points, b.points)
        _, f1 = generate_gravmap(SUB, empty_occ(100), 1, WS, params, "infer", with_fields=True)
        assert tuple(f1["center"]) == world_to_voxel(SUB.g_pos, WS, params.map_size)

    def test_gripper_dichotomy_on_sampled_points(self):
        params = GravMapParams()
        sub = SubGoal(g_pos=[0.31, 0.62, 0.18], g_open=0, g_rot=[1, 0, 0, 0, 1, 0])
        gmap, fields = generate_gravmap(sub, empty_occ(100), 1, WS, params, "infer",
                                        with_fields=True)
        center = np.array(fields["center"], dtype=float)
        cell = WS.extent / params.map_size
        vox = np.floor((gmap.points[:, :3] - WS.min) / cell)
        d = np.sqrt(((vox - center) ** 2).sum(axis=1))
        grip = gmap.points[:, 4]
        assert set(np.unique(grip)) <= {0.0, 1.0}
        np.testing.assert_array_equal(grip == 0.0, d <= params.gripper_radius)

    def test_occupancy_shape_checked(self):
        with pytest.raises(ValueError):
            generate_gravmap(SUB, empty_occ(50), 1, WS, GravMapParams(), "infer")


def assert_matches_oracle(sub, occ, current, ws, params, mode="infer", seed=None):
    """The plain call's points, and the with_fields call's points and
    fields, byte for byte against the full-field oracle. Returns the
    points."""
    plain = generate_gravmap(sub, occ, current, ws, params, mode, seed=seed)
    full, fields = generate_gravmap(sub, occ, current, ws, params, mode, seed=seed, with_fields=True)
    want = gravmap_fields_oracle(occ, fields["center"], sub.g_open, current, params)
    for name, field in want.items():
        assert fields[name].tobytes() == field.tobytes(), name
    vox = np.floor((plain.points[:, :3] - ws.min) / (ws.extent / params.map_size)).astype(int)
    at = tuple(vox.T)
    points = np.column_stack([plain.points[:, :3], want["cost"][at], want["grip"][at]])
    assert plain.points.tobytes() == points.tobytes()
    assert full.points.tobytes() == points.tobytes()
    return plain.points


FULL = (100, 100, 100)


@pytest.fixture
def distance_field_calls(monkeypatch):
    """The shapes of the distances synthesis forms through its one distance
    formula; a full-resolution distance field has the shape FULL."""
    shapes = []
    real = gravmap._voxel_distance

    def recording(*args):
        dist = real(*args)
        shapes.append(dist.shape)
        return dist

    monkeypatch.setattr(gravmap, "_voxel_distance", recording)
    return shapes


class TestSampledPointsMatchFields:
    """Maps computed at the sampled voxels carry the bytes of the oracle's
    full-resolution fields read at those voxels, and the with_fields
    fields are the oracle's."""

    @pytest.mark.parametrize("g_pos", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0, 0.5),
                                       (0.5, 0.5, 0.999), (-0.4, 1.7, 0.5), (0.31, 0.62, 0.18)])
    @pytest.mark.parametrize("mode", ["infer", "train"])
    def test_empty_scene_default_params(self, g_pos, mode):
        sub = SubGoal(g_pos=g_pos, g_open=0, g_rot=[1, 0, 0, 0, 1, 0])
        assert_matches_oracle(sub, empty_occ(100), 1, WS, GravMapParams(), mode, seed=11)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(shape=st.sampled_from([(8, 1, 40), (12, 2, 27), (12, 4, 20), (20, 2, 50), (20, 4, 32)]),
           closed_value=st.sampled_from([0.0, -1.0]),
           clear_frac=st.sampled_from([0.0, 0.15, 0.5]),
           sigma=st.sampled_from([0.0, 1.0, 4.0]),
           ws=st.sampled_from([WS, Workspace((-0.3, 0.1, 0.0), (0.7, 1.6, 0.4))]),
           frac=st.tuples(*[st.floats(-0.5, 1.5)] * 3),
           occupied=st.lists(st.tuples(*[st.integers(0, 19)] * 3), max_size=6),
           opens=st.tuples(st.integers(0, 1), st.integers(0, 1)),
           mode=st.sampled_from(["infer", "train"]))
    def test_any_scene_small_params(self, shape, closed_value, clear_frac, sigma, ws, frac, occupied,
                                    opens, mode):
        s, stride, n = shape
        params = GravMapParams(map_size=s, downsample=stride, num_points=n, closed_value=closed_value,
                               avoid_clear_frac=clear_frac, sigma_avoid=sigma, gripper_radius=2.0)
        occ = empty_occ(s)
        for idx in occupied:
            occ[tuple(v % s for v in idx)] = True
        g_pos = np.asarray(ws.min) + np.asarray(frac) * ws.extent
        sub = SubGoal(g_pos=g_pos, g_open=opens[0], g_rot=[1, 0, 0, 0, 1, 0])
        assert_matches_oracle(sub, occ, opens[1], ws, params, mode, seed=len(occupied))

    def test_points_read_the_fields_at_stride_voxels(self):
        ws = Workspace((-0.3, 0.1, 0.0), (0.7, 1.6, 0.4))
        params = small_params()
        gmap, fields = generate_gravmap(SUB, empty_occ(20), 0, ws, params, "infer", with_fields=True)
        vox = np.floor((gmap.points[:, :3] - ws.min) / (ws.extent / params.map_size)).astype(int)
        assert np.all(vox % params.downsample == 0)
        assert len(np.unique(vox, axis=0)) == params.num_points
        np.testing.assert_array_equal(gmap.points[:, 3], fields["cost"][tuple(vox.T)])
        np.testing.assert_array_equal(gmap.points[:, 4], fields["grip"][tuple(vox.T)])

    def test_cleared_scene_builds_no_field(self, distance_field_calls):
        # a sphere around the sub-goal lies wholly inside the cleared radius
        occ = empty_occ(100)
        occ[45:56, 45:56, 45:56] = True
        plain = generate_gravmap(SUB, occ, 0, WS, GravMapParams(), "infer")
        empty = generate_gravmap(SUB, empty_occ(100), 0, WS, GravMapParams(), "infer")
        assert FULL not in distance_field_calls
        assert plain.points.tobytes() == empty.points.tobytes()
        assert assert_matches_oracle(SUB, occ, 0, WS, GravMapParams()).tobytes() == plain.points.tobytes()

    @pytest.mark.parametrize("block", [np.s_[80:84, 20:24, 50:54],
                                       np.s_[65, 50, 50]])  # exactly at the cleared radius
    def test_surviving_obstacle_builds_no_distance_field(self, distance_field_calls, block):
        occ = empty_occ(100)
        occ[block] = True
        plain = generate_gravmap(SUB, occ, 0, WS, GravMapParams(), "infer")
        assert FULL not in distance_field_calls
        empty = generate_gravmap(SUB, empty_occ(100), 0, WS, GravMapParams(), "infer")
        assert plain.points.tobytes() != empty.points.tobytes()
        assert assert_matches_oracle(SUB, occ, 0, WS, GravMapParams()).tobytes() == plain.points.tobytes()

    def test_plain_obstacle_map_builds_no_full_channel(self, monkeypatch):
        shapes = []
        real = gravmap.build_gripper_map

        def recording(dist, *args):
            shapes.append(dist.shape)
            return real(dist, *args)

        monkeypatch.setattr(gravmap, "build_gripper_map", recording)
        occ = empty_occ(100)
        occ[80:84, 20:24, 50:54] = True
        generate_gravmap(SUB, occ, 0, WS, GravMapParams(), "infer")
        assert shapes == [(1024,)]

    def test_plain_obstacle_map_peak_memory(self):
        """Rasterising one sphere holds the boolean grid and little else, and
        its plain map stays below one 100^3 float64 field: the smoother's
        buffers span the sphere's box grown by the kernel radius, 65 x 66 x
        71 voxels here, and any full-size distance, cost, penalty or
        occupancy temporary breaks the bound."""
        world = World(objects=[SceneObject(center=[0.7, 0.3, 0.6], radius=0.05)])
        occ = occupancy_grid(world, 100, WS)
        generate_gravmap(SUB, occ, 0, WS, GravMapParams(), "infer")   # memoises the lattice
        peaks = []
        for build in (lambda: occupancy_grid(world, 100, WS),
                      lambda: generate_gravmap(SUB, occ, 0, WS, GravMapParams(), "infer")):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                build()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        margin = 64 * 1024   # the sphere's voxel indices, the sampled channels, headers
        assert peaks[0] <= 100**3 + margin
        assert peaks[1] < 8 * 100**3

    def test_empty_scene_builds_no_field(self, distance_field_calls):
        for mode, seed in (("infer", None), ("train", 4)):
            generate_gravmap(SUB, empty_occ(100), 1, WS, GravMapParams(), mode, seed=seed)
        assert FULL not in distance_field_calls
        generate_gravmap(SUB, empty_occ(100), 1, WS, GravMapParams(), "infer", with_fields=True)
        assert distance_field_calls.count(FULL) == 1

    def test_degenerate_single_voxel_map_is_zero_cost(self, caplog):
        params = GravMapParams(**ONE_VOXEL)
        with caplog.at_level("WARNING", logger="gravkit.gravmap"):
            plain = assert_matches_oracle(SUB, empty_occ(1), 1, WS, params)
        assert plain[0, 3] == 0.0
        assert sum("degenerate cost field" in r.getMessage() for r in caplog.records) == 2


class TestBatchSynthesis:
    """empty_scene_channels on a batch gives, byte for byte, the cost and
    grip columns that generate_gravmap gives one map at a time on an
    all-False occupancy grid."""

    # inside the workspace, on its faces, edges and corners, and beyond it (clamped onto them)
    POSITIONS = [(0.5, 0.5, 0.5), (0.0, 0.4, 0.6), (0.5, 1.0, 0.5), (0.0, 0.0, 0.5), (1.0, 0.3, 1.0),
                 (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.99, 0.01, 0.3), (-2.0, 0.5, 3.0)]

    @staticmethod
    def subgoals_and_states():
        """18 sub-goals, one past a 16-map chunk at 1024 points, every
        pairing of desired and current openness."""
        subs = [SubGoal(g_pos=pos, g_open=i % 2, g_rot=[1, 0, 0, 0, 1, 0])
                for i, pos in enumerate(TestBatchSynthesis.POSITIONS * 2)]
        return subs, [(i // 2) % 2 for i in range(len(subs))]

    @staticmethod
    def assert_batch_matches(batch, subs, current, params, mode, seeds):
        occ = empty_occ(params.map_size)
        for i, sub in enumerate(subs):
            one = generate_gravmap(sub, occ, current[i], WS, params, mode,
                                   seed=None if seeds is None else seeds[i])
            assert batch[i].tobytes() == one.points[:, 3:].tobytes(), i
            assert gravmap.assemble_points(one.points[:, :3], batch[i]).tobytes() == one.points.tobytes()

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("params", [GravMapParams(), small_params(20, 32),
                                        small_params(12, 8, downsample=2, offset_range=5,
                                                     gripper_radius=4.5, closed_value=-1.0)],
                             ids=["default", "20-voxel", "12-voxel"])
    def test_batch_equals_one_at_a_time(self, monkeypatch, mode, params):
        subs, current = self.subgoals_and_states()
        seeds = [[3, i] for i in range(len(subs))] if mode == "train" else None

        def no_grid(*args):
            raise AssertionError("a batch scanned an occupancy grid")

        monkeypatch.setattr(gravmap, "_avoidance", no_grid)
        batch = gravmap.empty_scene_channels(subs, current, WS, params, mode, seeds)
        monkeypatch.undo()
        assert batch.shape == (len(subs), params.num_points, 2)
        self.assert_batch_matches(batch, subs, current, params, mode, seeds)

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        """One map per chunk, written into a given array, gives the same bits."""
        subs, current = self.subgoals_and_states()
        params = small_params(20, 32)
        seeds = [[5, i] for i in range(len(subs))]
        whole = gravmap.empty_scene_channels(subs, current, WS, params, "train", seeds)
        monkeypatch.setattr(gravmap, "SYNTH_CHUNK_POINTS", 1)
        out = np.full((len(subs), params.num_points, 2), np.nan)
        assert gravmap.empty_scene_channels(subs, current, WS, params, "train", seeds, out=out) is out
        assert out.tobytes() == whole.tobytes()

    def test_one_voxel_batch_is_zero_cost(self, caplog):
        """map_size 1: dmax is 0, so every cost is 0, with one warning per batch."""
        params = GravMapParams(**ONE_VOXEL)
        subs = [SubGoal(g_pos=pos, g_open=g, g_rot=[1, 0, 0, 0, 1, 0])
                for pos, g in [((0.5, 0.5, 0.5), 1), ((0.0, 1.0, 0.0), 0), ((3.0, -1.0, 0.2), 1)]]
        current = [0, 1, 1]
        with caplog.at_level("WARNING", logger="gravkit.gravmap"):
            batch = gravmap.empty_scene_channels(subs, current, WS, params, "train", [[0], [1], [2]])
        assert sum("degenerate cost field" in r.getMessage() for r in caplog.records) == 1
        assert batch[:, :, 0].tobytes() == np.zeros((3, 1)).tobytes()
        assert batch[:, 0, 1].tolist() == [1.0, 0.0, 1.0]   # the sub-goal's voxel is every voxel
        self.assert_batch_matches(batch, subs, current, params, "train", [[0], [1], [2]])


class TestCostBounds:
    """(dmax, lo, hi) formed on the penalty's box, with the farthest corner's
    value and the value at the voxel outside the box nearest the sub-goal,
    carry the bits of the full field's largest distance and raw-cost min and
    max."""

    @staticmethod
    def assert_bounds_match(occ, center, params, faces, inside):
        m_a, box = gravmap._avoidance(occ, center, params)
        s = occ.shape[0]
        assert sum(lo == 0 for lo in box[0]) + sum(hi == s for hi in box[1]) == faces
        assert all(lo <= c < hi for c, lo, hi in zip(center, *box)) == inside
        bounds = gravmap._cost_bounds(s, center, m_a, box)
        want = cost_bounds_oracle(occ, center, params)
        assert np.array(bounds).tobytes() == np.array(want).tobytes()

    # obstacle blocks on a 24^3 grid and the faces their box touches at both sigmas
    BLOCKS = [([np.s_[10:12, 10:12, 10:12]], 0),
              ([np.s_[0:2, 10:12, 10:12]], 1),
              ([np.s_[0:2, 22:24, 10:12]], 2),
              ([np.s_[22:24, 0:2, 23:24]], 3),
              ([np.s_[:, :, 10:12]], 4),
              ([np.s_[:, :, 0:2]], 5),
              ([np.s_[0:2, 0:3, 0:1], np.s_[21:24, 22:24, 20:24]], 6)]   # opposite corners

    # a box touching all six faces is the whole grid, which holds every sub-goal
    @pytest.mark.parametrize("blocks, faces, inside", [(blocks, faces, inside) for blocks, faces in BLOCKS
                                                       for inside in (True, False) if faces < 6 or inside])
    @pytest.mark.parametrize("sigma", [0.2, 1.0])   # kernel radius 0 (the support box) and 3
    def test_box_touching_faces(self, blocks, faces, inside, sigma):
        s = 24
        params = small_params(s, avoid_clear_frac=0.0, sigma_avoid=sigma)
        occ = empty_occ(s)
        for block in blocks:
            occ[block] = True
        if inside:   # an occupied voxel
            center = tuple(int(v[0]) for v in np.nonzero(occ))
        else:   # on a grid face the box does not touch, mid-grid along the other axes
            lo, hi = gravmap._avoidance(occ, (0, 0, 0), params)[1]
            axis = next(a for a in range(3) if lo[a] > 0 or hi[a] < s)
            center = [s // 2] * 3
            center[axis] = 0 if lo[axis] > 0 else s - 1
            center = tuple(center)
        self.assert_bounds_match(occ, center, params, faces, inside)

    @pytest.mark.parametrize("center", [(0, 0, 0), (5, 6, 7), (11, 3, 11)])
    def test_long_kernel_box_is_the_whole_grid(self, center):
        """sigma = 12, the bound, gives a 73-tap kernel on a 12^3 grid: no
        voxel is left outside the box."""
        occ = empty_occ(12)
        occ[5:7, 4, 6] = True
        params = small_params(12, num_points=8, avoid_clear_frac=0.0, sigma_avoid=12.0)
        self.assert_bounds_match(occ, center, params, 6, True)

    VOXEL = st.tuples(*[st.integers(0, 19)] * 3)   # taken modulo the grid size

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(s=st.integers(1, 20), center=VOXEL, corners=st.tuples(VOXEL, VOXEL), in_region=st.booleans(),
           density=st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]),
           sigma=st.sampled_from([0.0, 0.2, 0.7, 1.5, 4.0]),
           clear_frac=st.sampled_from([0.0, 0.1, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    # one voxel, occupied: dmax = 0, and lo is the penalty, not the corner's 0
    @example(s=1, center=(0, 0, 0), corners=((0, 0, 0), (0, 0, 0)), in_region=True, density=1.0,
             sigma=0.0, clear_frac=0.0, seed=0)
    def test_random_grids_match_oracle(self, s, center, corners, in_region, density, sigma, clear_frac,
                                       seed):
        """Random occupancy in a random region, the sub-goal voxel inside it
        or anywhere: with or without a penalty left after clearing, the
        bounds are the oracle's."""
        ends = np.array(corners) % s
        lo, hi = ends.min(axis=0), ends.max(axis=0) + 1
        center = np.array(center) % s
        center = tuple(int(c) for c in (np.clip(center, lo, hi - 1) if in_region else center))
        region = tuple(slice(a, b) for a, b in zip(lo, hi))
        occ = empty_occ(s)
        occ[region] = np.random.default_rng(seed).random(occ[region].shape) < density
        params = GravMapParams(map_size=s, downsample=1, num_points=1, offset_range=min(3, s),
                               sigma_avoid=min(sigma, s), avoid_clear_frac=clear_frac)
        m_a, box = gravmap._avoidance(occ, center, params)
        bounds = gravmap._cost_bounds(s, center, m_a, box)
        want = cost_bounds_oracle(occ, center, params)
        assert np.array(bounds).tobytes() == np.array(want).tobytes()


class TestSerialization:
    def test_gmap_round_trip(self, tmp_path):
        gmap = generate_gravmap(SUB, empty_occ(100), 1, WS, GravMapParams(), "infer")
        path = tmp_path / "m.gmap"
        save_gmap(gmap, path)
        loaded = load_gmap(path)
        assert len(loaded) == len(gmap)
        np.testing.assert_allclose(loaded.points, gmap.points, atol=1e-6)
        assert loaded.workspace.min == WS.min

    def test_gmap_bytes_deterministic(self, tmp_path):
        gmap = generate_gravmap(SUB, empty_occ(100), 1, WS, GravMapParams(), "infer")
        p1, p2 = tmp_path / "a.gmap", tmp_path / "b.gmap"
        save_gmap(gmap, p1)
        save_gmap(generate_gravmap(SUB, empty_occ(100), 1, WS, GravMapParams(), "infer"), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_mirror_parses(self):
        import json
        gmap = generate_gravmap(SUB, empty_occ(100), 1, WS, GravMapParams(), "infer")
        rec = json.loads(gmap_to_json(gmap))
        assert len(rec["points"]) == 1024

    def test_pgm_slice_darkest_at_subgoal(self, tmp_path):
        params = GravMapParams()
        _, fields = generate_gravmap(SUB, empty_occ(100), 1, WS, params, "infer",
                                     with_fields=True)
        ci, cj, ck = fields["center"]
        path = tmp_path / "slice.pgm"
        save_field_slice_pgm(fields["cost"], axis=2, index=ck, path=path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n100 100\n255\n")
        img = np.frombuffer(blob.split(b"\n255\n", 1)[1], dtype=np.uint8).reshape(100, 100)
        assert divmod(int(np.argmin(img)), 100) == (ci, cj)


@pytest.fixture(scope="module")
def small_gmap(tmp_path_factory):
    """An 8-point `.gmap` (196 bytes) and its bytes."""
    path = tmp_path_factory.mktemp("gmap") / "small.gmap"
    save_gmap(GravMap(points=np.random.default_rng(0).random((8, 5)), workspace=WS), path)
    return path, path.read_bytes()


class TestCorruptGmap:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_point_row_named(self, small_gmap, value):
        path, blob = small_gmap
        at = gravmap.GMAP_HEADER.size + 20 * 3 + 4 * 3    # row 3's cost
        path.write_bytes(blob[:at] + struct.pack("<f", value) + blob[at + 4:])
        try:
            with pytest.raises(CorruptFile, match=re.escape(f"{path}: point row 3 is not finite")):
                load_gmap(path)
        finally:
            path.write_bytes(blob)

    def test_every_truncation_and_padding_named(self, small_gmap):
        path, blob = small_gmap
        try:
            for bad in [blob[:cut] for cut in range(len(blob))] + [blob + b"\0" * 4]:
                path.write_bytes(bad)
                with pytest.raises(CorruptFile, match=re.escape(str(path))):
                    load_gmap(path)
        finally:
            path.write_bytes(blob)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_flipped_byte_loads_or_raises_corrupt_file(self, small_gmap, data):
        path, blob = small_gmap
        pos = data.draw(st.integers(0, len(blob) - 1))
        bad = bytearray(blob)
        bad[pos] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(bad))
        try:
            with np.errstate(invalid="ignore"):   # a flipped f32 may read as a signalling NaN
                assert len(load_gmap(path)) == 8
        except CorruptFile:
            pass
        finally:
            path.write_bytes(blob)


def test_voxel_center_round_trip():
    for idx in [(0, 0, 0), (50, 50, 50), (99, 10, 42)]:
        c = voxel_center(idx, WS, 100)
        assert world_to_voxel(c, WS, 100) == idx


@pytest.mark.parametrize("field, value", [("map_size", 100.0), ("offset_range", 2.5),
                                          ("downsample", True), ("num_points", np.int64(8))])
def test_integer_params_typed(field, value):
    with pytest.raises(TypeError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        GravMapParams(**{field: value})


def test_map_size_bounded():
    """map_size is at most 256 voxels per axis, checked before anything is
    sized from it."""
    assert GravMapParams(map_size=256).map_size == 256
    with pytest.raises(ValueError, match=re.escape("map_size must be at most 256, got 257")):
        GravMapParams(map_size=257, downsample=257, num_points=1)


@pytest.mark.parametrize("field, value", [("offset_range", -1), ("gripper_radius", -0.5), ("sigma_avoid", -1.0)])
def test_negative_param_named(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be non-negative, got {value}")):
        GravMapParams(**{field: value})


@pytest.mark.parametrize("field, limit, value", [("offset_range", 100, 101), ("offset_range", 100, 10**20),
                                                 ("sigma_avoid", 100, 1e300), ("sigma_avoid", 20, 20.5)])
def test_voxel_count_params_bounded_by_map_size(field, limit, value):
    """The jitter and the smoothing sigma are at most map_size voxels; sigma
    sets the kernel's 2 floor(3 sigma) + 1 taps."""
    params = small_params(map_size=limit)
    assert getattr(dataclasses.replace(params, **{field: limit}), field) == limit
    with pytest.raises(ValueError, match=re.escape(f"{field} must be at most {limit}, got {value}")):
        dataclasses.replace(params, **{field: value})
