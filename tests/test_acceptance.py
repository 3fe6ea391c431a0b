"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
The end-to-end criterion trains a multi-task policy once (module-scoped
fixture) and evaluates it guided and unguided; budget assertions are wall
clock, so expect the full module to take 15-25 minutes on a laptop CPU.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from gravkit.demos import SubGoal, TaskKind
from gravkit.diffusion import (SCALED_LINEAR, SQUARED_COS, make_schedule, matrix_to_rot6d,
                               rot6d_to_matrix, sample)
from gravkit.gravmap import GravMapParams, Workspace, farthest_point_sampling, generate_gravmap
from gravkit.keypose import discover_keyposes, distill_demo
from gravkit.losses import W_POS, W_ROT, bce, contrastive, noise_l1, total_loss
from gravkit.policy import (ToyPolicy, TrainConfig, denoiser_forward_batch, evaluate,
                            load_policy, save_policy, train)
from gravkit.policy.nets import TOKEN_DIM, sigmoid
from gravkit.sim import SceneObject, World, occupancy_grid, scripted_expert, scripted_long_demo

from oracles import fps_oracle, gravmap_fields_oracle, subgoal_oracle
from test_diffusion import _ZeroDenoiser, chain_table, one_step_chain, random_rotation

WS = Workspace()
PARAMS = GravMapParams()


def report(criterion, ok, detail):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def random_scene(rng, n_spheres):
    objs = [SceneObject(center=rng.uniform(0.1, 0.9, 3), radius=float(rng.uniform(0.02, 0.08)))
            for _ in range(n_spheres)]
    return World(objects=objs)


def test_criterion_1_gravmap_invariant_suite():
    rng = np.random.default_rng(2024)
    worst_time = 0.0
    for trial in range(50):
        n_spheres = int(rng.integers(0, 4)) if trial % 3 else 0
        world = random_scene(rng, n_spheres)
        occ = occupancy_grid(world, PARAMS.map_size, WS)
        sub = SubGoal(g_pos=rng.uniform(0.05, 0.95, 3), g_open=int(rng.integers(2)),
                      g_rot=[1, 0, 0, 0, 1, 0])
        current = int(rng.integers(2))
        t0 = time.time()
        gmap, fields = generate_gravmap(sub, occ, current, WS, PARAMS, "infer",
                                        with_fields=True)
        worst_time = max(worst_time, time.time() - t0)

        assert len(gmap) == 1024
        cost = gmap.points[:, 3]
        assert cost.min() >= 0.0 and cost.max() <= 1.0
        assert np.all(gmap.points[:, :3] >= WS.min) and np.all(gmap.points[:, :3] <= WS.max)

        # gripper dichotomy against the sub-goal voxel at radius 3
        center = np.asarray(fields["center"], dtype=float)
        vox = np.floor((gmap.points[:, :3] - np.asarray(WS.min)) / (WS.extent / PARAMS.map_size))
        dist = np.sqrt(((vox - center) ** 2).sum(axis=1))

        # points and fields byte for byte against the full-field oracle
        want = gravmap_fields_oracle(occ, fields["center"], sub.g_open, current, PARAMS)
        assert all(fields[name].tobytes() == field.tobytes() for name, field in want.items())
        at = tuple(vox.astype(int).T)
        points = np.column_stack([gmap.points[:, :3], want["cost"][at], want["grip"][at]]).tobytes()
        plain = generate_gravmap(sub, occ, current, WS, PARAMS, "infer")
        assert gmap.points.tobytes() == points == plain.points.tobytes()
        grip = gmap.points[:, 4]
        want_goal = dist <= PARAMS.gripper_radius
        assert np.all(grip[want_goal] == PARAMS.encode_open(sub.g_open))
        assert np.all(grip[~want_goal] == PARAMS.encode_open(current))

        if n_spheres == 0:
            field_cost = fields["cost"].ravel()
            order = np.argsort(fields["dist"].ravel(), kind="stable")
            assert np.all(np.diff(field_cost[order]) >= -1e-12)  # radial monotonicity
            assert (field_cost == 0.0).sum() == 1
    report(1, worst_time <= 5.0,
           f"50 random maps: costs in [0,1], 1024 points, gripper dichotomy, "
           f"empty-scene monotonicity, points and fields equal to the oracle's; slowest synthesis {worst_time:.2f}s <= 5s")


def test_criterion_2_fps_oracle_equivalence():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 513))
        k = int(min(n, rng.integers(1, 65)))
        pts = rng.random((n, 3))
        assert list(farthest_point_sampling(pts, k)) == fps_oracle(pts, k)
    report(2, True, "200 random point sets match the brute-force greedy oracle exactly")


def test_criterion_3_distillation_oracle_equivalence():
    for seed in range(100):
        for kind in TaskKind:
            demo = scripted_expert(kind, seed)
            assert distill_demo(demo)[1] == subgoal_oracle(demo), (kind, seed)
    long_demo = scripted_long_demo(0)
    n_key = len(discover_keyposes(long_demo))
    n_sub = len(distill_demo(long_demo)[1])
    report(3, n_key == 11 and n_sub == 4,
           f"200 scripted demos match the brute-force scan; long demo: "
           f"{n_key} keyposes -> {n_sub} sub-goals")


def test_criterion_4_diffusion_identities():
    rng = np.random.default_rng(11)
    worst = 0.0
    for kind in (SCALED_LINEAR, SQUARED_COS):
        sched = make_schedule(kind, 1)
        for seed in range(25):
            out, x0 = one_step_chain(sched, sched, seed, rng.standard_normal(9))
            worst = max(worst, float(np.abs(out - x0).max()))
    assert worst <= 1e-12

    for kind in (SCALED_LINEAR, SQUARED_COS):
        sched = make_schedule(kind, 100)
        assert np.all(np.diff(sched.alpha_bar) < 0.0)

    sp, sr = make_schedule(SCALED_LINEAR, 100), make_schedule(SQUARED_COS, 100)
    pose, _ = sample(_ZeroDenoiser(), chain_table(sp, sr), seed=5, stochastic=False)
    e_k = np.random.default_rng(5).standard_normal(9)
    closed_form = e_k[:3] * np.prod(1.0 / np.sqrt(sp.alpha))
    zero_err = float(np.abs(pose.pos - closed_form).max())
    report(4, zero_err <= 1e-9,
           f"one-step inversion worst {worst:.2e} <= 1e-12; alpha-bar strictly "
           f"decreasing at K=100 for both schedulers; zero-denoiser closed form "
           f"err {zero_err:.2e} <= 1e-9")


def test_criterion_5_rotation_round_trip():
    rng = np.random.default_rng(42)
    worst_rt = worst_ortho = worst_det = 0.0
    for _ in range(1000):
        r = random_rotation(rng)
        back = rot6d_to_matrix(matrix_to_rot6d(r))
        worst_rt = max(worst_rt, float(np.linalg.norm(back - r)))
        worst_ortho = max(worst_ortho, float(np.abs(back.T @ back - np.eye(3)).max()))
        worst_det = max(worst_det, abs(float(np.linalg.det(back)) - 1.0))
    ok = worst_rt <= 1e-9 and worst_ortho <= 1e-9 and worst_det <= 1e-9
    report(5, ok, f"1000 rotations: round-trip {worst_rt:.2e}, orthonormality "
                  f"{worst_ortho:.2e}, det drift {worst_det:.2e} (all <= 1e-9)")


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def test_criterion_6_loss_correctness():
    rng = np.random.default_rng(3)
    h = 1e-5

    for it in range(100):  # noise term, on training's (B, 3) position and (B, 6) rotation rows
        shape, weight = ((8, 3), W_POS) if it % 2 else ((8, 6), W_ROT)
        pred, target = rng.standard_normal(shape), rng.standard_normal(shape)
        _, g = noise_l1(pred, target, weight)
        i = (int(rng.integers(shape[0])), int(rng.integers(shape[1])))
        bump = np.zeros(shape)
        bump[i] = h
        hi, lo = noise_l1(pred + bump, target)[0], noise_l1(pred - bump, target)[0]
        fd = weight * (hi - lo) / (2 * h)
        assert _rel_err(g[i], fd) <= 1e-4

    for _ in range(100):  # openness term (covers both BCE heads), w.r.t. the logit
        p = rng.uniform(0.02, 0.98, (8, 1))
        y = rng.integers(2, size=(8, 1)).astype(float)
        logit = np.log(p / (1.0 - p))
        i = int(rng.integers(8))
        bump = np.zeros((8, 1))
        bump[i] = h
        fd = (bce(sigmoid(logit + bump), y)[0] - bce(sigmoid(logit - bump), y)[0]) / (2 * h)
        assert _rel_err(bce(sigmoid(logit), y)[1][i, 0], fd) <= 1e-4

    for _ in range(10):  # contrastive term, 10 coordinates per random batch
        f = 0.3 * rng.standard_normal((4, 5))   # unsaturated softmax rows, as in test_losses
        _, d_f = contrastive(f, 0.3)
        for _ in range(10):
            i, j = int(rng.integers(4)), int(rng.integers(5))
            orig = f[i, j]
            f[i, j] = orig + h
            hi, _ = contrastive(f, 0.3)
            f[i, j] = orig - h
            lo, _ = contrastive(f, 0.3)
            f[i, j] = orig
            assert _rel_err(d_f[i, j], (hi - lo) / (2 * h)) <= 1e-4

    for n in (2, 4, 8):  # identical features collapse to ln N
        feats = np.tile(rng.standard_normal(16), (n, 1))
        val, _ = contrastive(feats, 0.1)
        assert abs(val - np.log(n)) <= 1e-9

    base = rng.random(6)
    t0 = total_loss(*base)
    for i, coeff in enumerate((1.0, 30.0, 10.0, 30.0, 1.0, 10.0)):
        bumped = base.copy()
        bumped[i] += 1.0
        assert abs((total_loss(*bumped) - t0) - coeff) <= 1e-9
    report(6, True, "all loss gradients match central finite differences "
                    "(rel err <= 1e-4); identical-feature contrastive = ln N; "
                    "total-loss weights (30, 10, 30, 10) verified by linearity")


def test_criterion_7_conditioning_contract():
    policy = ToyPolicy.init(seed=0)
    rng = np.random.default_rng(1)
    pose = rng.standard_normal((1, 9))
    proprio, scene = rng.standard_normal((1, 8)), rng.standard_normal((1, 16))

    def one_row(token):  # B = 1, as the sampling loop calls it
        return denoiser_forward_batch(pose, np.array([60]), proprio, scene, token[None, :],
                                      policy.params)

    ref = one_row(rng.standard_normal(TOKEN_DIM))
    for _ in range(20):
        eps_pos, eps_rot, open_p, aux_pos, aux_open, _ = one_row(rng.standard_normal(TOKEN_DIM))
        assert np.array_equal(ref[1], eps_rot)  # bit-identical
        assert np.any(ref[0] != eps_pos)
        assert np.all(ref[2] != open_p)
        assert np.any(ref[3] != aux_pos)
        assert np.all(ref[4] != aux_open)
    report(7, True, "token perturbations leave rotation noise bit-identical while "
                    "position/openness/auxiliary outputs all move")


# ---------------------------------------------------------------------------
# end-to-end desk-scale analog
# ---------------------------------------------------------------------------

TRAIN_ITERS = 12000
EPISODES = 50
CPU_BUDGET_S = 1800.0


@pytest.fixture(scope="module")
def trained_policy():
    demo_set = ([scripted_expert(TaskKind.TOUCH_ONLY, s) for s in range(20)]
                + [scripted_expert(TaskKind.GRASP_PLACE, 1000 + s) for s in range(20)])
    config = TrainConfig(iters=TRAIN_ITERS, seed=42)
    t0 = time.time()
    policy, curve = train(config, demo_set)
    return policy, curve, time.time() - t0


@pytest.mark.slow
def test_criterion_8_end_to_end(trained_policy):
    policy, curve, wall = trained_policy
    assert TRAIN_ITERS <= 50_000

    initial = float(curve[:100].mean())
    at_5k = float(curve[4900:5100].mean())
    assert at_5k < 0.5 * initial, (initial, at_5k)

    untrained = evaluate(ToyPolicy.init(seed=1), TaskKind.TOUCH_ONLY, 20, 99, guided=True)
    assert untrained < 0.10

    guided = evaluate(policy, TaskKind.TOUCH_ONLY, EPISODES, 777, guided=True)
    shifted_guided = evaluate(policy, TaskKind.TOUCH_ONLY, EPISODES, 777, guided=True,
                              shifted=True)
    shifted_unguided = evaluate(policy, TaskKind.TOUCH_ONLY, EPISODES, 777, guided=False,
                                shifted=True)
    ok = (guided >= 0.90 and shifted_guided - shifted_unguided >= 0.20
          and wall <= CPU_BUDGET_S)
    report(8, ok,
           f"20 demos/task, {TRAIN_ITERS} iters in {wall:.0f}s (<= {CPU_BUDGET_S:.0f}s); "
           f"loss {initial:.1f} -> {at_5k:.1f} by 5k iters; untrained baseline "
           f"{untrained:.0%}; guided reach {guided:.0%} (>= 90%); shifted-goal "
           f"guided {shifted_guided:.0%} vs unguided {shifted_unguided:.0%} "
           f"(gap >= 20 points); episodes capped at 25 prediction steps")


@pytest.mark.slow
def test_criterion_8_checkpoint_round_trip(trained_policy, tmp_path):
    policy, _, _ = trained_policy
    path = tmp_path / "model.bin"
    save_policy(policy, path)
    loaded = load_policy(path)
    before = evaluate(policy, TaskKind.TOUCH_ONLY, 10, 31, guided=True)
    after = evaluate(loaded, TaskKind.TOUCH_ONLY, 10, 31, guided=True)
    assert before == after
    assert loaded.param_bytes() == policy.param_bytes()


# ---------------------------------------------------------------------------
# CLI determinism sweep
# ---------------------------------------------------------------------------

def _run(*args):
    res = subprocess.run([sys.executable, "-m", "gravkit.cli"] + list(args),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_criterion_9_cli_determinism(tmp_path):
    stages = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        _run("gen-demos", "--task", "grasp_place", "--n", "3", "--seed", "7",
             "--out", str(d / "demos.jsonl"))
        _run("distill", "--demos", str(d / "demos.jsonl"), "--out", str(d / "sub.jsonl"))
        _run("synth", "--subgoal", "0.4,0.5,0.2,1", "--mode", "train", "--seed", "3",
             "--out", str(d / "m.gmap"))
        _run("synth", "--subgoal", "0.4,0.5,0.2,0", "--mode", "infer",
             "--out", str(d / "mi.gmap"), "--slice", "z=20", "--pgm", str(d / "s.pgm"))
        stdout = _run("train-eval", "--demos", str(d / "demos.jsonl"), "--iters", "40",
                      "--seed", "9", "--episodes", "2", "--eval-seed", "4",
                      "--task", "grasp_place", "--out-model", str(d / "model.bin"))
        (d / "eval.json").write_text(stdout)
        stages.append(d)
    a, b = stages
    names = ["demos.jsonl", "sub.jsonl", "m.gmap", "mi.gmap", "s.pgm", "model.bin", "eval.json"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    rec = json.loads((a / "eval.json").read_text())
    assert set(rec) >= {"guided", "unguided", "episodes"}
    report(9, True, f"all CLI stages byte-identical across repeated seeded runs: {names}")
