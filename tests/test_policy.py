import numpy as np
import pytest

from gravkit.demos import TaskKind
from gravkit.policy import (ToyPolicy, TrainConfig, TrainingDiverged, TrainingExample,
                            compute_gradients, denoiser_forward_batch, encode_gravmap,
                            load_policy, save_policy, train)
from gravkit.policy.nets import IN_A, IN_B, TOKEN_DIM, step_embedding
from gravkit.policy.train import build_negative_pool, build_transitions
from gravkit.sim import scripted_expert


@pytest.fixture(scope="module")
def policy():
    return ToyPolicy.init(seed=3)


@pytest.fixture(scope="module")
def tiny_setup(policy):
    demos = [scripted_expert(TaskKind.TOUCH_ONLY, s) for s in range(2)]
    config = TrainConfig(iters=10, seed=5, map_variants=1, pool_size=8)
    transitions = build_transitions(demos, policy, config)
    pool = build_negative_pool(policy, config)
    rng = np.random.default_rng(0)
    examples = [
        TrainingExample.from_transition(transitions[i % len(transitions)], 0,
                                        int(rng.integers(1, 101)), rng.standard_normal(9))
        for i in range(4)
    ]
    return examples, pool[:3]


def one_row(pose, step, proprio, scene, token, den):
    """The denoiser on a single (B = 1) row, as the sampling loop runs it."""
    return denoiser_forward_batch(pose[None, :], np.array([step]), proprio[None, :],
                                  scene[None, :], token[None, :], den)[:5]


class TestEncoder:
    def test_token_dimension(self, policy, rng):
        pts = rng.random((1024, 5))
        assert encode_gravmap(pts, policy.encoder).shape == (TOKEN_DIM,)

    def test_permutation_invariance_exact(self, policy, rng):
        pts = rng.random((256, 5))
        token = encode_gravmap(pts, policy.encoder)
        perm = encode_gravmap(pts[rng.permutation(256)], policy.encoder)
        np.testing.assert_array_equal(token, perm)

    def test_duplicate_invariance_exact(self, policy, rng):
        pts = rng.random((128, 5))
        token = encode_gravmap(pts, policy.encoder)
        dup = encode_gravmap(np.concatenate([pts, pts[:17]]), policy.encoder)
        np.testing.assert_array_equal(token, dup)


class TestDenoiser:
    def test_output_shapes(self, policy, rng):
        eps_pos, eps_rot, open_p, aux_pos, aux_open = one_row(
            rng.standard_normal(9), 17, rng.standard_normal(8), rng.standard_normal(16),
            rng.standard_normal(TOKEN_DIM), policy.denoiser)
        assert eps_pos.shape == (1, 3)
        assert eps_rot.shape == (1, 6)
        assert aux_pos.shape == (1, 3)
        assert open_p.shape == (1, 1) and aux_open.shape == (1, 1)
        assert 0.0 < open_p[0, 0] < 1.0 and 0.0 < aux_open[0, 0] < 1.0

    def test_rot_head_ignores_token_bit_identical(self, policy, rng):
        pose, proprio, scene = rng.standard_normal(9), rng.standard_normal(8), rng.standard_normal(16)
        out1 = one_row(pose, 50, proprio, scene, rng.standard_normal(TOKEN_DIM), policy.denoiser)
        for _ in range(5):
            out2 = one_row(pose, 50, proprio, scene, rng.standard_normal(TOKEN_DIM) * 10,
                           policy.denoiser)
            np.testing.assert_array_equal(out1[1], out2[1])
            assert np.any(out1[0] != out2[0])

    def test_finite_on_large_inputs(self, policy):
        rng = np.random.default_rng(0)
        out = one_row(rng.uniform(-10, 10, 9), 99, rng.uniform(-10, 10, 8),
                      rng.uniform(-10, 10, 16), rng.uniform(-10, 10, TOKEN_DIM), policy.denoiser)
        for v in out:
            assert np.all(np.isfinite(v))

    def test_trunk_input_widths(self):
        assert IN_A == 185 and IN_B == 65

    def test_step_embedding_shape_and_range(self):
        emb = step_embedding([1, 50, 100])
        assert emb.shape == (3, 32)
        assert np.all(np.abs(emb) <= 1.0)


class TestGradients:
    def test_fd_check_random_parameters(self, policy, tiny_setup):
        examples, negs = tiny_setup
        grads, loss, _ = compute_gradients(examples, negs, policy)
        assert np.isfinite(loss)
        params = dict(policy.params())
        rng = np.random.default_rng(99)
        names = sorted(params)
        h = 1e-5
        checked = 0
        while checked < 10:
            name = names[rng.integers(len(names))]
            arr = params[name]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            _, hi, _ = compute_gradients(examples, negs, policy)
            arr[idx] = orig - h
            _, lo, _ = compute_gradients(examples, negs, policy)
            arr[idx] = orig
            fd = (hi - lo) / (2 * h)
            an = grads[name][idx]
            denom = max(abs(fd), abs(an), 1e-8)
            assert abs(fd - an) / denom <= 1e-4, (name, idx, fd, an)
            checked += 1

    def test_gradients_deterministic(self, policy, tiny_setup):
        examples, negs = tiny_setup
        g1, l1, _ = compute_gradients(examples, negs, policy)
        g2, l2, _ = compute_gradients(examples, negs, policy)
        assert l1 == l2
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])

    def test_rot_head_gradient_independent_of_token(self, policy, tiny_setup):
        examples, negs = tiny_setup
        g1, _, _ = compute_gradients(examples, negs, policy)
        # change every map (hence every token); rotation-path grads must not move
        perturbed = []
        for ex in examples:
            pts = ex.map_points.copy()
            pts[:, 3] = 1.0 - pts[:, 3]
            perturbed.append(TrainingExample(
                map_points=pts, proprio=ex.proprio, scene=ex.scene, x0_pos=ex.x0_pos,
                x0_rot=ex.x0_rot, open_target=ex.open_target, aux_pos=ex.aux_pos,
                aux_open=ex.aux_open, k=ex.k, eps=ex.eps))
        g2, _, _ = compute_gradients(perturbed, negs, policy)
        for name in ("den.rot_w", "den.rot_b", "den.b_w1", "den.b_b1", "den.b_w2", "den.b_b2"):
            np.testing.assert_array_equal(g1[name], g2[name])
        assert np.any(g1["den.pos_w"] != g2["den.pos_w"])


@pytest.fixture(scope="module")
def demo_set():
    return [scripted_expert(TaskKind.TOUCH_ONLY, s) for s in range(3)]


class TestTraining:
    def test_same_seed_identical_checkpoints(self, demo_set):
        cfg = TrainConfig(iters=60, seed=11, pool_size=8)
        p1, c1 = train(cfg, demo_set)
        p2, c2 = train(TrainConfig(iters=60, seed=11, pool_size=8), demo_set)
        np.testing.assert_array_equal(c1, c2)
        assert p1.param_bytes() == p2.param_bytes()

    def test_loss_decreases(self, demo_set):
        _, curve = train(TrainConfig(iters=400, seed=2, pool_size=8), demo_set)
        assert curve[-50:].mean() < curve[:50].mean()

    def test_non_finite_loss_raises_training_diverged(self, demo_set):
        policy = ToyPolicy.init(seed=0)
        policy.denoiser.pos_b[:] = np.inf
        with pytest.raises(TrainingDiverged) as info:
            train(TrainConfig(iters=5, seed=0, pool_size=8), demo_set, policy)
        assert info.value.iteration == 0

    def test_save_load_round_trip(self, demo_set, tmp_path):
        policy, _ = train(TrainConfig(iters=30, seed=4, pool_size=8), demo_set)
        path = tmp_path / "model.bin"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded.param_bytes() == policy.param_bytes()
        for (na, a), (nb, b) in zip(policy.params(), loaded.params()):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        assert loaded.steps == policy.steps
        assert loaded.workspace == policy.workspace

    def test_episode_prediction_cap_default(self):
        import inspect

        from gravkit.policy import evaluate, run_episode
        assert inspect.signature(evaluate).parameters["max_steps"].default == 25
        assert inspect.signature(run_episode).parameters["max_steps"].default == 25

    def test_transitions_per_demo_structure(self, policy):
        demo = scripted_expert(TaskKind.TOUCH_ONLY, 0)
        cfg = TrainConfig(iters=10, seed=0, map_variants=2, pool_size=8)
        transitions = build_transitions([demo], policy, cfg)
        # frame0 -> k0 plus one per consecutive keypose pair
        assert len(transitions) == 4
        for tr in transitions:
            assert len(tr.maps) == 2
            assert tr.maps[0].shape == (1024, 5)
            assert tr.proprio.shape == (8,) and tr.scene.shape == (16,)
            assert np.all(np.abs(tr.x0_pos) <= 1.0)
