import importlib
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gravkit.demos import CorruptFile, Demo, TaskKind
from gravkit.gravmap import _sample_lattice, assemble_points
from gravkit.policy.model import CONFIG
from gravkit.policy import (Adam, ToyPolicy, TrainConfig, TrainingDiverged, compute_gradients,
                            denoiser_forward_batch, encode_gravmap, evaluate, load_policy,
                            save_policy, train)
from gravkit.policy import nets
from gravkit.policy.nets import (ENC_BLOCK_ROWS as BLOCK, ENC_H1, ENC_H2, HIDDEN, IN_A, IN_B,
                                 LAYERS, POINT_DIM, TOKEN_DIM, EncoderWorkspace,
                                 chain_denoiser, denoiser_backward, encoder_backward,
                                 encoder_forward, sigmoid, step_embedding)
from gravkit.policy.train import (ADAM_BETA1, ADAM_BETA2, ADAM_CHUNK, ADAM_EPS, CONTRAST_N,
                                  WEIGHT_DECAY, build_negative_pool, build_transitions)
from gravkit.sim import scripted_expert
from oracles import (denoiser_backward_oracle, denoiser_oracle, encoder_backward_oracle,
                     encoder_oracle, sigmoid_oracle)

train_mod = importlib.import_module("gravkit.policy.train")   # gravkit.policy.train is the function


@pytest.fixture(scope="module")
def policy():
    return ToyPolicy.init(seed=3)


@pytest.fixture(scope="module")
def tiny_setup(policy):
    """A compute_gradients batch of 4 rows, its maps followed by 3
    negatives, each map's channels joined to the shared lattice xyz as
    train() joins them."""
    demos = [scripted_expert(TaskKind.TOUCH_ONLY, s) for s in range(2)]
    config = TrainConfig(iters=10, seed=5, pool_size=8)
    maps, proprio, scene, targets, aux = build_transitions(demos, policy, config)
    pool = build_negative_pool(policy, config)
    xyz = _sample_lattice(policy.workspace, policy.gravmap_params)[0]
    rng = np.random.default_rng(0)
    draws = [(rng.integers(1, 101), rng.standard_normal(9)) for _ in range(4)]
    k = np.array([kk for kk, _ in draws])
    eps = np.stack([e for _, e in draws])
    rows = np.arange(4) % len(proprio)
    encoder_input = assemble_points(xyz, np.concatenate([maps[rows, 0], pool[:3]]))
    return encoder_input, proprio[rows], scene[rows], targets[rows], aux[rows], k, eps


def one_row(pose, step, proprio, scene, token, params):
    """The denoiser on a single (B = 1) row, as the sampling loop runs it."""
    return denoiser_forward_batch(pose[None, :], np.array([step]), proprio[None, :],
                                  scene[None, :], token[None, :], params)[:5]


class TestEncoder:
    def test_token_dimension(self, policy, rng):
        pts = rng.random((1024, 5))
        assert encode_gravmap(pts, policy.params).shape == (TOKEN_DIM,)

    def test_permutation_invariance_exact(self, policy, rng):
        pts = rng.random((256, 5))
        token = encode_gravmap(pts, policy.params)
        perm = encode_gravmap(pts[rng.permutation(256)], policy.params)
        np.testing.assert_array_equal(token, perm)

    def test_duplicate_invariance_exact(self, policy, rng):
        pts = rng.random((128, 5))
        token = encode_gravmap(pts, policy.params)
        dup = encode_gravmap(np.concatenate([pts, pts[:17]]), policy.params)
        np.testing.assert_array_equal(token, dup)


class TestDenoiser:
    def test_output_shapes(self, policy, rng):
        eps_pos, eps_rot, open_p, aux_pos, aux_open = one_row(
            rng.standard_normal(9), 17, rng.standard_normal(8), rng.standard_normal(16),
            rng.standard_normal(TOKEN_DIM), policy.params)
        assert eps_pos.shape == (1, 3)
        assert eps_rot.shape == (1, 6)
        assert aux_pos.shape == (1, 3)
        assert open_p.shape == (1, 1) and aux_open.shape == (1, 1)
        assert 0.0 < open_p[0, 0] < 1.0 and 0.0 < aux_open[0, 0] < 1.0

    def test_rot_head_ignores_token_bit_identical(self, policy, rng):
        pose, proprio, scene = rng.standard_normal(9), rng.standard_normal(8), rng.standard_normal(16)
        out1 = one_row(pose, 50, proprio, scene, rng.standard_normal(TOKEN_DIM), policy.params)
        for _ in range(5):
            out2 = one_row(pose, 50, proprio, scene, rng.standard_normal(TOKEN_DIM) * 10,
                           policy.params)
            np.testing.assert_array_equal(out1[1], out2[1])
            assert np.any(out1[0] != out2[0])

    def test_finite_on_large_inputs(self, policy):
        rng = np.random.default_rng(0)
        out = one_row(rng.uniform(-10, 10, 9), 99, rng.uniform(-10, 10, 8),
                      rng.uniform(-10, 10, 16), rng.uniform(-10, 10, TOKEN_DIM), policy.params)
        for v in out:
            assert np.all(np.isfinite(v))

    def test_trunk_input_widths(self):
        assert IN_A == 185 and IN_B == 65

    def test_step_embedding_shape_and_range(self):
        emb = step_embedding([1, 50, 100])
        assert emb.shape == (3, 32)
        assert np.all(np.abs(emb) <= 1.0)

    @pytest.mark.parametrize("steps", [1, 2, 100, 1000])
    def test_step_embedding_table_rows_equal_per_step_calls(self, steps):
        """Training and sampling read a table built in one call; numpy's
        vectorised sin and cos must give each row the bits of a one-step
        call, and each batch of rows the bits of a call on that batch."""
        table = step_embedding(np.arange(1, steps + 1))
        for k in range(1, steps + 1):
            assert table[k - 1].tobytes() == step_embedding([k])[0].tobytes(), k
        rng = np.random.default_rng(steps)
        for _ in range(200):
            ks = rng.integers(1, steps + 1, size=rng.integers(1, 64))
            assert table[ks - 1].tobytes() == step_embedding(ks).tobytes(), ks


class TestGradients:
    def test_fd_check_random_parameters(self, policy, tiny_setup):
        batch = tiny_setup
        grads, loss, _ = compute_gradients(*batch, policy)
        assert np.isfinite(loss)
        grads = nets.param_views(grads)
        params = policy.params
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
            _, hi, _ = compute_gradients(*batch, policy)
            arr[idx] = orig - h
            _, lo, _ = compute_gradients(*batch, policy)
            arr[idx] = orig
            fd = (hi - lo) / (2 * h)
            an = grads[name][idx]
            denom = max(abs(fd), abs(an), 1e-8)
            assert abs(fd - an) / denom <= 1e-4, (name, idx, fd, an)
            checked += 1

    def test_each_gradient_written_once(self, policy, tiny_setup, monkeypatch):
        written = []
        write = nets._write_grads

        def recording_write(grads, layer, x, d_out):
            written.extend(layer[:2])
            write(grads, layer, x, d_out)

        monkeypatch.setattr(nets, "_write_grads", recording_write)
        batch = tiny_setup
        grads, _, _ = compute_gradients(*batch, policy)
        names = [name for layer in LAYERS for name in layer[:2]]
        assert sorted(written) == sorted(names)
        assert grads.shape == (nets.PARAM_COUNT,)

    def test_gradients_deterministic(self, policy, tiny_setup):
        batch = tiny_setup
        g1, l1, _ = compute_gradients(*batch, policy)
        g2, l2, _ = compute_gradients(*batch, policy)
        assert l1 == l2
        assert g1.tobytes() == g2.tobytes()

    def test_gradients_written_into_out(self, policy, tiny_setup):
        """A reused buffer, whatever it held, comes back holding the same
        gradients a new one gets."""
        batch = tiny_setup
        want, loss, _ = compute_gradients(*batch, policy)
        out = np.full(nets.PARAM_COUNT, np.nan)
        got, again, _ = compute_gradients(*batch, policy, out=out)
        assert got is out and again == loss
        assert got.tobytes() == want.tobytes()

    def test_rot_head_gradient_independent_of_token(self, policy, tiny_setup):
        batch = tiny_setup
        g1 = nets.param_views(compute_gradients(*batch, policy)[0])
        # change every batch row's map (hence its token); rotation-path grads must not move
        maps = batch[0].copy()
        maps[:4, :, 3] = 1.0 - maps[:4, :, 3]
        g2 = nets.param_views(compute_gradients(maps, *batch[1:], policy)[0])
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
        policy.params["den.pos_b"][:] = np.inf
        with pytest.raises(TrainingDiverged) as info:
            train(TrainConfig(iters=5, seed=0, pool_size=8), demo_set, policy)
        assert info.value.iteration == 0

    def test_save_load_round_trip(self, demo_set, tmp_path):
        policy, _ = train(TrainConfig(iters=30, seed=4, pool_size=8), demo_set)
        path = tmp_path / "model.bin"
        save_policy(policy, path)
        loaded = load_policy(path)
        assert loaded.param_bytes() == policy.param_bytes()
        for (na, a), (nb, b) in zip(policy.params.items(), loaded.params.items()):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        assert loaded.workspace == policy.workspace

    def test_one_gradient_buffer_per_run(self, demo_set, monkeypatch):
        """train() hands compute_gradients the one flat buffer and the one
        encoder workspace it allocated, and every iteration gets that buffer
        back: no iteration after the first allocates a new one."""
        real = train_mod.compute_gradients
        given, workspaces, returned = [], [], []

        def recording(*args, out=None, workspace=None, **kwargs):
            given.append(out)
            workspaces.append(workspace)
            result = real(*args, out=out, workspace=workspace, **kwargs)
            returned.append(result[0])
            return result

        monkeypatch.setattr(train_mod, "compute_gradients", recording)
        train(TrainConfig(iters=4, seed=3, pool_size=8), demo_set)
        assert len(given) == 4 and given[0] is not None
        assert all(buf is given[0] for buf in given + returned)
        assert isinstance(workspaces[0], EncoderWorkspace)
        assert all(ws is workspaces[0] for ws in workspaces)

    def test_huge_iteration_count_fails_before_set_up(self, demo_set, monkeypatch):
        """The loss curve is allocated before the training set is built, so a
        count that cannot fit synthesizes no map. TrainConfig refuses such a
        count, so its bound is lifted here."""
        def never(*args):
            raise AssertionError("the training set was built")

        monkeypatch.setattr(train_mod, "MAX_ITERS", 10**18)
        monkeypatch.setattr(train_mod, "build_transitions", never)
        monkeypatch.setattr(train_mod, "build_negative_pool", never)
        with pytest.raises(MemoryError):
            train(TrainConfig(iters=10**18, seed=0, pool_size=8), demo_set)

    def test_training_set_peak_memory(self, policy):
        """build_transitions on the 3-demo set of test_training_maps_and_pool
        holds little beyond the arrays it returns: the maps are synthesized
        in chunks, straight into the channel array, with no per-map list and
        no stacked copy."""
        demos = [scripted_expert(TaskKind.TOUCH_ONLY, s) for s in range(3)]
        config = TrainConfig(iters=20, seed=7, pool_size=8)
        _sample_lattice(policy.workspace, policy.gravmap_params)   # the memoised lattice
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            arrays = build_transitions(demos, policy, config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert arrays[0].shape == (12, 2, 1024, 2)
        assert peak <= sum(a.nbytes for a in arrays) + 2**20

    def test_pool_must_hold_one_map_per_negative(self):
        assert CONTRAST_N - 1 == 7
        with pytest.raises(ValueError, match="pool_size"):
            TrainConfig(pool_size=6)
        assert TrainConfig(pool_size=7).pool_size == 7

    @pytest.mark.parametrize("field, value", [("iters", 0), ("batch", -2), ("lr", 0.0),
                                              ("seed", -1)])
    def test_config_names_bad_field_and_value(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be .*, got {value}$"):
            TrainConfig(**{field: value})

    def test_evaluate_rejects_negative_seed(self, policy):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            evaluate(policy, TaskKind.TOUCH_ONLY, 1, -1)

    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_evaluate_rejects_non_positive_step_cap(self, policy, max_steps):
        with pytest.raises(ValueError, match="max_steps"):
            evaluate(policy, TaskKind.TOUCH_ONLY, 2, 0, max_steps=max_steps)

    def test_episode_prediction_cap_default(self):
        import inspect

        from gravkit.policy import evaluate, run_episode
        assert inspect.signature(evaluate).parameters["max_steps"].default == 25
        assert inspect.signature(run_episode).parameters["max_steps"].default == 25

    @pytest.mark.parametrize("n_frames", [1, 2, 3, 4])
    def test_short_demo_keeps_other_transitions(self, policy, demo_set, n_frames):
        """A demo of a few frames adds only its own transitions (a one-frame
        demo distills to none) and leaves every other demo's rows as they
        were, bit for bit."""
        cfg = TrainConfig(iters=10, seed=0, pool_size=8)
        short = Demo(demo_set[0].task_kind, demo_set[0].instruction, demo_set[0].frames[:n_frames])
        base = build_transitions(demo_set, policy, cfg)
        extended = build_transitions(demo_set + [short], policy, cfg)
        for a, b in zip(base, extended):
            assert len(b) == len(a) + (n_frames > 1)
            assert b[:len(a)].tobytes() == a.tobytes()

    def test_transitions_per_demo_structure(self, policy):
        demo = scripted_expert(TaskKind.TOUCH_ONLY, 0)
        cfg = TrainConfig(iters=10, seed=0, pool_size=8)
        maps, proprio, scene, targets, aux = build_transitions([demo], policy, cfg)
        # frame0 -> k0 plus one per consecutive keypose pair
        assert maps.shape == (4, 2, 1024, 2)   # cost and grip; the xyz is the shared lattice's
        assert proprio.shape == (4, 8) and scene.shape == (4, 16)
        assert targets.shape == (4, 10) and aux.shape == (4, 4)
        assert np.all(np.abs(targets[:, :3]) <= 1.0)
        assert set(targets[:, 9]) <= {0.0, 1.0} and set(aux[:, 3]) <= {0.0, 1.0}


def _zero_grads(params, prefix):
    return {name: np.zeros_like(arr) for name, arr in params.items() if name.startswith(prefix)}


class TestEncoderMatchesOracle:
    @pytest.mark.parametrize("m", [1, 2, 15])
    @pytest.mark.parametrize("n", [1, 7, 128, 145, 1024])
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), distinct=st.sampled_from([None, 1, 3, 40]),
           dead_frac=st.sampled_from([0.0, 0.3, 1.0]))
    def test_tokens_pool_and_gradients_bit_identical(self, m, n, seed, distinct, dead_frac):
        _check_encoder_against_oracle(m, n, seed, distinct, dead_frac)

    # Shapes at the edges of the encoder's row blocks (`nets._encoder_blocks`):
    # one-point maps past one block's map count (a one-row tail joins the
    # block before it, a two-row tail stands alone), one-map tails at N = 2
    # and 3, maps just longer than a block, and blocks of several maps whose
    # point count is above 256 and not a multiple of 8 (725, 903 and 258
    # points), where layer 2 runs on padding columns.
    @pytest.mark.parametrize("m, n", [(BLOCK + 1, 1), (BLOCK + 2, 1), (2 * BLOCK + 1, 1),
                                      (BLOCK // 2 + 1, 2), (BLOCK // 3 + 1, 3),
                                      (2, BLOCK + 1), (3, BLOCK + 2), (5, 145), (9, 129)])
    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), distinct=st.sampled_from([None, 1, 3]),
           dead_frac=st.sampled_from([0.0, 0.3, 1.0]))
    def test_block_boundaries_bit_identical(self, m, n, seed, distinct, dead_frac):
        _check_encoder_against_oracle(m, n, seed, distinct, dead_frac)

    @pytest.mark.parametrize("m, n", [(15, 1024), (2, 145), (3, BLOCK + 1), (1, BLOCK)])
    def test_cache_keeps_only_winning_rows(self, m, n):
        """The backward reads only the max-pool's winning rows, at most 128
        per map, so with more than 128 points per map the cache holds no
        array with a row per point."""
        rng = np.random.default_rng(m * n)
        params = ToyPolicy.init(seed=1).params
        _, cache = encoder_forward(rng.standard_normal((m, n, 5)), params)
        for key, value in cache.items():
            if isinstance(value, np.ndarray):
                assert value.shape[0] != m * n, key
                assert value.shape[0] <= m * ENC_H2, key

    @pytest.mark.parametrize("m, n", [(15, 1024), (5, 145), (9, 129), (1, 7), (1, 1)])
    def test_workspace_call_matches_fresh_call(self, m, n):
        """A forward on a workspace that an earlier forward filled gives the
        bytes of a forward on a new one: tokens and every cache array."""
        rng = np.random.default_rng(m + n)
        params = ToyPolicy.init(seed=2).params
        workspace = EncoderWorkspace(m, n)
        encoder_forward(rng.standard_normal((m, n, 5)), params, workspace)
        maps = rng.standard_normal((m, n, 5))
        want_tokens, want = encoder_forward(maps, params)
        tokens, cache = encoder_forward(maps, params, workspace)
        assert tokens.tobytes() == want_tokens.tobytes()
        assert cache.keys() == want.keys()
        for key in want:
            assert cache[key].shape == want[key].shape, key
            assert cache[key].tobytes() == want[key].tobytes(), key
            assert cache[key].flags.c_contiguous, key

    def test_workspace_for_other_maps_refused(self):
        params = ToyPolicy.init(seed=2).params
        with pytest.raises(ValueError, match=r"holds \(15, 1024\) maps, got \(14, 1024\)"):
            encoder_forward(np.zeros((14, 1024, 5)), params, EncoderWorkspace(15, 1024))

    def test_training_batch_allocates_under_1mb(self):
        """With the run's workspace, a forward on a training batch (15 maps
        of 1,024 points) allocates nothing that scales with points: block
        activations, pooling arrays and winning rows all live in the
        workspace."""
        rng = np.random.default_rng(4)
        params = ToyPolicy.init(seed=2).params
        maps = rng.standard_normal((15, 1024, 5))
        workspace = EncoderWorkspace(15, 1024)
        encoder_forward(maps, params, workspace)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            encoder_forward(maps, params, workspace)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _check_encoder_against_oracle(m, n, seed, distinct, dead_frac):
    """`distinct` limits each map to that many distinct points (None: all
    distinct), so the winning point of a channel appears several times;
    `dead_frac` of the channels get a bias that keeps them at 0 on every
    point, so their maximum is a tie across the whole map."""
    rng = np.random.default_rng(seed)
    params = ToyPolicy.init(seed=seed).params
    params["enc.b1"] = 0.3 * rng.standard_normal(ENC_H1)
    params["enc.b2"] = 0.3 * rng.standard_normal(ENC_H2)
    params["enc.b2"][rng.random(ENC_H2) < dead_frac] = -1e6
    maps = rng.standard_normal((m, n, 5))
    if distinct is not None:
        maps = maps[:, rng.integers(0, min(distinct, n), n)]
    d_tokens = rng.standard_normal((m, TOKEN_DIM))

    tokens, cache = encoder_forward(maps, params)
    want_tokens, want_arg, want_pooled, state = encoder_oracle(maps, params)
    assert tokens.tobytes() == want_tokens.tobytes()
    np.testing.assert_array_equal(cache["arg"], want_arg)
    assert cache["pooled"].tobytes() == want_pooled.tobytes()

    got, want = _zero_grads(params, "enc."), _zero_grads(params, "enc.")
    encoder_backward(d_tokens, cache, params, got)
    encoder_backward_oracle(d_tokens, state, params, want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


# Row blocks of the encoder's two point-MLP products against the full
# product, run in a fresh interpreter so the BLAS thread count takes effect.
BLAS_ROW_BLOCKS_SCRIPT = """
import json, sys
import numpy as np
rows, shapes, sizes = json.loads(sys.argv[1])
rng = np.random.default_rng(0)
bad = []
for k, width in shapes:
    x = np.maximum(rng.standard_normal((rows, k)), 0.0)
    w = rng.standard_normal((k, width))
    full = x @ w
    for size in sizes:
        for start in (0, 1, rows - size):
            if (x[start:start + size] @ w).tobytes() != full[start:start + size].tobytes():
                bad.append([k, width, size, start])
print(json.dumps(bad))
"""


class TestBlasRowBlocks:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_row_blocks_equal_full_product_rows(self, threads):
        """The blocked encoder forward relies on this BLAS property: rows of
        a product of at least two rows are the same bytes as those rows of
        the whole product. A one-row product (gemv) is not covered."""
        rows = 15 * 1024
        sizes = [2, 3, 7, 64, 145, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 7000]
        shapes = [[POINT_DIM, ENC_H1], [ENC_H1, ENC_H2]]
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        res = subprocess.run([sys.executable, "-c", BLAS_ROW_BLOCKS_SCRIPT,
                              json.dumps([rows, shapes, sizes])],
                             env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == []


# The encoder's channel-major products against the transposes of the
# row-major products, in a fresh interpreter so the BLAS thread count takes
# effect. Each count k comes with the column count layer 2 runs on.
BLAS_CHANNEL_MAJOR_SCRIPT = """
import json, sys
import numpy as np
(d, w1_out, w2_out), counts = json.loads(sys.argv[1])
rng = np.random.default_rng(0)
w1, w2 = rng.standard_normal((d, w1_out)), rng.standard_normal((w1_out, w2_out))
bad = []
for k, cols in counts:
    x = rng.standard_normal((k, d))
    h1 = np.full((w1_out, cols), 7.0)   # padding columns hold stale finite values
    np.matmul(w1.T, x.T, out=h1[:, :k])
    if h1[:, :k].tobytes() != (x @ w1).T.tobytes():
        bad.append(["layer 1", k])
    np.maximum(h1, 0.0, out=h1)
    rows = np.ascontiguousarray(h1[:, :k].T)
    if (w2.T @ h1)[:, :k].tobytes() != (rows @ w2).T.tobytes():
        bad.append(["layer 2", k])
print(json.dumps(bad))
"""


class TestBlasChannelMajor:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_channel_major_products_equal_row_major_transposes(self, threads):
        """The channel-major encoder relies on this BLAS property: `W1ᵀ @ xᵀ`
        is `(x @ W1)ᵀ` byte for byte, and `W2ᵀ @ h1` on `_padded_cols`
        columns is `(h1ᵀ @ W2)ᵀ` on the real ones. A failure names the
        layer and the point count k. 1025 points is the largest block of
        maps no longer than a block; 7000 stands for one longer map."""
        counts = [[k, nets._padded_cols(k)]
                  for k in (1, 2, 7, 145, 290, 1023, BLOCK, BLOCK + 1, 7000)]
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        res = subprocess.run([sys.executable, "-c", BLAS_CHANNEL_MAJOR_SCRIPT,
                              json.dumps([[POINT_DIM, ENC_H1, ENC_H2], counts])],
                             env=env, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == []


class TestDenoiserMatchesOracle:
    @pytest.mark.parametrize("b", [1, 8, 15])
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dead_frac=st.sampled_from([0.0, 0.3, 1.0]))
    def test_outputs_and_gradients_bit_identical(self, b, seed, dead_frac):
        """`dead_frac` of the hidden units of each trunk layer get a bias
        that keeps them at 0 on every row, so the ReLU masks see exact zeros."""
        rng = np.random.default_rng(seed)
        params = ToyPolicy.init(seed=seed).params
        for name in ("den.a_b1", "den.a_b2", "den.b_b1", "den.b_b2"):
            params[name] = 0.3 * rng.standard_normal(HIDDEN)
            params[name][rng.random(HIDDEN) < dead_frac] = -1e6
        pose, proprio, scene, tokens = (rng.standard_normal((b, w)) for w in (9, 8, 16, TOKEN_DIM))
        steps = rng.integers(1, 101, b)
        d_heads = [rng.standard_normal((b, w)) for w in (3, 1, 3, 1, 6)]

        *outs, cache = denoiser_forward_batch(pose, steps, proprio, scene, tokens, params)
        *want_outs, state = denoiser_oracle(pose, proprio, scene, step_embedding(steps), tokens,
                                            params)
        for got_out, want_out in zip(outs, want_outs, strict=True):
            assert got_out.tobytes() == want_out.tobytes()

        got, want = _zero_grads(params, "den."), _zero_grads(params, "den.")
        d_tokens = denoiser_backward(*d_heads, cache, params, got)
        want_d_tokens = denoiser_backward_oracle(*d_heads, state, params, want)
        assert d_tokens.tobytes() == want_d_tokens.tobytes()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


class TestChainDenoiserMatchesBatchForward:
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dead_frac=st.sampled_from([0.0, 0.3, 1.0]))
    def test_eps_and_open_bit_identical_at_b1(self, seed, dead_frac):
        """The sampling closure, over several steps of one chain, against
        `denoiser_forward_batch` at B = 1; dead units as in
        TestDenoiserMatchesOracle."""
        rng = np.random.default_rng(seed)
        params = ToyPolicy.init(seed=seed).params
        for name in ("den.a_b1", "den.a_b2", "den.b_b1", "den.b_b2"):
            params[name] = 0.3 * rng.standard_normal(HIDDEN)
            params[name][rng.random(HIDDEN) < dead_frac] = -1e6
        proprio, scene, token = (rng.standard_normal(w) for w in (8, 16, TOKEN_DIM))
        denoiser = chain_denoiser(params, proprio, scene, token)
        for k in rng.integers(1, 101, 5):
            pose = rng.standard_normal(9)
            eps, open_p = denoiser(pose, k)
            eps_pos, eps_rot, want_open, *_ = denoiser_forward_batch(
                pose[None, :], np.array([k]), proprio[None, :], scene[None, :], token[None, :],
                params)
            assert eps.tobytes() == np.concatenate([eps_pos[0], eps_rot[0]]).tobytes()
            assert np.float64(open_p).tobytes() == want_open[0, 0].tobytes()


class TestSamplingReadsNoTrainingOnlyHeads:
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_training_only_heads_never_read(self, seed):
        """Sampling gives the same bytes with the auxiliary heads' parameters
        removed from the dict."""
        rng = np.random.default_rng(seed)
        params = ToyPolicy.init(seed=seed).params
        sampling_params = {name: arr for name, arr in params.items()
                           if not name.startswith("den.aux")}
        assert len(params) - len(sampling_params) == 4
        proprio, scene, token = (rng.standard_normal(w) for w in (8, 16, TOKEN_DIM))
        full = chain_denoiser(params, proprio, scene, token)
        sampling_only = chain_denoiser(sampling_params, proprio, scene, token)
        for k in rng.integers(1, 101, 5):
            pose = rng.standard_normal(9)
            (eps, open_p), (want_eps, want_open) = sampling_only(pose, k), full(pose, k)
            assert eps.tobytes() == want_eps.tobytes()
            assert np.float64(open_p).tobytes() == np.float64(want_open).tobytes()


class TestSigmoid:
    EDGES = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                      1000.0, -1000.0, 709.8, -709.8, 745.2, -745.2, 36.8, -36.8])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(x=hnp.arrays(np.float64, st.integers(1, 4096),
                        elements=st.floats(allow_nan=False, allow_subnormal=True)))
    def test_matches_masked_form_bytes(self, x):
        with np.errstate(over="raise", invalid="raise"):
            assert sigmoid(x).tobytes() == sigmoid_oracle(x).tobytes()

    def test_edge_values_and_large_arrays(self):
        rng = np.random.default_rng(0)
        cases = [self.EDGES, rng.standard_normal(100_000) * 50.0,
                 rng.standard_normal((7, 3)), rng.standard_normal((1, 1))]
        with np.errstate(over="raise", invalid="raise"):
            for x in cases:
                got = sigmoid(x)
                assert got.shape == x.shape
                assert got.tobytes() == sigmoid_oracle(x).tobytes()


class TestAdam:
    SIZE = 2 * ADAM_CHUNK + 5     # two whole chunks and a short tail

    def test_moments_allocated_once_and_steps_match_formula(self, monkeypatch):
        zeros_like, allocated = np.zeros_like, []
        monkeypatch.setattr(np, "zeros_like", lambda a: allocated.append(a.shape) or zeros_like(a))
        lr = 1e-2
        rng = np.random.default_rng(7)
        params = rng.standard_normal(self.SIZE)
        ref, ref_m, ref_v = params.copy(), np.zeros(self.SIZE), np.zeros(self.SIZE)
        opt = Adam(lr)
        first = None
        for t in range(1, 4):
            grads = rng.standard_normal(self.SIZE)
            opt.step(params, grads)
            if first is None:
                first = opt.m, opt.v
            assert opt.m is first[0] and opt.v is first[1]
            g = grads + WEIGHT_DECAY * ref
            ref_m *= ADAM_BETA1
            ref_m += (1 - ADAM_BETA1) * g
            ref_v *= ADAM_BETA2
            ref_v += (1 - ADAM_BETA2) * g * g
            c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
            ref -= lr * (ref_m / c1) / (np.sqrt(ref_v / c2) + ADAM_EPS)
            assert params.tobytes() == ref.tobytes()
            assert opt.m.tobytes() == ref_m.tobytes()
            assert opt.v.tobytes() == ref_v.tobytes()
        assert allocated == [(self.SIZE,), (self.SIZE,)]

    def test_step_allocates_no_scratch(self):
        """Both chunk buffers come with the optimizer, so a step allocates
        only array headers and Python scalars."""
        rng = np.random.default_rng(3)
        params, grads = rng.standard_normal(nets.PARAM_COUNT), rng.standard_normal(nets.PARAM_COUNT)
        opt = Adam(1e-3)
        opt.step(params, grads)                 # allocates the moments
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            opt.step(params, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 4096


FIXTURE_MODEL = Path(__file__).resolve().parents[1] / "benchmarks" / "fixture" / "model.bin"


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A copy of the fixture checkpoint, its bytes and its header length."""
    blob = FIXTURE_MODEL.read_bytes()
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    path.write_bytes(blob)
    return path, blob, 4 + struct.unpack_from("<I", blob)[0]


class TestFlatParameterBuffer:
    def test_params_are_views_of_flat_in_manifest_order(self, checkpoint):
        """After init, load and quantize, every named parameter is a view
        into `policy.flat`, at the offset the checkpoint manifest's layer
        order gives it."""
        path, blob, header = checkpoint
        layers = json.loads(blob[4:header])["layers"]
        starts = np.cumsum([0] + [np.prod(layer["shape"]) for layer in layers])
        for policy in (ToyPolicy.init(seed=0), load_policy(path)):
            for _ in range(2):
                assert policy.flat.shape == (nets.PARAM_COUNT,) == (starts[-1],)
                assert policy.flat.dtype == np.float64
                base = policy.flat.__array_interface__["data"][0]
                assert list(policy.params) == [layer["name"] for layer in layers]
                for (name, view), layer, start in zip(policy.params.items(), layers, starts):
                    assert np.shares_memory(view, policy.flat), name
                    assert view.shape == tuple(layer["shape"]), name
                    assert view.__array_interface__["data"][0] - base == 8 * start, name
                policy.quantize()


class TestCheckpointFile:
    def test_save_of_loaded_fixture_is_byte_identical(self, tmp_path):
        path = tmp_path / "model.bin"
        save_policy(load_policy(FIXTURE_MODEL), path)
        assert path.read_bytes() == FIXTURE_MODEL.read_bytes()

    def test_load_draws_no_random_numbers(self, checkpoint, monkeypatch):
        path, blob, header = checkpoint

        def no_draws(*args, **kwargs):
            raise AssertionError("loading a checkpoint drew random weights")

        monkeypatch.setattr(ToyPolicy, "init", no_draws)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        assert load_policy(path).param_bytes() == blob[header:]

    def test_every_header_truncation_and_padding_named(self, checkpoint):
        path, blob, header = checkpoint
        cuts = list(range(header + 1)) + [len(blob) - 4, len(blob) - 1]
        try:
            for bad in [blob[:cut] for cut in cuts] + [blob + b"\0" * 4]:
                path.write_bytes(bad)
                with pytest.raises(CorruptFile, match=re.escape(str(path))):
                    load_policy(path)
        finally:
            path.write_bytes(blob)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_named(self, checkpoint, value):
        path, blob, header = checkpoint
        path.write_bytes(blob[:header] + struct.pack("<f", value) + blob[header + 4:])
        try:
            with pytest.raises(CorruptFile, match=re.escape(f"{path}: parameter enc.w1[0, 0] "
                                                            f"is not finite: {value}")):
                load_policy(path)
        finally:
            path.write_bytes(blob)

    @staticmethod
    def assert_rejected(checkpoint, edit, field):
        """The fixture with `edit(manifest)` applied fails to load with a
        CorruptFile naming the file and `field`; the file is restored."""
        path, blob, header = checkpoint
        manifest = json.loads(blob[4:header])
        edit(manifest)
        text = json.dumps(manifest, separators=(",", ":"), sort_keys=True).encode()
        path.write_bytes(struct.pack("<I", len(text)) + text + blob[header:])
        try:
            with pytest.raises(CorruptFile, match=re.escape(
                    f"{path}: manifest field {field!r} differs from this program's "
                    f"{json.dumps(CONFIG[field], separators=(',', ':'), sort_keys=True)}")):
                load_policy(path)
        finally:
            path.write_bytes(blob)

    def test_unknown_schedule_kind_named(self, checkpoint):
        for field in ("sched_pos", "sched_rot"):
            self.assert_rejected(checkpoint, lambda m: m.update({field: "scaled_lineaX"}), field)

    def test_swapped_schedule_kinds_named(self, checkpoint):
        """Both kinds are valid schedules, but not the ones this program runs."""
        def swap(m):
            m["sched_pos"], m["sched_rot"] = m["sched_rot"], m["sched_pos"]
        self.assert_rejected(checkpoint, swap, "sched_pos")

    @pytest.mark.parametrize("steps", [True, 2.7, "100", 0, -3, 10_001, 100_000_000_000, None,
                                       1, 99, 100.0, [100]])
    def test_bad_steps_named(self, checkpoint, steps):
        self.assert_rejected(checkpoint, lambda m: m.update(steps=steps), "steps")

    @pytest.mark.parametrize("field, value", [("map_size", 100.0), ("downsample", True),
                                              ("offset_range", 2.5), ("num_points", "1024"),
                                              ("num_points", 512), ("sigma_avoid", 10),
                                              ("closed_value", None)])
    def test_mistyped_map_param_named(self, checkpoint, field, value):
        self.assert_rejected(checkpoint, lambda m: m["gravmap"].update({field: value}), "gravmap")

    def test_huge_map_named(self, checkpoint):
        """A 10^6-voxel-per-axis map (a 10^18-byte occupancy grid) is refused
        at load, before anything is sized from it."""
        self.assert_rejected(checkpoint, lambda m: m["gravmap"].update(map_size=1_000_000,
                                                                       downsample=1000), "gravmap")

    @pytest.mark.parametrize("bounds", [{"min": [0, 0, 0], "max": [1.0, 1.0, 1.0]},
                                        {"min": [0.0, 0.0, 0.0], "max": [1.0, 1.0, 2.0]},
                                        {"min": [0.0, 0.0, 0.0]}, [0.0, 1.0]])
    def test_other_workspace_named(self, checkpoint, bounds):
        self.assert_rejected(checkpoint, lambda m: m.update(workspace=bounds), "workspace")

    def test_deeply_nested_manifest_named(self, checkpoint):
        """JSON nested past the parser's recursion limit is a corrupt file,
        not a RecursionError."""
        path, blob, header = checkpoint
        text = blob[4:header].replace(b'"meta":{', b'"meta":{"deep":' + b"[" * 100_000
                                      + b"]" * 100_000 + b",", 1)
        path.write_bytes(struct.pack("<I", len(text)) + text + blob[header:])
        try:
            with pytest.raises(CorruptFile, match=re.escape(str(path))):
                load_policy(path)
        finally:
            path.write_bytes(blob)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_flipped_header_byte_loads_or_raises_corrupt_file(self, checkpoint, data):
        path, blob, header = checkpoint
        pos = data.draw(st.integers(0, header - 1))
        bad = bytearray(blob)
        bad[pos] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(bad))
        try:
            assert load_policy(path).param_bytes() == blob[header:]
        except CorruptFile:
            pass
        finally:
            path.write_bytes(blob)
