import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravkit.losses import (BCE_CLAMP, W_AUX_POS, W_CON, W_POS, W_ROT, DimMismatch, NonFiniteLoss,
                            bce, contrastive, noise_l1, total_loss)
from gravkit.policy.nets import sigmoid
from oracles import (bce_logit_grad_oracle, bce_oracle, contrastive_grad_oracle,
                     contrastive_oracle, noise_l1_grad_oracle, noise_l1_oracle)


def central_diff(f, x, h=1e-5):
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        g.reshape(-1)[i] = (hi - lo) / (2 * h)
    return g


def assert_grad_close(analytic, numeric, rel=1e-4):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) <= rel


class TestNoiseL1:
    def test_zero_at_equality(self, rng):
        v = rng.standard_normal(6)
        assert noise_l1(v, v)[0] == 0.0

    def test_unit_shift_gives_one(self, rng):
        v = rng.standard_normal(6)
        assert noise_l1(v + 1.0, v)[0] == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            noise_l1(np.zeros(3), np.zeros(4))

    def test_gradient_matches_fd(self, rng):
        # training's shapes: a batch of 8 position (3) or rotation (6) rows,
        # with the loss weight applied inside the gradient
        for i in range(100):
            shape = (8, 3 if i % 2 else 6)
            pred = rng.standard_normal(shape)
            target = rng.standard_normal(shape)
            _, analytic = noise_l1(pred, target, 30.0)
            numeric = central_diff(lambda p: 30.0 * noise_l1(p, target)[0], pred.copy())
            assert_grad_close(analytic, numeric)

    def test_subgradient_zero_at_kink(self):
        v = np.array([1.0, 2.0])
        np.testing.assert_array_equal(noise_l1(v, v)[1], np.zeros(2))


class TestBce:
    def test_half_is_ln2(self):
        assert bce(0.5, 1)[0] == pytest.approx(np.log(2.0), abs=1e-12)
        assert bce(0.5, 1)[0] == pytest.approx(0.693147, abs=1e-6)

    def test_limit_to_zero(self):
        assert bce(1.0 - 1e-9, 1)[0] < 1e-6
        assert bce(1e-9, 0)[0] < 1e-6

    def test_clamp_keeps_finite(self):
        assert bce(0.0, 1)[0] == pytest.approx(-np.log(1e-7), abs=1e-9)
        assert bce(0.0, 1)[0] == pytest.approx(16.118, abs=1e-3)
        assert np.isfinite(bce(1.0, 0)[0])

    def test_batch_is_mean_of_rows(self, rng):
        p = rng.uniform(0.01, 0.99, (8, 1))
        y = rng.integers(2, size=(8, 1)).astype(float)
        rows = [bce(p[i, 0], y[i, 0])[0] for i in range(8)]
        assert bce(p, y)[0] == pytest.approx(np.mean(rows), rel=1e-12)

    def test_gradient_matches_fd(self, rng):
        # w.r.t. the openness logit, the quantity training backpropagates
        for _ in range(100):
            p = rng.uniform(0.01, 0.99, (8, 1))
            y = rng.integers(2, size=(8, 1)).astype(float)
            logit = np.log(p / (1.0 - p))
            numeric = central_diff(lambda z: bce(sigmoid(z), y)[0], logit.copy(), h=1e-6)
            assert_grad_close(bce(sigmoid(logit), y)[1], numeric)

    def test_gradient_zero_where_clamped(self):
        p = np.array([[0.0], [1e-9], [0.5], [1.0 - 1e-9], [1.0]])
        y = np.array([[1.0], [1.0], [1.0], [0.0], [0.0]])
        np.testing.assert_array_equal(bce(p, y)[1], [[0.0], [0.0], [-0.1], [0.0], [0.0]])


class TestContrastive:
    def test_identical_features_give_ln_n(self, rng):
        for n in (2, 5, 8):
            f = np.tile(rng.standard_normal(16), (n, 1))
            assert contrastive(f, 0.1)[0] == pytest.approx(np.log(n), abs=1e-9)

    def test_hand_case_n2(self):
        f = np.eye(2)
        loss, _ = contrastive(f, 1.0)
        assert loss == pytest.approx(np.log(1 + np.exp(-1.0)), abs=1e-12)
        assert loss == pytest.approx(0.3133, abs=1e-4)

    def test_dominant_positive_drives_loss_to_floor(self):
        # strong anchor-positive alignment with orthogonal negatives: the only
        # leftover mass in the denominator is the self term
        d = 8
        f = np.zeros((4, d))
        for i in range(4):
            f[i, i] = 10.0
        loss, _ = contrastive(f, 1.0)
        expect = np.log(1 + 3 * np.exp(-100.0)) + 0.0  # ~0 floor
        assert loss == pytest.approx(expect, abs=1e-9)
        assert loss < 1e-6

    def test_permutation_invariance(self, rng):
        f = rng.standard_normal((6, 12))
        perm = rng.permutation(6)
        assert contrastive(f[perm], 0.2)[0] == pytest.approx(contrastive(f, 0.2)[0], rel=1e-12)

    def test_gradient_matches_fd(self, rng):
        # each feature is its own positive, so the difference moves both.
        # At unit scale and T = 0.3 the self term saturates some softmax rows,
        # leaving gradients of ~1e-11 that central differences cannot resolve
        f = 0.3 * rng.standard_normal((4, 6))
        _, grad = contrastive(f, 0.3)
        num = central_diff(lambda x: contrastive(x, 0.3)[0], f.copy())
        assert_grad_close(grad, num)

    def test_batch_invariants(self):
        with pytest.raises(ValueError):
            contrastive(np.zeros((1, 4)), 0.1)
        with pytest.raises(DimMismatch):
            contrastive(np.zeros(4), 0.1)
        for t in (0.0, -0.1):
            with pytest.raises(ValueError):
                contrastive(np.zeros((2, 4)), t)


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss(0, 0, 0, 0, 0, 0) == 0.0

    def test_table_weights(self):
        assert (W_POS, W_ROT, W_AUX_POS, W_CON) == (30.0, 10.0, 30.0, 10.0)
        assert total_loss(1, 1, 1, 1, 1, 1) == pytest.approx(1 + 30 + 10 + 30 + 1 + 10)

    def test_linearity_probes(self, rng):
        base = rng.random(6)
        t0 = total_loss(*base)
        coeffs = (1.0, 30.0, 10.0, 30.0, 1.0, 10.0)
        for i, c in enumerate(coeffs):
            bumped = base.copy()
            bumped[i] += 0.25
            assert total_loss(*bumped) - t0 == pytest.approx(0.25 * c, rel=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            total_loss(np.nan, 0, 0, 0, 0, 0)

    def test_rejects_overflowing_sum(self):
        with pytest.raises(NonFiniteLoss):
            total_loss(0, 1e308, 0, 0, 0, 0)


def _same_bits(got, want):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


class TestFusedMatchesSeparateOracles:
    """Each term's (value, gradient) call gives the bits of a separate value
    function and gradient function (`oracles`), so fusing them changed no
    seeded training run."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 16),
           cols=st.sampled_from([1, 3, 6]), tie_frac=st.sampled_from([0.0, 0.5, 1.0]),
           weight=st.sampled_from([1.0, W_ROT, W_POS]))
    def test_noise_l1(self, seed, rows, cols, tie_frac, weight):
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal((rows, cols))
        target = rng.standard_normal((rows, cols))
        tie = rng.random((rows, cols)) < tie_frac
        target[tie] = pred[tie]                  # zero differences: subgradient 0
        value, grad = noise_l1(pred, target, weight)
        assert _same_bits(value, noise_l1_oracle(pred, target))
        assert _same_bits(grad, noise_l1_grad_oracle(pred, target, weight))
        assert np.all(grad[tie] == 0.0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 16),
           clamped_frac=st.sampled_from([0.0, 0.5, 1.0]))
    def test_bce(self, seed, rows, clamped_frac):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.0, 1.0, (rows, 1))
        y = rng.integers(2, size=(rows, 1)).astype(float)
        clamped = rng.random((rows, 1)) < clamped_frac
        edges = [0.0, 1e-9, BCE_CLAMP, 1.0 - BCE_CLAMP, 1.0 - 1e-9, 1.0]
        p[clamped] = rng.choice(edges, size=int(clamped.sum()))
        value, grad = bce(p, y)
        assert _same_bits(value, bce_oracle(p, y))
        assert _same_bits(grad, bce_logit_grad_oracle(p, y))
        assert np.all(grad[clamped] == 0.0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 16),
           d=st.sampled_from([1, 5, 64]), temperature=st.sampled_from([0.1, 0.3, 1.0]),
           scale=st.sampled_from([0.3, 1.0, 3.0]), identical=st.booleans())
    def test_contrastive(self, seed, n, d, temperature, scale, identical):
        rng = np.random.default_rng(seed)
        f = scale * (np.tile(rng.standard_normal(d), (n, 1)) if identical
                     else rng.standard_normal((n, d)))
        value, grad = contrastive(f, temperature)
        assert grad.shape == (n, d)
        assert _same_bits(value, contrastive_oracle(f, temperature))
        assert _same_bits(grad, contrastive_grad_oracle(f, temperature))
