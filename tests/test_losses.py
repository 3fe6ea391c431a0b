import numpy as np
import pytest

from gravkit.losses import (ContrastiveBatch, DimMismatch, LossWeights, NonFiniteLoss, bce,
                            bce_logit_grad, contrastive, contrastive_grad, noise_l1,
                            noise_l1_grad, total_loss)
from gravkit.policy.nets import sigmoid


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
        assert noise_l1(v, v) == 0.0

    def test_unit_shift_gives_one(self, rng):
        v = rng.standard_normal(6)
        assert noise_l1(v + 1.0, v) == pytest.approx(1.0, abs=1e-12)

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
            analytic = noise_l1_grad(pred, target, 30.0)
            numeric = central_diff(lambda p: 30.0 * noise_l1(p, target), pred.copy())
            assert_grad_close(analytic, numeric)

    def test_subgradient_zero_at_kink(self):
        v = np.array([1.0, 2.0])
        np.testing.assert_array_equal(noise_l1_grad(v, v), np.zeros(2))


class TestBce:
    def test_half_is_ln2(self):
        assert bce(0.5, 1) == pytest.approx(np.log(2.0), abs=1e-12)
        assert bce(0.5, 1) == pytest.approx(0.693147, abs=1e-6)

    def test_limit_to_zero(self):
        assert bce(1.0 - 1e-9, 1) < 1e-6
        assert bce(1e-9, 0) < 1e-6

    def test_clamp_keeps_finite(self):
        assert bce(0.0, 1) == pytest.approx(-np.log(1e-7), abs=1e-9)
        assert bce(0.0, 1) == pytest.approx(16.118, abs=1e-3)
        assert np.isfinite(bce(1.0, 0))

    def test_batch_is_mean_of_rows(self, rng):
        p = rng.uniform(0.01, 0.99, (8, 1))
        y = rng.integers(2, size=(8, 1)).astype(float)
        rows = [bce(p[i, 0], y[i, 0]) for i in range(8)]
        assert bce(p, y) == pytest.approx(np.mean(rows), rel=1e-12)

    def test_gradient_matches_fd(self, rng):
        # w.r.t. the openness logit, the quantity training backpropagates
        for _ in range(100):
            p = rng.uniform(0.01, 0.99, (8, 1))
            y = rng.integers(2, size=(8, 1)).astype(float)
            logit = np.log(p / (1.0 - p))
            numeric = central_diff(lambda z: bce(sigmoid(z), y), logit.copy(), h=1e-6)
            assert_grad_close(bce_logit_grad(sigmoid(logit), y), numeric)

    def test_gradient_zero_where_clamped(self):
        p = np.array([[0.0], [1e-9], [0.5], [1.0 - 1e-9], [1.0]])
        y = np.array([[1.0], [1.0], [1.0], [0.0], [0.0]])
        np.testing.assert_array_equal(bce_logit_grad(p, y), [[0.0], [0.0], [-0.1], [0.0], [0.0]])


class TestContrastive:
    def test_identical_features_give_ln_n(self, rng):
        for n in (2, 5, 8):
            f = np.tile(rng.standard_normal(16), (n, 1))
            batch = ContrastiveBatch(features=f, temperature=0.1)
            assert contrastive(batch) == pytest.approx(np.log(n), abs=1e-9)

    def test_hand_case_n2(self):
        f = np.eye(2)
        batch = ContrastiveBatch(features=f, temperature=1.0)
        assert contrastive(batch) == pytest.approx(np.log(1 + np.exp(-1.0)), abs=1e-12)
        assert contrastive(batch) == pytest.approx(0.3133, abs=1e-4)

    def test_dominant_positive_drives_loss_to_floor(self):
        # strong anchor-positive alignment with orthogonal negatives: the only
        # leftover mass in the denominator is the self term
        d = 8
        f = np.zeros((4, d))
        for i in range(4):
            f[i, i] = 10.0
        batch = ContrastiveBatch(features=f, temperature=1.0)
        expect = np.log(1 + 3 * np.exp(-100.0)) + 0.0  # ~0 floor
        assert contrastive(batch) == pytest.approx(expect, abs=1e-9)
        assert contrastive(batch) < 1e-6

    def test_permutation_invariance(self, rng):
        f = rng.standard_normal((6, 12))
        batch = ContrastiveBatch(features=f, temperature=0.2)
        perm = rng.permutation(6)
        permuted = ContrastiveBatch(features=f[perm], temperature=0.2)
        assert contrastive(permuted) == pytest.approx(contrastive(batch), rel=1e-12)

    def test_gradient_matches_fd(self, rng):
        # each feature is its own positive, so the difference moves both.
        # At unit scale and T = 0.3 the self term saturates some softmax rows,
        # leaving gradients of ~1e-11 that central differences cannot resolve
        f = 0.3 * rng.standard_normal((4, 6))
        grad = contrastive_grad(ContrastiveBatch(features=f, temperature=0.3))
        num = central_diff(lambda x: contrastive(ContrastiveBatch(features=x, temperature=0.3)),
                           f.copy())
        assert_grad_close(grad, num)

    def test_batch_invariants(self):
        with pytest.raises(ValueError):
            ContrastiveBatch(features=np.zeros((1, 4)))
        with pytest.raises(DimMismatch):
            ContrastiveBatch(features=np.zeros(4))


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss(0, 0, 0, 0, 0, 0) == 0.0

    def test_table_weights(self):
        w = LossWeights()
        assert (w.w_pos, w.w_rot, w.w_aux_pos, w.w_con) == (30.0, 10.0, 30.0, 10.0)
        assert total_loss(1, 1, 1, 1, 1, 1, w) == pytest.approx(1 + 30 + 10 + 30 + 1 + 10)

    def test_linearity_probes(self, rng):
        base = rng.random(6)
        w = LossWeights()
        t0 = total_loss(*base, w)
        coeffs = (1.0, 30.0, 10.0, 30.0, 1.0, 10.0)
        for i, c in enumerate(coeffs):
            bumped = base.copy()
            bumped[i] += 0.25
            assert total_loss(*bumped, w) - t0 == pytest.approx(0.25 * c, rel=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            total_loss(np.nan, 0, 0, 0, 0, 0)

    def test_rejects_overflowing_sum(self):
        with pytest.raises(NonFiniteLoss):
            total_loss(0, 1e308, 0, 0, 0, 0)
