import numpy as np
import pytest

from gravkit.diffusion import (SCALED_LINEAR, SQUARED_COS, DegenerateRotation, InvalidRange,
                               NotARotation, StepOutOfRange, add_noise, denoise_step,
                               make_schedule, matrix_to_rot6d, posterior_sigma,
                               rot6d_to_matrix, sample)


def random_rotation(rng):
    # QR of a Gaussian matrix with sign fix gives a uniform-ish rotation
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1
    return q


class TestSchedules:
    def test_scaled_linear_first_beta(self):
        sched = make_schedule(SCALED_LINEAR, 100)
        assert sched.beta[0] == pytest.approx(1e-4, rel=1e-12)
        assert sched.beta[-1] == pytest.approx(0.02, rel=1e-12)

    def test_scaled_linear_matches_formula(self):
        sched = make_schedule(SCALED_LINEAR, 100, 1e-4, 0.02)
        for k in (1, 37, 100):
            expect = (np.sqrt(1e-4) + (k - 1) / 99 * (np.sqrt(0.02) - np.sqrt(1e-4))) ** 2
            assert sched.beta[k - 1] == pytest.approx(expect, rel=1e-12)

    def test_squaredcos_strictly_decreasing_and_small_tail(self):
        sched = make_schedule(SQUARED_COS, 100)
        assert np.all(np.diff(sched.alpha_bar) < 0)
        assert sched.alpha_bar[-1] < 0.01

    def test_both_alpha_bar_boundary_is_one(self):
        for kind in (SCALED_LINEAR, SQUARED_COS):
            assert make_schedule(kind, 100).abar(0) == 1.0

    def test_beta_in_valid_range(self):
        for kind in (SCALED_LINEAR, SQUARED_COS):
            sched = make_schedule(kind, 100)
            assert np.all(sched.beta > 0.0)
            assert np.all(sched.beta <= 0.999)

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRange):
            make_schedule(SCALED_LINEAR, 0)
        with pytest.raises(InvalidRange):
            make_schedule(SCALED_LINEAR, 10, 0.5, 0.1)
        with pytest.raises(InvalidRange):
            make_schedule("cubic", 10)


class TestAddNoise:
    def test_step_zero_is_identity(self):
        sched = make_schedule(SCALED_LINEAR, 50)
        x0 = np.array([0.2, -0.7, 1.5])
        np.testing.assert_array_equal(add_noise(x0, 0, np.ones(3), sched), x0)

    def test_full_noise_limit(self):
        sched = make_schedule(SQUARED_COS, 100)
        eps = np.array([1.0, -2.0, 0.5])
        out = add_noise(np.array([5.0, 5.0, 5.0]), 100, eps, sched)
        # alpha_bar at the last step is tiny, so x_K is almost pure noise
        np.testing.assert_allclose(out, eps, atol=0.05)

    def test_linear_in_inputs(self, rng):
        sched = make_schedule(SCALED_LINEAR, 100)
        x0, eps = rng.standard_normal(3), rng.standard_normal(3)
        y0, nu = rng.standard_normal(3), rng.standard_normal(3)
        k = 40
        combined = add_noise(2 * x0 + y0, k, 2 * eps + nu, sched)
        parts = 2 * add_noise(x0, k, eps, sched) + add_noise(y0, k, nu, sched)
        np.testing.assert_allclose(combined, parts, atol=1e-12)

    def test_monte_carlo_variance(self):
        sched = make_schedule(SCALED_LINEAR, 100)
        k = 60
        rng = np.random.default_rng(0)
        xs = np.array([add_noise(np.zeros(1), k, rng.standard_normal(1), sched)[0]
                       for _ in range(10_000)])
        assert xs.var() == pytest.approx(1 - sched.abar(k), rel=0.05)

    def test_step_array_noises_each_row_at_its_step(self, rng):
        # training's call: a (B,) step array against (B, d) rows
        sched = make_schedule(SQUARED_COS, 100)
        k = np.array([0, 1, 37, 100])
        x0, eps = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        rows = np.stack([add_noise(x0[i], int(k[i]), eps[i], sched) for i in range(4)])
        np.testing.assert_array_equal(add_noise(x0, k, eps, sched), rows)
        np.testing.assert_array_equal(rows[0], x0[0])

    def test_out_of_range_step(self):
        sched = make_schedule(SCALED_LINEAR, 10)
        with pytest.raises(StepOutOfRange):
            add_noise(np.zeros(3), 11, np.zeros(3), sched)
        with pytest.raises(StepOutOfRange):
            add_noise(np.zeros((2, 3)), np.array([3, -1]), np.zeros((2, 3)), sched)


class TestDenoiseStep:
    def test_one_step_inversion_exact(self, rng):
        sp = make_schedule(SCALED_LINEAR, 1)
        sr = make_schedule(SQUARED_COS, 1)
        x0, eps = rng.standard_normal(9), rng.standard_normal(9)
        x1 = np.concatenate([add_noise(x0[:3], 1, eps[:3], sp), add_noise(x0[3:], 1, eps[3:], sr)])
        out = denoise_step(x1, 1, eps, sp, sr, stochastic=False)
        np.testing.assert_allclose(out[:3], x0[:3], atol=1e-12)
        np.testing.assert_allclose(out[3:], x0[3:], atol=1e-12)

    def test_zero_eps_divides_by_sqrt_alpha(self, rng):
        sp = make_schedule(SCALED_LINEAR, 100)
        sr = make_schedule(SQUARED_COS, 100)
        x = np.concatenate([rng.standard_normal(3), np.zeros(6)])
        out = denoise_step(x, 42, np.zeros(9), sp, sr, stochastic=False)
        np.testing.assert_allclose(out[:3], x[:3] / np.sqrt(sp.alpha[41]), atol=1e-12)

    def test_final_step_adds_no_noise(self, rng):
        sp = make_schedule(SCALED_LINEAR, 100)
        sr = make_schedule(SQUARED_COS, 100)
        x, eps = rng.standard_normal(9), rng.standard_normal(9)
        a = denoise_step(x, 1, eps, sp, sr, stochastic=True, rng=np.random.default_rng(0))
        b = denoise_step(x, 1, eps, sp, sr, stochastic=False)
        np.testing.assert_array_equal(a, b)

    def test_posterior_sigma_formula(self):
        sched = make_schedule(SCALED_LINEAR, 100)
        k = 13
        expect = np.sqrt((1 - sched.abar(k - 1)) / (1 - sched.abar(k)) * sched.beta[k - 1])
        assert posterior_sigma(k, sched) == pytest.approx(expect, rel=1e-12)

    def test_step_out_of_range(self):
        sp = make_schedule(SCALED_LINEAR, 10)
        with pytest.raises(StepOutOfRange):
            denoise_step(np.zeros(9), 11, np.zeros(9), sp, sp, stochastic=False)


class _ZeroDenoiser:
    def __call__(self, x, k, cond):
        return np.zeros(9), 0.9


class TestSample:
    def test_zero_denoiser_closed_form(self):
        sp = make_schedule(SCALED_LINEAR, 100)
        sr = make_schedule(SQUARED_COS, 100)
        pose, open_state = sample(_ZeroDenoiser(), None, sp, sr, seed=7, stochastic=False)
        e_k = np.random.default_rng(7).standard_normal(9)
        scale_pos = np.prod(1.0 / np.sqrt(sp.alpha))
        scale_rot = np.prod(1.0 / np.sqrt(sr.alpha))
        np.testing.assert_allclose(pose.pos, e_k[:3] * scale_pos, atol=1e-9)
        # the raw rotation before Gram-Schmidt is checked via its direction
        raw = e_k[3:] * scale_rot
        r = rot6d_to_matrix(raw)
        np.testing.assert_allclose(np.concatenate([r[:, 0], r[:, 1]]), pose.rot6d, atol=1e-9)
        assert open_state == 1

    def test_identical_seeds_identical_outputs(self):
        sp = make_schedule(SCALED_LINEAR, 50)
        sr = make_schedule(SQUARED_COS, 50)
        a = sample(_ZeroDenoiser(), None, sp, sr, seed=3, stochastic=True)
        b = sample(_ZeroDenoiser(), None, sp, sr, seed=3, stochastic=True)
        np.testing.assert_array_equal(a[0].pos, b[0].pos)
        np.testing.assert_array_equal(a[0].rot6d, b[0].rot6d)
        assert a[1] == b[1]

    def test_rotation_output_in_so3(self):
        sp = make_schedule(SCALED_LINEAR, 30)
        sr = make_schedule(SQUARED_COS, 30)
        for seed in range(5):
            pose, _ = sample(_ZeroDenoiser(), None, sp, sr, seed=seed, stochastic=True)
            r = rot6d_to_matrix(pose.rot6d)
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


class TestRot6d:
    def test_identity(self):
        np.testing.assert_allclose(rot6d_to_matrix([1, 0, 0, 0, 1, 0]), np.eye(3), atol=1e-15)

    def test_scale_invariance(self):
        np.testing.assert_allclose(rot6d_to_matrix([2, 0, 0, 0, 3, 0]), np.eye(3), atol=1e-15)

    def test_matrix_to_rot6d_extracts_columns(self):
        r = rot6d_to_matrix([0, 1, 0, 0, 0, 1])
        r6 = matrix_to_rot6d(r)
        np.testing.assert_allclose(r6[:3], [0, 1, 0], atol=1e-15)

    def test_round_trip_1000_rotations(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            r = random_rotation(rng)
            back = rot6d_to_matrix(matrix_to_rot6d(r))
            worst = max(worst, float(np.linalg.norm(back - r)))
            np.testing.assert_allclose(back.T @ back, np.eye(3), atol=1e-9)
            assert np.linalg.det(back) == pytest.approx(1.0, abs=1e-9)
        assert worst <= 1e-9

    def test_degenerate_inputs_raise(self):
        with pytest.raises(DegenerateRotation):
            rot6d_to_matrix([1, 0, 0, 2, 0, 0])
        with pytest.raises(DegenerateRotation):
            rot6d_to_matrix([0, 0, 0, 0, 1, 0])
        with pytest.raises(DegenerateRotation):
            rot6d_to_matrix([1, 0, 0, -1, 0, 0])

    def test_not_a_rotation_raises(self):
        with pytest.raises(NotARotation):
            matrix_to_rot6d(np.eye(3) * 2.0)
        with pytest.raises(NotARotation):
            matrix_to_rot6d(np.diag([1.0, 1.0, -1.0]))
