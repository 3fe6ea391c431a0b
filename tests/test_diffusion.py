import numpy as np
import pytest

from gravkit.demos import rot6d_is_degenerate
from gravkit.diffusion import (SCALED_LINEAR, SQUARED_COS, DegenerateRotation, InvalidRange,
                               NotARotation, StepOutOfRange, add_noise, make_schedule,
                               matrix_to_rot6d, pose_schedule, reverse_coefficients,
                               rot6d_to_matrix, sample)
from gravkit.policy.model import REVERSE_COEFS

from oracles import abar, posterior_sigma, reverse_chain_oracle, reverse_table_oracle


def random_rotation(rng):
    # QR of a Gaussian matrix with sign fix gives a uniform-ish rotation
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1
    return q


def chain_table(sched_pos, sched_rot):
    """The reverse table `sample` reads, for positions on `sched_pos` and
    rotations on `sched_rot`."""
    return reverse_coefficients(pose_schedule(sched_pos, sched_rot))


class TestSchedules:
    def test_scaled_linear_first_beta(self):
        sched = make_schedule(SCALED_LINEAR, 100)
        assert sched.beta[0] == pytest.approx(1e-4, rel=1e-12)
        assert sched.beta[-1] == pytest.approx(0.02, rel=1e-12)

    def test_scaled_linear_matches_formula(self):
        sched = make_schedule(SCALED_LINEAR, 100)
        for k in (1, 37, 100):
            expect = (np.sqrt(1e-4) + (k - 1) / 99 * (np.sqrt(0.02) - np.sqrt(1e-4))) ** 2
            assert sched.beta[k - 1] == pytest.approx(expect, rel=1e-12)

    def test_squaredcos_strictly_decreasing_and_small_tail(self):
        sched = make_schedule(SQUARED_COS, 100)
        assert np.all(np.diff(sched.alpha_bar) < 0)
        assert sched.alpha_bar[-1] < 0.01

    def test_both_alpha_bar_boundary_is_one(self):
        """alpha_bar of step 0 is 1: the posterior std of step 1 is 0."""
        for kind in (SCALED_LINEAR, SQUARED_COS):
            sched = make_schedule(kind, 100)
            assert reverse_coefficients(sched)[0, 2] == 0.0

    def test_beta_in_valid_range(self):
        for kind in (SCALED_LINEAR, SQUARED_COS):
            sched = make_schedule(kind, 100)
            assert np.all(sched.beta > 0.0)
            assert np.all(sched.beta <= 0.999)

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRange):
            make_schedule(SCALED_LINEAR, 0)
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
        assert xs.var() == pytest.approx(1 - abar(sched, k), rel=0.05)

    def test_step_array_noises_each_row_at_its_step(self, rng):
        # training's call: a (B,) step array against (B, d) rows
        sched = make_schedule(SQUARED_COS, 100)
        k = np.array([0, 1, 37, 100])
        x0, eps = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        rows = np.stack([add_noise(x0[i], int(k[i]), eps[i], sched) for i in range(4)])
        np.testing.assert_array_equal(add_noise(x0, k, eps, sched), rows)
        np.testing.assert_array_equal(rows[0], x0[0])

        # the pose's per-channel schedule against the two scalar-schedule calls
        sp, sr = make_schedule(SCALED_LINEAR, 100), make_schedule(SQUARED_COS, 100)
        pose = pose_schedule(sp, sr)
        x0, eps = rng.standard_normal((4, 9)), rng.standard_normal((4, 9))
        for steps in (0, 37, k):
            want = np.concatenate([add_noise(x0[:, :3], steps, eps[:, :3], sp),
                                   add_noise(x0[:, 3:], steps, eps[:, 3:], sr)], axis=1)
            assert add_noise(x0, steps, eps, pose).tobytes() == want.tobytes(), steps

    def test_out_of_range_step(self):
        sched = make_schedule(SCALED_LINEAR, 10)
        with pytest.raises(StepOutOfRange):
            add_noise(np.zeros(3), 11, np.zeros(3), sched)
        with pytest.raises(StepOutOfRange):
            add_noise(np.zeros((2, 3)), np.array([3, -1]), np.zeros((2, 3)), sched)


def one_step_chain(sched_pos, sched_rot, seed, eps, stochastic=False):
    """A K = 1 chain whose denoiser returns the noise `eps`: (the sampled
    pose vector, x0), x0 being the pose that add_noise takes to the chain's
    start, the seed's first draw, with that noise. Its rotation is compared
    after the Gram-Schmidt that `sample` applies."""
    start = np.random.default_rng(seed).standard_normal(9)
    groups = ((slice(0, 3), sched_pos), (slice(3, 9), sched_rot))
    x0 = np.empty(9)
    for sl, sched in groups:
        ab = sched.alpha_bar[0]
        x0[sl] = (start[sl] - np.sqrt(1.0 - ab) * eps[sl]) / np.sqrt(ab)
        np.testing.assert_allclose(add_noise(x0[sl], 1, eps[sl], sched), start[sl], rtol=0, atol=1e-14)
    pose, _ = sample(lambda x, k: (eps, 0.9), chain_table(sched_pos, sched_rot), seed=seed,
                     stochastic=stochastic)
    want = np.concatenate([x0[:3], matrix_to_rot6d(rot6d_to_matrix(x0[3:]))])
    return np.concatenate([pose.pos, pose.rot6d]), want


class TestDenoiseStep:
    """The reverse step, through `sample`, the one chain that runs it."""

    def test_one_step_inversion_exact(self, rng):
        sp = make_schedule(SCALED_LINEAR, 1)
        sr = make_schedule(SQUARED_COS, 1)
        out, x0 = one_step_chain(sp, sr, 3, rng.standard_normal(9))
        np.testing.assert_allclose(out, x0, rtol=0, atol=1e-12)

    def test_final_step_adds_no_noise(self, rng):
        sp = make_schedule(SCALED_LINEAR, 1)
        sr = make_schedule(SQUARED_COS, 1)
        eps = rng.standard_normal(9)
        a, _ = one_step_chain(sp, sr, 0, eps, stochastic=True)
        b, _ = one_step_chain(sp, sr, 0, eps, stochastic=False)
        assert a.tobytes() == b.tobytes()

    def test_posterior_sigma_formula(self):
        sched = make_schedule(SCALED_LINEAR, 100)
        k = 13
        expect = np.sqrt((1 - abar(sched, k - 1)) / (1 - abar(sched, k)) * sched.beta[k - 1])
        assert reverse_coefficients(sched)[k - 1, 2] == pytest.approx(expect, rel=1e-12)

    def test_schedules_of_different_length_rejected(self):
        sp, sr = make_schedule(SCALED_LINEAR, 10), make_schedule(SQUARED_COS, 11)
        with pytest.raises(InvalidRange):
            pose_schedule(sp, sr)

    @pytest.mark.parametrize("kinds", [(SCALED_LINEAR, SQUARED_COS), (SQUARED_COS, SCALED_LINEAR)])
    @pytest.mark.parametrize("steps", [1, 2, 100])
    def test_coefficient_rows_equal_scalar_formulas(self, kinds, steps):
        """Row k-1 of the table holds, byte for byte, what the per-step
        scalar formulas give for step k, spread over 3 position and 6
        rotation channels; the whole table is the one built per scalar
        schedule and then spread."""
        sp, sr = (make_schedule(kind, steps) for kind in kinds)
        table = chain_table(sp, sr)
        assert table.shape == (steps, 3, 9)
        assert table.tobytes() == reverse_table_oracle(sp, sr).tobytes()
        for k in range(1, steps + 1):
            per_sched = [[s.beta[k - 1] / np.sqrt(1.0 - abar(s, k)), np.sqrt(s.alpha[k - 1]),
                          posterior_sigma(k, s)] for s in (sp, sr)]
            want = np.array(per_sched).T[:, [0, 0, 0, 1, 1, 1, 1, 1, 1]]
            assert table[k - 1].tobytes() == want.tobytes()

    def test_policy_table_equals_two_schedule_spread(self):
        """The table every episode's chains read is the model's two
        schedules' terms spread over the pose channels, byte for byte."""
        want = reverse_table_oracle(make_schedule(SCALED_LINEAR, 100), make_schedule(SQUARED_COS, 100))
        assert REVERSE_COEFS.tobytes() == want.tobytes()


class _ZeroDenoiser:
    def __call__(self, x, k):
        return np.zeros(9), 0.9


class TestSample:
    def test_zero_denoiser_closed_form(self):
        sp = make_schedule(SCALED_LINEAR, 100)
        sr = make_schedule(SQUARED_COS, 100)
        pose, open_state = sample(_ZeroDenoiser(), chain_table(sp, sr), seed=7, stochastic=False)
        e_k = np.random.default_rng(7).standard_normal(9)
        scale_pos = np.prod(1.0 / np.sqrt(sp.alpha))
        scale_rot = np.prod(1.0 / np.sqrt(sr.alpha))
        np.testing.assert_allclose(pose.pos, e_k[:3] * scale_pos, atol=1e-9)
        # the raw rotation before Gram-Schmidt is checked via its direction
        raw = e_k[3:] * scale_rot
        r = rot6d_to_matrix(raw)
        np.testing.assert_allclose(np.concatenate([r[:, 0], r[:, 1]]), pose.rot6d, atol=1e-9)
        assert open_state == 1

    @pytest.mark.parametrize("stochastic", [True, False])
    def test_chain_matches_scalar_oracle(self, stochastic):
        """The chain ends, in the same bits, where the scalar reverse chain
        of the oracles does."""
        sp = make_schedule(SCALED_LINEAR, 20)
        sr = make_schedule(SQUARED_COS, 20)

        def denoiser(x, k):
            return np.sin(x + k), 0.7

        pose, _ = sample(denoiser, chain_table(sp, sr), seed=4, stochastic=stochastic)
        x = reverse_chain_oracle(denoiser, sp, sr, seed=4, stochastic=stochastic)
        assert pose.pos.tobytes() == x[:3].tobytes()
        assert pose.rot6d.tobytes() == matrix_to_rot6d(rot6d_to_matrix(x[3:])).tobytes()

    def test_identical_seeds_identical_outputs(self):
        sp = make_schedule(SCALED_LINEAR, 50)
        sr = make_schedule(SQUARED_COS, 50)
        a = sample(_ZeroDenoiser(), chain_table(sp, sr), seed=3, stochastic=True)
        b = sample(_ZeroDenoiser(), chain_table(sp, sr), seed=3, stochastic=True)
        np.testing.assert_array_equal(a[0].pos, b[0].pos)
        np.testing.assert_array_equal(a[0].rot6d, b[0].rot6d)
        assert a[1] == b[1]

    def test_rotation_output_in_so3(self):
        sp = make_schedule(SCALED_LINEAR, 30)
        sr = make_schedule(SQUARED_COS, 30)
        for seed in range(5):
            pose, _ = sample(_ZeroDenoiser(), chain_table(sp, sr), seed=seed, stochastic=True)
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

    @pytest.mark.parametrize("angle, degenerate", [(1e-7, True), (1e-5, False)])
    def test_one_validity_rule_with_demo_checks(self, angle, degenerate):
        """Columns 1e-7 rad apart fail demo validation and decoding alike;
        1e-5 rad apart pass both."""
        r6 = np.array([1.0, 0.0, 0.0, np.cos(angle), np.sin(angle), 0.0])
        assert rot6d_is_degenerate(r6) == degenerate
        if degenerate:
            with pytest.raises(DegenerateRotation):
                rot6d_to_matrix(r6)
        else:
            r = rot6d_to_matrix(r6)
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)

    def test_not_a_rotation_raises(self):
        with pytest.raises(NotARotation):
            matrix_to_rot6d(np.eye(3) * 2.0)
        with pytest.raises(NotARotation):
            matrix_to_rot6d(np.diag([1.0, 1.0, -1.0]))
