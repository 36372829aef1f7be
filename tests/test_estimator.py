import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from vhd import (
    GaussianBelief,
    ca_model,
    gaussian_kl,
    kl_optimal_virtual_measurement,
    make_state,
    open_loop_predict,
    predict,
    update,
)
from vhd.kinematics import position_measurement_matrix


def rand_spd(rng, n, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T + n * np.eye(n))


H_POS = position_measurement_matrix()


class TestBeliefValidation:
    def test_asymmetric_covariance_rejected(self):
        P = np.eye(6)
        P[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            GaussianBelief(np.zeros(6), P)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianBelief(np.zeros(6), np.eye(5))

    def test_non_finite_rejected(self):
        P = np.eye(6)
        P[2, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            GaussianBelief(np.zeros(6), P)

    def test_target_distribution_validates_too(self):
        # the KL target is a GaussianBelief too, so a bad target is caught
        # at construction, before kl_optimal_virtual_measurement sees it
        with pytest.raises(ValueError, match="non-finite"):
            GaussianBelief(np.zeros(3), np.full((3, 3), np.nan))


class TestPredict:
    def test_mean_and_covariance_law(self):
        rng = np.random.default_rng(3)
        model = ca_model(0.1, 0.3)
        b = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
        out = predict(b, model)
        np.testing.assert_allclose(out.mean, model.F @ b.mean, rtol=1e-14)
        np.testing.assert_allclose(
            out.cov, model.F @ b.cov @ model.F.T + model.Q, rtol=1e-12
        )

    def test_trace_gains_at_least_the_process_noise(self):
        rng = np.random.default_rng(4)
        model = ca_model(0.2, 0.5)
        for _ in range(20):
            b = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
            out = predict(b, model)
            propagated = model.F @ b.cov @ model.F.T
            assert np.trace(out.cov) >= np.trace(propagated) - 1e-12

    def test_repeated_predict_matches_closed_form(self):
        rng = np.random.default_rng(5)
        model = ca_model(0.1, 0.7)
        b = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
        T = 25

        # independent closed form: F^T s and F^T P F^T' + sum F^i Q F^i'
        FT = np.linalg.matrix_power(model.F, T)
        acc = np.zeros((6, 6))
        for i in range(T):
            Fi = np.linalg.matrix_power(model.F, i)
            acc += Fi @ model.Q @ Fi.T
        want_mean = FT @ b.mean
        want_cov = FT @ b.cov @ FT.T + acc

        got = b
        for _ in range(T):
            got = predict(got, model)
        np.testing.assert_allclose(got.mean, want_mean, rtol=1e-10)
        np.testing.assert_allclose(got.cov, want_cov, rtol=1e-9)


class TestUpdate:
    def test_zero_innovation_fixes_mean(self):
        rng = np.random.default_rng(6)
        b = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
        out = update(b, H_POS @ b.mean, np.eye(2), H_POS)
        np.testing.assert_allclose(out.mean, b.mean, atol=1e-12)

    def test_matches_textbook_gain_form(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            b = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
            R = rand_spd(rng, 2, 0.5)
            z = rng.normal(size=2)
            out = update(b, z, R, H_POS)

            S = H_POS @ b.cov @ H_POS.T + R
            K = b.cov @ H_POS.T @ np.linalg.inv(S)
            want_mean = b.mean + K @ (z - H_POS @ b.mean)
            A = np.eye(6) - K @ H_POS
            want_cov = A @ b.cov @ A.T + K @ R @ K.T
            np.testing.assert_allclose(out.mean, want_mean, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(out.cov, want_cov, rtol=1e-9, atol=1e-12)

    def test_vanishing_confidence_leaves_belief_fixed(self):
        rng = np.random.default_rng(8)
        b = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
        out = update(b, rng.normal(size=2), 1e9 * np.eye(2), H_POS)
        np.testing.assert_allclose(out.mean, b.mean, rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(out.cov, b.cov, rtol=1e-3)

    def test_perfect_measurement_pins_position(self):
        rng = np.random.default_rng(9)
        b = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
        z = rng.normal(size=2)
        out = update(b, z, 1e-9 * np.eye(2), H_POS)
        np.testing.assert_allclose(H_POS @ out.mean, z, atol=1e-3)

    def test_posterior_shrinks_on_measured_subspace(self):
        rng = np.random.default_rng(10)
        b = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
        out = update(b, rng.normal(size=2), np.eye(2), H_POS)
        prior_pos = H_POS @ b.cov @ H_POS.T
        post_pos = H_POS @ out.cov @ H_POS.T
        assert np.linalg.eigvalsh(prior_pos - post_pos).min() >= -1e-12

    def test_singular_innovation_raises(self):
        b = GaussianBelief(np.zeros(6), np.zeros((6, 6)))
        with pytest.raises(np.linalg.LinAlgError, match="singular or not positive definite"):
            update(b, np.zeros(2), np.zeros((2, 2)), H_POS)

    @given(st.integers(0, 2**32 - 1))
    def test_update_preserves_exact_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        b = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
        out = update(b, rng.normal(scale=5, size=2), rand_spd(rng, 2, 0.3), H_POS)
        np.testing.assert_array_equal(out.cov, out.cov.T)
        assert np.linalg.eigvalsh(out.cov).min() >= -1e-9 * np.trace(out.cov)


class TestOpenLoop:
    def test_single_step_equals_predict(self):
        rng = np.random.default_rng(11)
        model = ca_model(0.1, 0.2)
        b = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
        seq = open_loop_predict(b, model, 1)
        one = predict(b, model)
        assert len(seq) == 1
        np.testing.assert_array_equal(seq[0].mean, one.mean)
        np.testing.assert_array_equal(seq[0].cov, one.cov)

    def test_sequence_matches_chained_predicts(self):
        rng = np.random.default_rng(12)
        model = ca_model(0.1, 0.2)
        b = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
        seq = open_loop_predict(b, model, 10)
        cur = b
        for step in seq:
            cur = predict(cur, model)
            np.testing.assert_array_equal(step.mean, cur.mean)

    def test_steps_below_one_rejected(self):
        b = GaussianBelief(np.zeros(6), np.eye(6))
        with pytest.raises(ValueError):
            open_loop_predict(b, ca_model(0.1, 0.1), 0)


class TestGaussianKl:
    def test_identical_distributions_give_zero(self):
        b = GaussianBelief(np.zeros(3), np.eye(3))
        assert gaussian_kl(b, b) == pytest.approx(0.0, abs=1e-14)

    def test_unit_variance_mean_shift(self):
        a = GaussianBelief(np.array([0.0]), np.array([[1.0]]))
        b = GaussianBelief(np.array([1.0]), np.array([[1.0]]))
        assert gaussian_kl(a, b) == pytest.approx(0.5, abs=1e-14)

    def test_matches_scalar_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            ma, mb = rng.normal(size=2)
            va, vb = rng.uniform(0.3, 3.0, size=2)
            a = GaussianBelief(np.array([ma]), np.array([[va]]))
            b = GaussianBelief(np.array([mb]), np.array([[vb]]))
            want = 0.5 * (va / vb + (mb - ma) ** 2 / vb - 1.0 + np.log(vb / va))
            assert gaussian_kl(a, b) == pytest.approx(want, rel=1e-12)

    def test_matches_numerical_integration(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            ma, mb = rng.normal(size=2)
            sa, sb = rng.uniform(0.5, 2.0, size=2)
            a = GaussianBelief(np.array([ma]), np.array([[sa**2]]))
            b = GaussianBelief(np.array([mb]), np.array([[sb**2]]))

            def integrand(x):
                la = norm.logpdf(x, ma, sa)
                lb = norm.logpdf(x, mb, sb)
                return np.exp(la) * (la - lb)

            numeric, _ = quad(integrand, -np.inf, np.inf)
            assert gaussian_kl(a, b) == pytest.approx(numeric, abs=1e-3)

    def test_non_negative_and_asymmetric(self):
        rng = np.random.default_rng(15)
        a = GaussianBelief(rng.normal(size=4), rand_spd(rng, 4))
        b = GaussianBelief(rng.normal(size=4), rand_spd(rng, 4))
        forward, backward = gaussian_kl(a, b), gaussian_kl(b, a)
        assert forward >= 0.0 and backward >= 0.0
        assert forward != backward

    def test_singular_covariance_raises(self):
        a = GaussianBelief(np.zeros(2), np.zeros((2, 2)))
        b = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            gaussian_kl(a, b)


class TestKlArgmin:
    def test_matched_target_needs_no_correction(self):
        rng = np.random.default_rng(16)
        prior = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
        target = GaussianBelief(prior.mean.copy(), rand_spd(rng, 6))
        sol = kl_optimal_virtual_measurement(prior, target, np.eye(2), H_POS)
        np.testing.assert_allclose(sol.z, H_POS @ prior.mean, atol=1e-12)

    def test_scalar_case_analytic_value(self):
        prior = GaussianBelief(np.array([0.0]), np.array([[1.0]]))
        target = GaussianBelief(np.array([1.0]), np.array([[1.0]]))
        sol = kl_optimal_virtual_measurement(
            prior, target, np.array([[1.0]]), np.array([[1.0]])
        )
        # gain 0.5, so z = 2 lands the posterior mean exactly on the target
        assert abs(sol.z[0] - 2.0) <= 1e-9
        post = update(prior, sol.z, np.array([[1.0]]), np.array([[1.0]]))
        assert post.mean[0] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_case_beats_dense_grid(self):
        prior = GaussianBelief(np.array([0.0]), np.array([[1.0]]))
        target = GaussianBelief(np.array([1.0]), np.array([[1.0]]))
        R, H = np.array([[1.0]]), np.array([[1.0]])
        sol = kl_optimal_virtual_measurement(prior, target, R, H)
        kl_star = gaussian_kl(update(prior, sol.z, R, H), target)
        for z in np.linspace(-10.0, 10.0, 2001):
            kl_z = gaussian_kl(update(prior, np.array([z]), R, H), target)
            assert kl_star <= kl_z + 1e-12

    def test_random_6d_instance_beats_local_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            prior = GaussianBelief(rng.normal(scale=10, size=6), rand_spd(rng, 6))
            target = GaussianBelief(
                prior.mean + rng.normal(scale=3, size=6), rand_spd(rng, 6)
            )
            R = rand_spd(rng, 2, 0.5)
            sol = kl_optimal_virtual_measurement(prior, target, R, H_POS)
            kl_star = gaussian_kl(update(prior, sol.z, R, H_POS), target)
            assert sol.rank == 2 and not sol.min_norm
            for dx in np.linspace(-5.0, 5.0, 21):
                for dy in np.linspace(-5.0, 5.0, 21):
                    z = sol.z + np.array([dx, dy])
                    kl_z = gaussian_kl(update(prior, z, R, H_POS), target)
                    assert kl_star <= kl_z + 1e-12

    def test_rank_deficient_gain_flagged(self):
        rng = np.random.default_rng(18)
        prior = GaussianBelief(rng.normal(size=6), rand_spd(rng, 6))
        target = GaussianBelief(prior.mean + 1.0, rand_spd(rng, 6))
        H = np.zeros((2, 6))
        H[0, 0] = 1.0  # second measurement row observes nothing
        sol = kl_optimal_virtual_measurement(prior, target, np.eye(2), H)
        assert sol.rank == 1
        assert sol.min_norm
