import math

import numpy as np
import pytest

from vhd import (
    GaussianBelief,
    ScenarioConfig,
    Trajectory,
    adaptive_noise,
    ca_model,
    fit_polynomial,
    make_state,
    open_loop_predict,
    predict,
    run_outage,
    track_to_outage,
    update,
    vhd_outage_step,
)
from vhd.kinematics import position_measurement_matrix


def line_window(n=51, dt=1.0, vx=2.0, vy=0.5, x0=0.0, y0=1.0):
    times = [k * dt for k in range(n)]
    return Trajectory(times, [make_state(p_x=x0 + vx * t, v_x=vx, p_y=y0 + vy * t, v_y=vy) for t in times])


class TestParams:
    def test_defaults(self):
        params = ScenarioConfig()
        assert params.r_base == 0.5
        assert params.alpha == 0.01
        assert params.p == 2.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="ScenarioConfig invariant"):
            ScenarioConfig(alpha=-1.0)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ValueError, match="ScenarioConfig invariant"):
            ScenarioConfig(p=0.5)

    @pytest.mark.parametrize("r_base", [0.0, -0.0, -1.0, np.inf, np.nan])
    def test_r_base_outside_zero_to_inf_rejected(self, r_base):
        with pytest.raises(ValueError, match="r_base must be > 0 and finite"):
            ScenarioConfig(r_base=r_base)


class TestAdaptiveNoise:
    def test_zero_elapsed_is_exactly_base(self):
        R = adaptive_noise(ScenarioConfig(), 0.0)
        np.testing.assert_array_equal(R, np.diag([0.5, 0.5]))

    def test_ten_seconds_doubles_base(self):
        R = adaptive_noise(ScenarioConfig(), 10.0)
        np.testing.assert_array_equal(R, np.diag([1.0, 1.0]))

    def test_forty_seconds_scales_seventeenfold(self):
        R = adaptive_noise(ScenarioConfig(), 40.0)
        np.testing.assert_array_equal(R, np.diag([8.5, 8.5]))

    @pytest.mark.parametrize("elapsed", [-0.1, math.nan])
    def test_negative_elapsed_rejected(self, elapsed):
        with pytest.raises(ValueError, match="elapsed"):
            adaptive_noise(ScenarioConfig(), elapsed)

    def test_monotone_in_elapsed(self):
        params = ScenarioConfig()
        grid = np.linspace(0.0, 60.0, 241)
        diags = np.array([np.diag(adaptive_noise(params, e)) for e in grid])
        assert np.all(np.diff(diags, axis=0) >= 0.0)

    def test_loewner_order_preserved(self):
        rng = np.random.default_rng(31)
        params = ScenarioConfig(r_base=rng.normal() ** 2 + 1.0)
        prev = adaptive_noise(params, 0.0)
        for e in (1.0, 5.0, 20.0, 40.0):
            cur = adaptive_noise(params, e)
            assert np.linalg.eigvalsh(cur - prev).min() >= -1e-12
            prev = cur

    def test_scalar_multiple_of_base(self):
        rng = np.random.default_rng(32)
        base = rng.normal() ** 2 + 2.0
        params = ScenarioConfig(r_base=base, alpha=0.3, p=1.5)
        e = 7.0
        np.testing.assert_array_equal(
            adaptive_noise(params, e), base * (1.0 + 0.3 * e**1.5) * np.eye(2)
        )


class TestVirtualMeasurement:
    def test_fields_come_from_poly_and_schedule(self):
        # step 100 of the outage: z is the polynomial at window_end + elapsed
        # and R is the schedule at elapsed
        model = ca_model(0.1, 0.5)
        w = line_window()
        poly = fit_polynomial(w, degree=2)
        params = ScenarioConfig()
        belief = GaussianBelief(
            make_state(p_x=100.0, v_x=2.0, p_y=26.0, v_y=0.5), np.eye(6)
        )
        elapsed = 100 * 0.1
        got = vhd_outage_step(belief, poly, params, elapsed, model)
        z = poly.position(w.times[-1] + elapsed)
        R = adaptive_noise(params, elapsed)
        want = update(predict(belief, model), z, R, model.H)
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.cov, want.cov)


class TestOutageStep:
    def setup_method(self):
        self.model = ca_model(0.1, 0.5)
        self.w = line_window()
        self.poly = fit_polynomial(self.w, degree=2)
        rng = np.random.default_rng(33)
        A = rng.normal(size=(6, 6))
        self.belief = GaussianBelief(
            make_state(p_x=100.0, v_x=2.0, p_y=26.0, v_y=0.5), A @ A.T + np.eye(6)
        )
        self.elapsed = 0.1  # the first step of the outage

    def test_equals_predict_then_update(self):
        params = ScenarioConfig()
        got = vhd_outage_step(self.belief, self.poly, params, self.elapsed, self.model)
        predicted = predict(self.belief, self.model)
        z = self.poly.position(self.w.times[-1] + self.elapsed)
        R = adaptive_noise(params, self.elapsed)
        want = update(predicted, z, R, self.model.H)
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.cov, want.cov)

    def test_huge_alpha_reduces_to_pure_predict(self):
        params = ScenarioConfig(alpha=1e24)
        got = vhd_outage_step(self.belief, self.poly, params, self.elapsed, self.model)
        predicted = predict(self.belief, self.model)
        np.testing.assert_allclose(got.mean, predicted.mean, rtol=1e-3, atol=1e-9)
        np.testing.assert_allclose(got.cov, predicted.cov, rtol=1e-3)

    def test_zero_innovation_keeps_predicted_position(self):
        # belief moving exactly along the window's line: the polynomial
        # value coincides with the prediction, so the mean must not move
        params = ScenarioConfig()
        exact = GaussianBelief(
            make_state(p_x=100.0, v_x=2.0, p_y=26.0, v_y=0.5), np.eye(6)
        )
        got = vhd_outage_step(exact, self.poly, params, self.elapsed, self.model)
        predicted = predict(exact, self.model)
        np.testing.assert_allclose(got.mean, predicted.mean, atol=1e-6)

    def test_posterior_blends_prediction_toward_polynomial(self):
        # on the reference scenario the update must land strictly between
        # the open-loop prediction and the extrapolated position
        onset = track_to_outage(ScenarioConfig(), seed=1234)
        poly = fit_polynomial(onset.window, degree=2)
        params = ScenarioConfig()
        H = position_measurement_matrix()

        predicted = predict(onset.belief, onset.model)
        post = vhd_outage_step(onset.belief, poly, params, 0.1, onset.model)
        z = poly.position(onset.window.times[-1] + 0.1)
        innovation = z - H @ predicted.mean
        moved = H @ post.mean - H @ predicted.mean
        frac = float(innovation @ moved) / float(innovation @ innovation)
        assert 0.0 < frac < 1.0


class TestRunOutage:
    def test_steps_below_one_rejected(self):
        w = line_window()
        b = GaussianBelief(make_state(), np.eye(6))
        with pytest.raises(ValueError, match="T_steps"):
            run_outage(b, w, ScenarioConfig(), 0, ca_model(0.1, 0.5))

    def test_poly_degree_beyond_the_window_rejected(self):
        # the fit takes its degree from the config, so a 3-sample window
        # cannot carry a cubic
        w = line_window(n=3)
        b = GaussianBelief(make_state(), np.eye(6))
        with pytest.raises(ValueError, match="at least 4 samples to fit degree 3"):
            run_outage(b, w, ScenarioConfig(poly_degree=3), 5, ca_model(0.1, 0.5))

    def test_returns_one_belief_per_step(self):
        w = line_window()
        b = GaussianBelief(make_state(p_x=100.0, v_x=2.0, p_y=26.0, v_y=0.5), np.eye(6))
        out = run_outage(b, w, ScenarioConfig(), 25, ca_model(0.1, 0.5))
        assert len(out) == 25

    def test_single_step_equals_outage_step(self):
        w = line_window()
        model = ca_model(0.1, 0.5)
        b = GaussianBelief(make_state(p_x=100.0, v_x=2.0, p_y=26.0, v_y=0.5), np.eye(6))
        params = ScenarioConfig()
        seq = run_outage(b, w, params, 1, model)
        poly = fit_polynomial(w, degree=2)
        want = vhd_outage_step(b, poly, params, 0.1, model)
        np.testing.assert_array_equal(seq[0].mean, want.mean)
        np.testing.assert_array_equal(seq[0].cov, want.cov)

    @pytest.mark.parametrize("degree", [2, 0])
    def test_matches_manual_loop_with_single_fit(self, degree):
        # the config's poly_degree sets the fit
        w = line_window()
        model = ca_model(0.1, 0.5)
        b = GaussianBelief(make_state(p_x=100.0, v_x=2.0, p_y=26.0, v_y=0.5), np.eye(6))
        params = ScenarioConfig(poly_degree=degree)
        seq = run_outage(b, w, params, 40, model)

        poly = fit_polynomial(w, degree)
        cur = b
        for k in range(1, 41):
            cur = vhd_outage_step(cur, poly, params, k * 0.1, model)
            np.testing.assert_array_equal(seq[k - 1].mean, cur.mean)
            np.testing.assert_array_equal(seq[k - 1].cov, cur.cov)

    def test_straight_line_tracked_to_well_under_a_decimeter(self):
        # noise-free linear motion: polynomial and motion model are both
        # exact, so 40 s of outage must stay essentially on the line
        vx, vy, x0, y0 = 2.0, 0.5, 0.0, 1.0
        w = line_window(vx=vx, vy=vy, x0=x0, y0=y0)
        model = ca_model(0.1, 5.0)
        onset = w.times[-1]
        b = GaussianBelief(
            make_state(p_x=x0 + vx * onset, v_x=vx, p_y=y0 + vy * onset, v_y=vy),
            np.diag([1.0, 0.25, 0.04, 1.0, 0.25, 0.04]),
        )
        seq = run_outage(b, w, ScenarioConfig(), 400, model)
        for k, belief in enumerate(seq, start=1):
            t = onset + 0.1 * k
            want = np.array([x0 + vx * t, y0 + vy * t])
            assert np.linalg.norm(belief.mean[[0, 3]] - want) < 0.1

    def test_outputs_satisfy_belief_invariants(self):
        onset = track_to_outage(ScenarioConfig(), seed=1234)
        seq = run_outage(
            onset.belief, onset.window, ScenarioConfig(), 400, onset.model
        )
        for belief in seq[::40]:
            assert np.all(np.isfinite(belief.mean))
            np.testing.assert_array_equal(belief.cov, belief.cov.T)
            assert np.linalg.eigvalsh(belief.cov).min() >= -1e-9 * np.trace(belief.cov)

    def test_frozen_covariance_gain_never_grows(self):
        onset = track_to_outage(ScenarioConfig(), seed=1234)
        params = ScenarioConfig()
        H = position_measurement_matrix()
        P = onset.belief.cov
        prev = np.inf
        for k in range(1, 401):
            R = adaptive_noise(params, 0.1 * k)
            S = H @ P @ H.T + R
            K = np.linalg.solve(S, H @ P).T
            norm = np.linalg.norm(K, 2)
            assert norm <= prev + 1e-12
            prev = norm

    def test_infinite_base_noise_reproduces_open_loop(self):
        onset = track_to_outage(ScenarioConfig(), seed=1234)
        params = ScenarioConfig(r_base=1e30)
        seq = run_outage(onset.belief, onset.window, params, 400, onset.model)
        ref = open_loop_predict(onset.belief, onset.model, 400)
        for got, want in zip(seq, ref):
            np.testing.assert_allclose(got.mean, want.mean, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(got.cov, want.cov, rtol=1e-6)

    def test_zero_alpha_with_tiny_base_noise_follows_polynomial(self):
        onset = track_to_outage(ScenarioConfig(), seed=1234)
        params = ScenarioConfig(r_base=1e-6, alpha=0.0)
        seq = run_outage(onset.belief, onset.window, params, 400, onset.model)
        poly = fit_polynomial(onset.window, degree=2)
        onset_t = onset.window.times[-1]
        for k, belief in enumerate(seq, start=1):
            z = poly.position(onset_t + 0.1 * k)
            assert np.linalg.norm(belief.mean[[0, 3]] - z) < 1e-2

