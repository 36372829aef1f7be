import numpy as np
import pytest

from vhd import (
    AdaptiveConfidenceParams,
    GaussianBelief,
    HistoryWindow,
    ScenarioConfig,
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
    w = HistoryWindow(n)
    for k in range(n):
        t = k * dt
        w.push(t, make_state(p_x=x0 + vx * t, v_x=vx, p_y=y0 + vy * t, v_y=vy))
    return w


class TestParams:
    def test_defaults(self):
        params = AdaptiveConfidenceParams()
        np.testing.assert_array_equal(params.r_base, np.diag([0.5, 0.5]))
        assert params.alpha == 0.01
        assert params.p == 2.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="AdaptiveConfidenceParams invariant"):
            AdaptiveConfidenceParams(alpha=-1.0)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ValueError, match="AdaptiveConfidenceParams invariant"):
            AdaptiveConfidenceParams(p=0.5)

    def test_indefinite_r_base_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            AdaptiveConfidenceParams(r_base=np.diag([1.0, -1.0]))

    def test_asymmetric_r_base_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            AdaptiveConfidenceParams(r_base=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            AdaptiveConfidenceParams(r_base=np.eye(3))


class TestAdaptiveNoise:
    def test_zero_elapsed_is_exactly_base(self):
        R = adaptive_noise(AdaptiveConfidenceParams(), 0.0)
        np.testing.assert_array_equal(R, np.diag([0.5, 0.5]))

    def test_ten_seconds_doubles_base(self):
        R = adaptive_noise(AdaptiveConfidenceParams(), 10.0)
        np.testing.assert_array_equal(R, np.diag([1.0, 1.0]))

    def test_forty_seconds_scales_seventeenfold(self):
        R = adaptive_noise(AdaptiveConfidenceParams(), 40.0)
        np.testing.assert_array_equal(R, np.diag([8.5, 8.5]))

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError, match="elapsed"):
            adaptive_noise(AdaptiveConfidenceParams(), -0.1)

    def test_monotone_in_elapsed(self):
        params = AdaptiveConfidenceParams()
        grid = np.linspace(0.0, 60.0, 241)
        diags = np.array([np.diag(adaptive_noise(params, e)) for e in grid])
        assert np.all(np.diff(diags, axis=0) >= 0.0)

    def test_loewner_order_preserved(self):
        rng = np.random.default_rng(31)
        A = rng.normal(size=(2, 2))
        params = AdaptiveConfidenceParams(r_base=A @ A.T + np.eye(2))
        prev = adaptive_noise(params, 0.0)
        for e in (1.0, 5.0, 20.0, 40.0):
            cur = adaptive_noise(params, e)
            assert np.linalg.eigvalsh(cur - prev).min() >= -1e-12
            prev = cur

    def test_scalar_multiple_of_base(self):
        rng = np.random.default_rng(32)
        A = rng.normal(size=(2, 2))
        base = A @ A.T + 2.0 * np.eye(2)
        params = AdaptiveConfidenceParams(r_base=base, alpha=0.3, p=1.5)
        e = 7.0
        np.testing.assert_array_equal(
            adaptive_noise(params, e), base * (1.0 + 0.3 * e**1.5)
        )


class TestVirtualMeasurement:
    def test_fields_come_from_poly_and_schedule(self):
        # step 100 of the outage: z is the polynomial at window_end + elapsed
        # and R is the schedule at elapsed
        model = ca_model(0.1, 0.5)
        w = line_window()
        poly = fit_polynomial(w, degree=2)
        params = AdaptiveConfidenceParams()
        belief = GaussianBelief(
            make_state(p_x=100.0, v_x=2.0, p_y=26.0, v_y=0.5), np.eye(6)
        )
        elapsed = 100 * 0.1
        got = vhd_outage_step(belief, poly, params, elapsed, model)
        z = poly.position(w.end_time + elapsed)
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
        params = AdaptiveConfidenceParams()
        got = vhd_outage_step(self.belief, self.poly, params, self.elapsed, self.model)
        predicted = predict(self.belief, self.model)
        z = self.poly.position(self.w.end_time + self.elapsed)
        R = adaptive_noise(params, self.elapsed)
        want = update(predicted, z, R, self.model.H)
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.cov, want.cov)

    def test_huge_alpha_reduces_to_pure_predict(self):
        params = AdaptiveConfidenceParams(alpha=1e24)
        got = vhd_outage_step(self.belief, self.poly, params, self.elapsed, self.model)
        predicted = predict(self.belief, self.model)
        np.testing.assert_allclose(got.mean, predicted.mean, rtol=1e-3, atol=1e-9)
        np.testing.assert_allclose(got.cov, predicted.cov, rtol=1e-3)

    def test_zero_innovation_keeps_predicted_position(self):
        # belief moving exactly along the window's line: the polynomial
        # value coincides with the prediction, so the mean must not move
        params = AdaptiveConfidenceParams()
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
        params = AdaptiveConfidenceParams()
        H = position_measurement_matrix()

        predicted = predict(onset.belief, onset.model)
        post = vhd_outage_step(onset.belief, poly, params, 0.1, onset.model)
        z = poly.position(onset.window.end_time + 0.1)
        innovation = z - H @ predicted.mean
        moved = H @ post.mean - H @ predicted.mean
        frac = float(innovation @ moved) / float(innovation @ innovation)
        assert 0.0 < frac < 1.0


class TestRunOutage:
    def test_steps_below_one_rejected(self):
        w = line_window()
        b = GaussianBelief(make_state(), np.eye(6))
        with pytest.raises(ValueError, match="T_steps"):
            run_outage(b, w, AdaptiveConfidenceParams(), 0, ca_model(0.1, 0.5))

    def test_returns_one_belief_per_step(self):
        w = line_window()
        b = GaussianBelief(make_state(p_x=100.0, v_x=2.0, p_y=26.0, v_y=0.5), np.eye(6))
        out = run_outage(b, w, AdaptiveConfidenceParams(), 25, ca_model(0.1, 0.5))
        assert len(out) == 25

    def test_single_step_equals_outage_step(self):
        w = line_window()
        model = ca_model(0.1, 0.5)
        b = GaussianBelief(make_state(p_x=100.0, v_x=2.0, p_y=26.0, v_y=0.5), np.eye(6))
        params = AdaptiveConfidenceParams()
        seq = run_outage(b, w, params, 1, model)
        poly = fit_polynomial(w, degree=2)
        want = vhd_outage_step(b, poly, params, 0.1, model)
        np.testing.assert_array_equal(seq[0].mean, want.mean)
        np.testing.assert_array_equal(seq[0].cov, want.cov)

    def test_matches_manual_loop_with_single_fit(self):
        w = line_window()
        model = ca_model(0.1, 0.5)
        b = GaussianBelief(make_state(p_x=100.0, v_x=2.0, p_y=26.0, v_y=0.5), np.eye(6))
        params = AdaptiveConfidenceParams()
        seq = run_outage(b, w, params, 40, model)

        poly = fit_polynomial(w, degree=2)
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
        onset = w.end_time
        b = GaussianBelief(
            make_state(p_x=x0 + vx * onset, v_x=vx, p_y=y0 + vy * onset, v_y=vy),
            np.diag([1.0, 0.25, 0.04, 1.0, 0.25, 0.04]),
        )
        seq = run_outage(b, w, AdaptiveConfidenceParams(), 400, model)
        for k, belief in enumerate(seq, start=1):
            t = onset + 0.1 * k
            want = np.array([x0 + vx * t, y0 + vy * t])
            assert np.linalg.norm(belief.mean[[0, 3]] - want) < 0.1

    def test_outputs_satisfy_belief_invariants(self):
        onset = track_to_outage(ScenarioConfig(), seed=1234)
        seq = run_outage(
            onset.belief, onset.window, AdaptiveConfidenceParams(), 400, onset.model
        )
        for belief in seq[::40]:
            assert np.all(np.isfinite(belief.mean))
            np.testing.assert_array_equal(belief.cov, belief.cov.T)
            assert np.linalg.eigvalsh(belief.cov).min() >= -1e-9 * np.trace(belief.cov)

    def test_frozen_covariance_gain_never_grows(self):
        onset = track_to_outage(ScenarioConfig(), seed=1234)
        params = AdaptiveConfidenceParams()
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
        params = AdaptiveConfidenceParams(r_base=1e30 * np.eye(2))
        seq = run_outage(onset.belief, onset.window, params, 400, onset.model)
        ref = open_loop_predict(onset.belief, onset.model, 400)
        for got, want in zip(seq, ref):
            np.testing.assert_allclose(got.mean, want.mean, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(got.cov, want.cov, rtol=1e-6)

    def test_zero_alpha_with_tiny_base_noise_follows_polynomial(self):
        onset = track_to_outage(ScenarioConfig(), seed=1234)
        params = AdaptiveConfidenceParams(r_base=1e-6 * np.eye(2), alpha=0.0)
        seq = run_outage(onset.belief, onset.window, params, 400, onset.model)
        poly = fit_polynomial(onset.window, degree=2)
        onset_t = onset.window.end_time
        for k, belief in enumerate(seq, start=1):
            z = poly.position(onset_t + 0.1 * k)
            assert np.linalg.norm(belief.mean[[0, 3]] - z) < 1e-2


class TestDiagnostics:
    def test_polynomial_value_is_near_optimal_but_distinct(self):
        onset = track_to_outage(ScenarioConfig(), seed=1234)
        diags = []
        run_outage(
            onset.belief,
            onset.window,
            AdaptiveConfidenceParams(),
            100,
            onset.model,
            diagnostics=diags,
        )
        assert len(diags) == 100
        elapsed = np.array([d.elapsed for d in diags])
        np.testing.assert_allclose(elapsed, 0.1 * np.arange(1, 101), rtol=1e-12)
        for d in diags:
            # the analytic argmin can never lose to the polynomial value
            assert d.kl_opt <= d.kl_poly + 1e-12
            assert d.delta == pytest.approx(np.linalg.norm(d.z_poly - d.z_kl))
            assert d.kl_opt >= 0.0

    def test_collecting_diagnostics_leaves_the_beliefs_unchanged(self):
        onset = track_to_outage(ScenarioConfig(), seed=7)
        params = AdaptiveConfidenceParams()
        diags = []
        traced = run_outage(onset.belief, onset.window, params, 50, onset.model, diagnostics=diags)
        plain = run_outage(onset.belief, onset.window, params, 50, onset.model)
        poly = fit_polynomial(onset.window, degree=2)
        for k, (a, b, d) in enumerate(zip(traced, plain, diags), start=1):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.cov, b.cov)
            np.testing.assert_array_equal(d.z_poly, poly.position(poly.window_end + k * 0.1))
