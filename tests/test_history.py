import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from vhd import (
    HistoryWindow,
    fit_polynomial,
    lagrange_extrapolate,
    make_state,
    residual_covariance,
)
from vhd.kinematics import AX, AY, PX, PY, VX, VY

QUAD_X = np.array([3.0, 2.0, 0.5])
QUAD_Y = np.array([-1.0, 0.5, -0.25])


def quad_window(times, noise=None, rng=None, capacity=None):
    """Window sampled from the reference quadratics, optionally noisy."""
    px = npoly.polyval(times, QUAD_X)
    py = npoly.polyval(times, QUAD_Y)
    if noise is not None:
        px = px + rng.normal(scale=noise, size=times.shape)
        py = py + rng.normal(scale=noise, size=times.shape)
    w = HistoryWindow(capacity if capacity is not None else len(times))
    for t, x, y in zip(times, px, py):
        w.push(t, make_state(p_x=x, p_y=y))
    return w


class TestWindow:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            HistoryWindow(0)

    def test_push_appends_and_chains(self):
        w = HistoryWindow(4)
        assert len(w) == 0
        w.push(0.0, make_state()).push(1.0, make_state(p_x=1.0))
        assert len(w) == 2
        np.testing.assert_array_equal(w.times, [0.0, 1.0])

    def test_eviction_drops_oldest(self):
        w = HistoryWindow(3)
        for k in range(4):
            w.push(float(k), make_state(p_x=float(k)))
        assert len(w) == 3
        np.testing.assert_array_equal(w.times, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(w.positions[:, 0], [1.0, 2.0, 3.0])

    def test_equal_timestamp_rejected(self):
        w = HistoryWindow(3).push(1.0, make_state())
        with pytest.raises(ValueError, match="strictly increasing"):
            w.push(1.0, make_state())

    def test_decreasing_timestamp_rejected(self):
        w = HistoryWindow(3).push(1.0, make_state())
        with pytest.raises(ValueError, match="strictly increasing"):
            w.push(0.5, make_state())

    def test_wrong_state_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            HistoryWindow(3).push(0.0, np.zeros(4))

    def test_pushed_state_is_copied(self):
        s = make_state(p_x=1.0)
        w = HistoryWindow(3).push(0.0, s)
        s[PX] = 99.0
        assert w.positions[0, 0] == 1.0

    def test_positions_are_the_position_columns_of_states(self):
        w = HistoryWindow(3)
        assert w.states.shape == (0, 6)
        assert w.positions.shape == (0, 2)
        w.push(0.0, make_state(p_x=1.0, v_x=2.0, p_y=4.0)).push(1.0, make_state(p_x=3.0, p_y=-1.0))
        np.testing.assert_array_equal(w.positions, w.states[:, [PX, PY]])
        np.testing.assert_array_equal(w.positions, [[1.0, 4.0], [3.0, -1.0]])

    def test_end_time(self):
        w = HistoryWindow(3)
        with pytest.raises(ValueError, match="empty"):
            w.end_time
        w.push(2.5, make_state())
        assert w.end_time == 2.5

    def test_recent_slices_from_the_end(self):
        w = HistoryWindow(5)
        for k in range(5):
            w.push(float(k), make_state(p_x=10.0 * k))
        times, positions = w.recent(2)
        np.testing.assert_array_equal(times, [3.0, 4.0])
        np.testing.assert_array_equal(positions[:, 0], [30.0, 40.0])

    @pytest.mark.parametrize("count", [0, -1, 6])
    def test_recent_range_checked(self, count):
        w = HistoryWindow(5)
        for k in range(5):
            w.push(float(k), make_state())
        with pytest.raises(ValueError):
            w.recent(count)


class TestFit:
    def test_exact_quadratic_recovery(self):
        times = 0.5 * np.arange(30)
        w = quad_window(times)
        p = fit_polynomial(w, degree=2)
        fitted = p.position(times)
        np.testing.assert_allclose(fitted[:, 0], npoly.polyval(times, QUAD_X), atol=1e-9)
        np.testing.assert_allclose(fitted[:, 1], npoly.polyval(times, QUAD_Y), atol=1e-9)

    def test_exact_quadratic_derivatives(self):
        times = 0.5 * np.arange(30)
        p = fit_polynomial(quad_window(times), degree=2)
        t = 7.25
        # d/dt of 3 + 2t + 0.5 t^2 and of -1 + 0.5 t - 0.25 t^2
        np.testing.assert_allclose(p.velocity(t), [2.0 + t, 0.5 - 0.5 * t], atol=1e-9)
        np.testing.assert_allclose(p.acceleration(t), [1.0, -0.5], atol=1e-9)

    def test_constant_data_has_zero_derivatives(self):
        w = HistoryWindow(20)
        for k in range(20):
            w.push(float(k), make_state(p_x=4.0, p_y=-2.0))
        p = fit_polynomial(w, degree=2)
        np.testing.assert_allclose(p.position(19.0), [4.0, -2.0], atol=1e-9)
        np.testing.assert_allclose(p.velocity(19.0), [0.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(p.acceleration(19.0), [0.0, 0.0], atol=1e-9)

    def test_noisy_quadratic_coefficients_recovered(self):
        # sigma = 0.1 m on 500 samples; generating coefficients must come
        # back within 0.05 per term on every seed
        times = 0.1 * np.arange(500)
        worst = 0.0
        for seed in range(1000, 1100):
            rng = np.random.default_rng(seed)
            w = quad_window(times, noise=0.1, rng=rng)
            p = fit_polynomial(w, degree=2)
            tau_poly = np.array([-p.t_ref / p.t_scale, 1.0 / p.t_scale])
            for gen, coef in ((QUAD_X, p.coef_x), (QUAD_Y, p.coef_y)):
                back = np.zeros(3)
                for k, c in enumerate(coef):
                    term = np.array([1.0])
                    for _ in range(k):
                        term = npoly.polymul(term, tau_poly)
                    back[: len(term)] += c * term
                worst = max(worst, np.abs(back - gen).max())
        assert worst < 0.05

    def test_insufficient_samples_rejected(self):
        w = HistoryWindow(5).push(0.0, make_state()).push(1.0, make_state())
        with pytest.raises(ValueError, match="at least 3 samples"):
            fit_polynomial(w, degree=2)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            fit_polynomial(HistoryWindow(5).push(0.0, make_state()), degree=-1)

    def test_zero_time_span_rejected(self):
        w = HistoryWindow(5)
        w.push(0.0, make_state())
        with pytest.raises(ValueError, match="positive time interval"):
            fit_polynomial(w, degree=0)

    def test_normal_equations_stay_well_conditioned(self):
        # 500 samples over 50 s; the centered/scaled basis must keep the
        # Gram matrix far from singular
        times = 0.1 * np.arange(500)
        p = fit_polynomial(quad_window(times), degree=2)
        tau = (times - p.t_ref) / p.t_scale
        V = np.vander(tau, 3, increasing=True)
        assert np.linalg.cond(V.T @ V) < 1e6

    def test_smoothed_state_matches_model_at_window_end(self):
        times = 0.5 * np.arange(30)
        p = fit_polynomial(quad_window(times), degree=2)
        s = p.state_at(p.window_end)
        end = times[-1]
        np.testing.assert_allclose(
            [s[PX], s[PY]], [npoly.polyval(end, QUAD_X), npoly.polyval(end, QUAD_Y)],
            atol=1e-9,
        )
        np.testing.assert_allclose([s[VX], s[VY]], [2.0 + end, 0.5 - 0.5 * end], atol=1e-9)
        np.testing.assert_allclose([s[AX], s[AY]], [1.0, -0.5], atol=1e-9)


class TestExtrapolate:
    def test_boundary_continuity(self):
        times = 0.5 * np.arange(30)
        p = fit_polynomial(quad_window(times), degree=2)
        s = p.state_at(p.window_end)
        np.testing.assert_allclose(p.position(p.window_end + 1e-9), p.position(p.window_end), atol=1e-6)
        np.testing.assert_allclose(p.position(p.window_end), [s[PX], s[PY]], atol=1e-12)

    def test_linear_slope_carries_forward(self):
        w = HistoryWindow(20)
        for k in range(20):
            w.push(float(k), make_state(p_x=2.0 * k, p_y=5.0))
        p = fit_polynomial(w, degree=1)
        np.testing.assert_allclose(p.position(24.0), [2.0 * 19 + 10.0, 5.0], atol=1e-9)

    def test_exact_quadratic_extrapolates_exactly(self):
        times = 0.5 * np.arange(30)
        p = fit_polynomial(quad_window(times), degree=2)
        for t in (15.0, 30.0, 55.0):
            np.testing.assert_allclose(
                p.position(t),
                [npoly.polyval(t, QUAD_X), npoly.polyval(t, QUAD_Y)],
                rtol=1e-9,
            )


class TestResidualCovariance:
    def test_noise_free_data_hits_the_floor(self):
        times = 0.5 * np.arange(30)
        w = quad_window(times)
        cov = residual_covariance(w, fit_polynomial(w, degree=2))
        assert cov[0, 0] == 1e-6
        assert cov[1, 1] == 1e-6

    def test_unit_noise_is_recovered(self):
        times = 0.1 * np.arange(500)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            w = quad_window(times, noise=1.0, rng=rng)
            cov = residual_covariance(w, fit_polynomial(w, degree=2))
            assert 0.8 <= cov[0, 0] <= 1.2
            assert 0.8 <= cov[1, 1] <= 1.2

    def test_symmetric_psd(self):
        rng = np.random.default_rng(21)
        times = np.arange(40.0)
        w = quad_window(times, noise=0.5, rng=rng)
        cov = residual_covariance(w, fit_polynomial(w, degree=2))
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= 0.0

    def test_too_few_samples_for_dof(self):
        w = quad_window(np.array([0.0, 1.0, 2.0]))
        p = fit_polynomial(w, degree=2)
        with pytest.raises(ValueError, match="residual covariance"):
            residual_covariance(w, p)


class TestLagrange:
    def test_line_reproduced_for_any_horizon(self):
        w = HistoryWindow(20)
        for k in range(20):
            w.push(float(k), make_state(p_x=2.0 * k + 1.0, p_y=-0.5 * k))
        for t in (19.0, 25.0, 59.0):
            np.testing.assert_allclose(
                lagrange_extrapolate(w, t), [2.0 * t + 1.0, -0.5 * t], atol=1e-6
            )

    def test_last_node_value_reproduced(self):
        rng = np.random.default_rng(22)
        w = HistoryWindow(12)
        vals = rng.normal(size=(12, 2))
        for k in range(12):
            w.push(float(k), make_state(p_x=vals[k, 0], p_y=vals[k, 1]))
        np.testing.assert_allclose(lagrange_extrapolate(w, 11.0), vals[-1], atol=1e-9)

    def test_degree_seven_polynomial_reproduced_by_eight_nodes(self):
        coef = np.array([1.0, -2.0, 0.3, 0.05, -0.01, 2e-3, -1e-4, 5e-6])
        w = HistoryWindow(30)
        times = np.arange(30.0)
        for t in times:
            v = npoly.polyval(t, coef)
            w.push(t, make_state(p_x=v, p_y=-v))
        for t in (29.0, 33.0, 40.0):
            want = npoly.polyval(t, coef)
            got = lagrange_extrapolate(w, t, node_count=8)
            np.testing.assert_allclose(got, [want, -want], rtol=1e-9)

    def test_noisy_nodes_diverge_much_faster_than_least_squares(self):
        rng = np.random.default_rng(2024)
        times = np.arange(50.0)
        w = quad_window(times, noise=0.1, rng=rng)
        p = fit_polynomial(w, degree=2)
        end = w.end_time

        def errs(horizon):
            t = end + horizon
            truth = np.array([npoly.polyval(t, QUAD_X), npoly.polyval(t, QUAD_Y)])
            lag = np.linalg.norm(lagrange_extrapolate(w, t, node_count=8) - truth)
            ls = np.linalg.norm(p.position(t) - truth)
            return lag, ls

        lag10, ls10 = errs(10.0)
        lag40, ls40 = errs(40.0)
        assert lag10 > ls10 and lag40 > ls40
        assert lag40 > 1e3 * ls40
        # horizon growth is explosive for the interpolant, mild for the fit
        assert lag40 / lag10 > 100.0 * (ls40 / ls10)

    def test_node_count_below_two_rejected(self):
        w = quad_window(np.arange(10.0))
        with pytest.raises(ValueError, match="node_count"):
            lagrange_extrapolate(w, 12.0, node_count=1)

    def test_duplicate_node_timestamps_rejected(self):
        class BrokenWindow(HistoryWindow):
            def recent(self, count):
                times, positions = super().recent(count)
                times = times.copy()
                times[0] = times[1]
                return times, positions

        w = BrokenWindow(10)
        for k in range(10):
            w.push(float(k), make_state(p_x=float(k)))
        with pytest.raises(ValueError, match="distinct"):
            lagrange_extrapolate(w, 12.0, node_count=4)
