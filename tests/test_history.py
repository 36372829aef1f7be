import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from vhd import (
    Trajectory,
    fit_polynomial,
    lagrange_extrapolate,
    make_state,
    residual_covariance,
)
from vhd.kinematics import AX, AY, PX, PY, VX, VY

QUAD_X = np.array([3.0, 2.0, 0.5])
QUAD_Y = np.array([-1.0, 0.5, -0.25])


def position_window(times, px, py=0.0):
    """Window of states at `times` holding only the positions (px, py)."""
    times = np.asarray(times, dtype=float)
    states = np.zeros((times.size, 6))
    states[:, PX], states[:, PY] = px, py
    return Trajectory(times, states)


def quad_window(times, noise=None, rng=None):
    """Window sampled from the reference quadratics, optionally noisy."""
    px = npoly.polyval(times, QUAD_X)
    py = npoly.polyval(times, QUAD_Y)
    if noise is not None:
        px = px + rng.normal(scale=noise, size=times.shape)
        py = py + rng.normal(scale=noise, size=times.shape)
    return position_window(times, px, py)


class TestWindow:
    def test_equal_timestamp_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory([0.0, 1.0, 1.0], np.zeros((3, 6)))

    def test_decreasing_timestamp_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory([0.0, 1.0, 0.5], np.zeros((3, 6)))

    def test_wrong_state_shape_rejected(self):
        for times, shape in (([0.0], (1, 4)), ([0.0], (2, 6)), ([0.0, 1.0], (6,)), ([[0.0]], (1, 6))):
            with pytest.raises(ValueError, match="shape"):
                Trajectory(times, np.zeros(shape))

    def test_positions_are_the_position_columns_of_states(self):
        w = Trajectory(np.zeros(0), np.zeros((0, 6)))
        assert len(w) == 0
        assert w.states.shape == (0, 6)
        assert w.positions.shape == (0, 2)
        w = Trajectory([0.0, 1.0], [make_state(p_x=1.0, v_x=2.0, p_y=4.0), make_state(p_x=3.0, p_y=-1.0)])
        assert len(w) == 2
        np.testing.assert_array_equal(w.positions, w.states[:, [PX, PY]])
        np.testing.assert_array_equal(w.positions, [[1.0, 4.0], [3.0, -1.0]])

    def test_recent_slices_from_the_end(self):
        w = position_window(np.arange(5.0), 10.0 * np.arange(5))
        times, positions = w.recent(2)
        np.testing.assert_array_equal(times, [3.0, 4.0])
        np.testing.assert_array_equal(positions[:, 0], [30.0, 40.0])

    @pytest.mark.parametrize("count", [0, -1, 6])
    def test_recent_range_checked(self, count):
        w = position_window(np.arange(5.0), 0.0)
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
        w = position_window(np.arange(20.0), 4.0, -2.0)
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
            for gen, coef in ((QUAD_X, p.coef[:, 0]), (QUAD_Y, p.coef[:, 1])):
                back = np.zeros(3)
                for k, c in enumerate(coef):
                    term = np.array([1.0])
                    for _ in range(k):
                        term = npoly.polymul(term, tau_poly)
                    back[: len(term)] += c * term
                worst = max(worst, np.abs(back - gen).max())
        assert worst < 0.05

    @pytest.mark.parametrize(
        "degree, derivative", [(0, "velocity"), (0, "acceleration"), (1, "acceleration")]
    )
    def test_derivatives_above_the_degree_are_zero(self, degree, derivative):
        p = fit_polynomial(quad_window(np.arange(10.0)), degree=degree)
        assert p.degree == degree and p.coef.shape == (degree + 1, 2)
        evaluate = getattr(p, derivative)
        np.testing.assert_array_equal(evaluate(4.5), np.zeros(2))
        np.testing.assert_array_equal(evaluate(np.linspace(0.0, 20.0, 7)), np.zeros((7, 2)))

    def test_insufficient_samples_rejected(self):
        w = position_window([0.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="at least 3 samples"):
            fit_polynomial(w, degree=2)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            fit_polynomial(position_window([0.0], 0.0), degree=-1)

    def test_zero_time_span_rejected(self):
        w = position_window([0.0], 0.0)
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
        k = np.arange(20.0)
        p = fit_polynomial(position_window(k, 2.0 * k, 5.0), degree=1)
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
        k = np.arange(20.0)
        w = position_window(k, 2.0 * k + 1.0, -0.5 * k)
        for t in (19.0, 25.0, 59.0):
            np.testing.assert_allclose(
                lagrange_extrapolate(w, t), [2.0 * t + 1.0, -0.5 * t], atol=1e-6
            )

    def test_last_node_value_reproduced(self):
        rng = np.random.default_rng(22)
        vals = rng.normal(size=(12, 2))
        w = position_window(np.arange(12.0), vals[:, 0], vals[:, 1])
        np.testing.assert_allclose(lagrange_extrapolate(w, 11.0), vals[-1], atol=1e-9)

    def test_degree_seven_polynomial_reproduced_by_eight_nodes(self):
        coef = np.array([1.0, -2.0, 0.3, 0.05, -0.01, 2e-3, -1e-4, 5e-6])
        times = np.arange(30.0)
        v = npoly.polyval(times, coef)
        w = position_window(times, v, -v)
        for t in (29.0, 33.0, 40.0):
            want = npoly.polyval(t, coef)
            got = lagrange_extrapolate(w, t, node_count=8)
            np.testing.assert_allclose(got, [want, -want], rtol=1e-9)

    def test_noisy_nodes_diverge_much_faster_than_least_squares(self):
        rng = np.random.default_rng(2024)
        times = np.arange(50.0)
        w = quad_window(times, noise=0.1, rng=rng)
        p = fit_polynomial(w, degree=2)
        end = w.times[-1]

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

    @pytest.mark.parametrize("node_count", [2, 5, 8, 12])
    def test_array_of_times_equals_stacked_scalar_calls(self, node_count):
        rng = np.random.default_rng(31)
        w = quad_window(np.arange(20.0), noise=0.1, rng=rng)
        times = w.times[-1] + 0.1 * np.arange(1, 401)
        stacked = np.array([lagrange_extrapolate(w, t, node_count) for t in times])
        np.testing.assert_array_equal(lagrange_extrapolate(w, times, node_count), stacked)

    def test_node_count_below_two_rejected(self):
        w = quad_window(np.arange(10.0))
        with pytest.raises(ValueError, match="node_count"):
            lagrange_extrapolate(w, 12.0, node_count=1)


class TestBlockWindow:
    """A block of runs sharing one window's times: the engine's window is
    `np.take` over a (runs, steps, 6) array of tracked means, and each run's
    fit and interpolant must equal its own window's bit for bit."""

    @staticmethod
    def windows(runs=5, steps=601, period=10, capacity=51):
        tracked = np.cumsum(np.random.default_rng(3).normal(size=(runs, steps, 6)), axis=1)
        samples = np.arange(steps - 1, -1, -period)[:capacity][::-1]
        times = 0.1 * samples
        block = Trajectory(times, np.take(tracked, samples, axis=-2))
        return block, [Trajectory(times, run[samples]) for run in tracked]

    def test_block_shapes(self):
        block, runs = self.windows()
        assert len(block) == 51
        assert block.positions.shape == (len(runs), 51, 2)
        times, positions = block.recent(8)
        assert times.shape == (8,)
        np.testing.assert_array_equal(positions, np.stack([w.recent(8)[1] for w in runs]))
        with pytest.raises(ValueError, match="shape"):
            Trajectory(block.times, block.states[..., :4])

    @pytest.mark.parametrize("degree", [0, 2, 5])
    def test_fit_equals_the_per_run_fits(self, degree):
        block, runs = self.windows()
        poly = fit_polynomial(block, degree)
        assert poly.coef.shape == (len(runs), degree + 1, 2)
        assert poly.degree == degree
        t = block.times[-1] + 0.1 * np.arange(1, 401)
        for r, w in enumerate(runs):
            one = fit_polynomial(w, degree)
            np.testing.assert_array_equal(poly.coef[r], one.coef)
            for name in ("position", "velocity", "acceleration"):
                np.testing.assert_array_equal(getattr(poly, name)(t)[r], getattr(one, name)(t))

    @pytest.mark.parametrize("node_count", [2, 8, 12])
    def test_lagrange_equals_the_per_run_paths(self, node_count):
        block, runs = self.windows()
        t = block.times[-1] + 0.1 * np.arange(1, 401)
        paths = lagrange_extrapolate(block, t, node_count)
        assert paths.shape == (len(runs), t.size, 2)
        for r, w in enumerate(runs):
            np.testing.assert_array_equal(paths[r], lagrange_extrapolate(w, t, node_count))
