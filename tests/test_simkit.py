import collections
import dataclasses
import os
import re

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from vhd import (
    ScenarioConfig,
    generate_truth,
    monte_carlo,
    open_loop_predict,
    rmse,
    run_block,
    run_outage,
    run_scenario,
    simulate_measurements,
    track_to_outage,
)
from vhd.kinematics import AX, AY, PX, PY, VX, VY, accel_measurement_matrix, ca_model, propagate_truth
from vhd import simkit
from vhd.cli import _summary_payload, _summary_text
from vhd.history import _vandermonde
from vhd.estimator import GaussianBelief, predict, update
from vhd.outage import adaptive_noise, adaptive_variance
from vhd.simkit import PREDICTORS, ConfigError, _run_seeds

SMALL = ScenarioConfig(
    duration=40.0,
    outage_start=20.0,
    outage_duration=10.0,
    history_window=20.0,
    mc_runs=8,
    base_seed=77,
    turn_start=10.0, turn_duration=5.0,
)

# Configs for the per-step rule tests of the step grid; the last one's fix
# period (1e301 steps) lies past the onset and does not fit in int64.
GRID_CONFIGS = [
    ScenarioConfig(),
    ScenarioConfig(fix_rate=2.0),
    ScenarioConfig(outage_start=60.5),
    ScenarioConfig(fix_rate=1e-300),
]


# Configs whose engine records must equal run_scenario's bit for bit, but
# for the vhd path, whose outage gains the engine computes per axis in floats.
ENGINE_CONFIGS = {
    "default": ScenarioConfig(),
    "small": SMALL,
    "fractional onset": ScenarioConfig(outage_start=60.5),
    "fix_rate 2": ScenarioConfig(fix_rate=2.0),
    "degree 0, 2 nodes": ScenarioConfig(poly_degree=0, lagrange_nodes=2),
    "degree 5, 12 nodes": ScenarioConfig(poly_degree=5, lagrange_nodes=12),
    # A noise law whose power is not 2: t**1.5 is where numpy's array `**`
    # and Python's float `**` may differ in the last bit.
    "p 1.5, alpha 0.3": ScenarioConfig(p=1.5, alpha=0.3),
    # The tracking covariance at the end of fix period 79 (step 790) is the
    # one at the end of period 77, so these onsets come after the replayed
    # cycle: on a fix boundary (with no fix at the onset step) and off it.
    "onset 100 s": ScenarioConfig(outage_start=100.0, duration=140.0),
    "onset 100.5 s": ScenarioConfig(outage_start=100.5, duration=140.5),
    # Without process noise the covariance keeps shrinking and never repeats.
    "sigma_jerk 0, onset 100 s": ScenarioConfig(outage_start=100.0, duration=140.0, sigma_jerk=0.0),
    # The fix period (1000 steps) is past the onset: one segment, no fix.
    "no fix before the onset": ScenarioConfig(fix_rate=0.01),
    "fix_rate 2, onset 100 s": ScenarioConfig(outage_start=100.0, duration=140.0, fix_rate=2.0),
    # Window periods of other shapes: a 25-step fix period across 10-step
    # periods, one step per period, 20 steps per period, and an onset off the
    # window grid, whose first period is padded with identity steps.
    "fix_rate 0.4": ScenarioConfig(fix_rate=0.4),
    "dt 1, fix_rate 0.5": ScenarioConfig(dt=1.0, fix_rate=0.5),
    "dt 0.05": ScenarioConfig(dt=0.05),
    "dt 0.5, onset 60.5 s": ScenarioConfig(dt=0.5, outage_start=60.5, duration=110.5),
    # Outages that are not a whole number of vhd blocks (`_OUTAGE_BLOCK`
    # steps): one step, a single block padded with identity steps, and 407
    # steps, whose first block is padded with 3.
    "outage 0.1 s": ScenarioConfig(outage_duration=0.1),
    "outage 40.7 s": ScenarioConfig(outage_duration=40.7),
}

# The benchmark's long_blackout geometry: a 300 s outage after a 60 s track.
LONG_BLACKOUT = ScenarioConfig(duration=360.0, outage_duration=300.0, mc_runs=1)


def assert_open_loop_chain(cfg, xy, onset):
    """(T + 1, 2) ukf positions equal an `open_loop_predict` chain from the
    onset belief: row 0 bit for bit, and every later row within T eps of the
    chain's largest coordinate. The closed form rounds each step's position
    once, from the onset mean; the chain rounds `F @ m` at every step, so its
    error may grow by about one eps of the path's magnitude a step. The bound
    was fixed from that before measuring: the default config reads 0.18 of
    it, the 300 s outage 0.06."""
    chain = open_loop_predict(onset.belief, onset.model, cfg.outage_steps)
    path = np.array([b.mean[[PX, PY]] for b in chain])
    np.testing.assert_array_equal(xy[0], onset.belief.mean[[PX, PY]])
    bound = cfg.outage_steps * np.finfo(float).eps * np.abs(path).max()
    np.testing.assert_allclose(xy[1:], path, rtol=0.0, atol=bound)


def accel_bias(truth, cfg, seed):
    """One run's accelerometer bias, as its readings less the true
    acceleration, for a config without white noise: exact at the steps
    outside the turn, where the true acceleration is 0, and NaN in the turn."""
    assert cfg.accel_white_noise == 0.0
    accel = truth.accelerations[: cfg.onset_step + 1]
    bias = simulate_measurements(truth, cfg, [seed])[1][0] - accel
    bias[np.any(accel != 0.0, axis=1)] = np.nan
    return bias


def plain_tracking_updates(cfg):
    """The tracking schedule by the per-step rule, with no reuse: per step
    1 .. onset_step, the predicted covariance, the accelerometer update
    (`_axis_fix` on the block permuted so that entry 2 comes first) and, on
    a multiple of the fix period before the onset, the position fix. Returns
    each step's list of (gain, covariance) pairs, both in state order."""
    f, q = simkit._axis_model(ca_model(cfg.dt, cfg.sigma_jerk))
    cov, steps = (1.0, 0.0, 0.0, 0.25, 0.0, 0.04), []
    for i in range(1, cfg.onset_step + 1):
        p00, p01, p02, p11, p12, p22 = simkit._axis_predicted(cov, f, q)
        (c22, c02, c12, c00, c01, c11), _, (k2, k0, k1) = simkit._axis_fix(
            (p22, p02, p12, p00, p01, p11), cfg.accel_white_noise**2
        )
        cov = (c00, c01, c02, c11, c12, c22)
        updates = [((k0, k1, k2), cov)]
        if i % cfg.fix_period_steps == 0 and i < cfg.onset_step:
            cov, _, k = simkit._axis_fix(cov, cfg.position_fix_noise**2)
            updates.append((k, cov))
        steps.append(updates)
    return steps


def plain_outage_updates(cfg, onset):
    """The `vhd` outage schedule by the per-step rule, in Python floats: per
    step k = 1 .. outage_steps, the predicted covariance and the virtual fix
    of the scalar variance adaptive_variance(cfg, k * dt). Returns each
    step's gain and covariance after it, from the onset's six entries."""
    f, q = simkit._axis_model(ca_model(cfg.dt, cfg.sigma_jerk))
    cov, steps = tuple(onset.tolist()), []
    for k in range(1, cfg.outage_steps + 1):
        cov, _, gain = simkit._axis_fix(simkit._axis_predicted(cov, f, q), adaptive_variance(cfg, k * cfg.dt))
        steps.append((gain, cov))
    return steps


def assert_tracking_schedule_is_plain(cfg):
    """`_tracking_schedule`'s rows equal `plain_tracking_updates`'s bit for
    bit: each step's accelerometer row and, on a fix step, its fix row."""
    gains, covs, acc_rows, fix_rows = simkit._tracking_schedule(cfg, ca_model(cfg.dt, cfg.sigma_jerk))
    plain = plain_tracking_updates(cfg)
    assert len(acc_rows) == len(fix_rows) == len(plain) == cfg.onset_step
    for acc, fix, updates in zip(acc_rows.tolist(), fix_rows.tolist(), plain):
        assert (fix >= 0) == (len(updates) == 2)
        for row, (k, cov) in zip((acc, fix), updates):
            assert gains[row].tolist() == list(k)
            assert covs[row].tolist() == list(cov)
    assert covs[-1].tolist() == list(plain[-1][-1][1])
    return gains


class TestSensorConfig:
    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="ScenarioConfig invariant: position_fix_noise"):
            ScenarioConfig(position_fix_noise=-1.0)

    def test_zero_fix_rate_rejected(self):
        with pytest.raises(ValueError, match="fix_rate"):
            ScenarioConfig(fix_rate=0.0)


class TestTrajectoryConfig:
    def test_turn_extent(self):
        cfg = ScenarioConfig()
        assert cfg.turn_end == 55.0
        assert cfg.has_turn

    def test_turn_disabled_by_zero_rate_or_duration(self):
        assert not ScenarioConfig(turn_rate=0.0).has_turn
        assert not ScenarioConfig(turn_duration=0.0).has_turn

    def test_phases_cover_the_run(self):
        # straight [0, 45 s), turning [45 s, 55 s), straight [55 s, 100 s]
        turning = np.any(generate_truth(ScenarioConfig()).accelerations != 0.0, axis=1)
        np.testing.assert_array_equal(np.flatnonzero(turning), np.arange(450, 550))

    def test_phases_without_turn(self):
        truth = generate_truth(ScenarioConfig(turn_rate=0.0))
        assert truth.times[-1] == pytest.approx(100.0)  # the outage end
        assert np.all(truth.accelerations == 0.0)

    def test_negative_timing_rejected(self):
        with pytest.raises(ValueError, match="ScenarioConfig invariant: turn timing"):
            ScenarioConfig(turn_start=-1.0)


class TestScenarioConfig:
    def test_default_step_grid(self):
        cfg = ScenarioConfig()
        assert cfg.onset_step == 600
        assert cfg.outage_steps == 400
        assert cfg.fix_period_steps == 10
        assert cfg.window_period_steps == 10
        assert cfg.window_capacity == 51

    def test_current_vector(self):
        cur = ScenarioConfig().current
        assert np.hypot(*cur) == pytest.approx(1.0)
        assert cur[0] == pytest.approx(np.sqrt(0.5))
        assert cur[1] == pytest.approx(np.sqrt(0.5))

    def test_window_must_fill_before_outage(self):
        with pytest.raises(ValueError, match="buffer must fill"):
            ScenarioConfig(outage_start=40.0, history_window=50.0)

    def test_outage_must_end_within_run(self):
        with pytest.raises(ValueError, match="outage must end"):
            ScenarioConfig(duration=90.0)

    def test_run_counts_validated(self):
        with pytest.raises(ValueError, match="mc_runs"):
            ScenarioConfig(mc_runs=0)
        with pytest.raises(ValueError, match="lagrange_nodes"):
            ScenarioConfig(lagrange_nodes=1)

    def test_grid_alignment_enforced(self):
        with pytest.raises(ValueError, match="multiple of dt"):
            ScenarioConfig(dt=0.3)

    def test_rank_decision_equals_matrix_rank(self):
        # The certificate may only skip the SVD, never change its verdict.
        for count in range(2, 121):
            times = 0.1 * np.arange(count)
            for degree in range(min(count - 1, 30) + 1):
                V = _vandermonde(times, degree + 1)[0]
                A = V.T @ V
                assert simkit._full_rank(A) == (np.linalg.matrix_rank(A) > degree), (count, degree)

    def test_default_config_is_certified_without_an_svd(self, monkeypatch):
        calls = []
        matrix_rank = np.linalg.matrix_rank

        def recording(A):
            calls.append(len(A))
            return matrix_rank(A)

        monkeypatch.setattr(np.linalg, "matrix_rank", recording)
        ScenarioConfig()
        assert calls == []
        # On the default 51-sample window degree 19 still has full rank, but
        # only the SVD can tell.
        assert ScenarioConfig(poly_degree=19).poly_degree == 19
        assert calls == [20]

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("position_fix_noise", -1.0, "position_fix_noise must be >= 0"),
            ("position_fix_noise", -0.0, "position_fix_noise must be >= 0"),
            ("accel_white_noise", 1e300, "accel_white_noise squared must be finite"),
            ("fix_rate", 0.0, "fix_rate must be > 0"),
            ("cruise_speed", -1.0, "cruise_speed must be >= 0"),
            ("turn_start", -1.0, "turn timing must be >= 0"),
            ("dt", 0.0, "dt must be > 0"),
            ("history_window", 0.0, "history_window must be > 0"),
            ("poly_degree", -1, "poly_degree must be >= 0"),
            ("current_speed", -1.0, "current_speed must be >= 0"),
            ("r_base", 0.0, "r_base must be > 0 and finite, got 0.0"),
            ("r_base", np.inf, "r_base must be > 0 and finite, got inf"),
            ("alpha", -1.0, "alpha must be >= 0, got -1.0"),
            ("p", 0.5, "p must be >= 1, got 0.5"),
        ],
    )
    def test_sensor_and_motion_checks_name_the_config(self, field, value, message):
        with pytest.raises(ValueError) as info:
            ScenarioConfig(**{field: value})
        assert str(info.value) == f"ScenarioConfig invariant: {message}"

    @pytest.mark.parametrize(
        ("fields", "named"),
        [({"fix_rate": 0.0, "alpha": -1.0}, "fix_rate"), ({"alpha": -1.0, "cruise_speed": -1.0}, "alpha")],
        ids=["fix_rate before alpha", "alpha before cruise_speed"],
    )
    def test_the_schedule_is_checked_between_the_sensors_and_the_motion(self, fields, named):
        with pytest.raises(ValueError, match=f"^ScenarioConfig invariant: {named} must be"):
            ScenarioConfig(**fields)

    def test_turn_must_precede_outage(self):
        with pytest.raises(ValueError, match="turn must begin before"):
            ScenarioConfig(turn_start=60.0)

    @pytest.mark.parametrize("cfg", GRID_CONFIGS)
    def test_fix_steps_follow_the_per_step_rule(self, cfg):
        # the rule as a loop over steps: a fix at every period boundary
        # before the onset step, none at it
        period = cfg.fix_period_steps
        want = [i for i in range(1, cfg.onset_step) if i % period == 0]
        np.testing.assert_array_equal(cfg.fix_steps, want)
        assert cfg.fix_steps.dtype == np.array(want, dtype=int).dtype

    @pytest.mark.parametrize("cfg", GRID_CONFIGS)
    def test_window_steps_follow_the_per_step_rule(self, cfg):
        # the rule as a loop over steps: every window period back from the
        # onset step, the newest window_capacity of them, oldest first
        onset, period = cfg.onset_step, cfg.window_period_steps
        want = [i for i in range(onset + 1) if (onset - i) % period == 0][-cfg.window_capacity :]
        np.testing.assert_array_equal(cfg.window_steps, want)
        assert cfg.window_steps[-1] == onset


# Geometries for the truth's per-step rule, beside GRID_CONFIGS and
# ENGINE_CONFIGS: the turn, the current and the grid at other values, and
# the signed zeros of a -0.0 heading and of a vehicle at rest.
TRUTH_GEOMETRIES = {
    "no current": ScenarioConfig(current_speed=0.0),
    "no turn": ScenarioConfig(turn_rate=0.0),
    "turn_duration 0": ScenarioConfig(turn_duration=0.0),
    "turn from 0": ScenarioConfig(turn_start=0.0),
    "turn_rate -0.3, initial_heading 1.2, cruise_speed 3.7": ScenarioConfig(
        turn_rate=-0.3, initial_heading=1.2, cruise_speed=3.7
    ),
    "turn_rate 2": ScenarioConfig(turn_rate=2.0),
    "turn past the onset": ScenarioConfig(turn_start=50.0, turn_duration=30.0),
    "fractional turn": ScenarioConfig(turn_start=12.34, turn_duration=7.77),
    "dt 0.05": ScenarioConfig(dt=0.05),
    "dt 0.2, current 2.3 m/s at 200 deg": ScenarioConfig(dt=0.2, current_speed=2.3, current_heading_deg=200.0),
    "initial_heading -0.0": ScenarioConfig(initial_heading=-0.0),
    "cruise_speed 0, initial_heading 3": ScenarioConfig(cruise_speed=0.0, initial_heading=3.0),
}

TRUTH_RULE_CONFIGS = {
    **{f"grid {k}": cfg for k, cfg in enumerate(GRID_CONFIGS)},
    **ENGINE_CONFIGS,
    **TRUTH_GEOMETRIES,
}


class TestGenerateTruth:
    @pytest.mark.parametrize("name", list(TRUTH_RULE_CONFIGS))
    def test_each_step_follows_the_per_step_rule(self, name):
        # Each step from the generated step before it: a straight step is
        # propagate_truth; a turn step turns the heading by w * dt and moves
        # along the exact arc plus the same drift, at the speed v along the
        # new heading. The acceleration is centripetal on the turn steps and
        # 0 elsewhere. Bit for bit, signed zeros included.
        cfg = TRUTH_RULE_CONFIGS[name]
        dt, current = cfg.dt, cfg.current
        v, w = cfg.cruise_speed, cfg.turn_rate
        model = ca_model(dt, 0.0)
        states = generate_truth(cfg).states
        start, end = round(cfg.turn_start / dt), round(cfg.turn_end / dt)
        turning = [cfg.has_turn and start <= i < end for i in range(len(states))]
        headings = [cfg.initial_heading]
        want = [[0.0, v * np.cos(headings[0]), 0.0, 0.0, v * np.sin(headings[0]), 0.0]]
        for i, s in enumerate(states[:-1]):
            heading = headings[-1]
            if turning[i]:
                new = heading + w * dt
                r = v / w
                s = s.copy()
                s[PX] += r * (np.sin(new) - np.sin(heading)) + current[0] * dt
                s[PY] += r * (np.cos(heading) - np.cos(new)) + current[1] * dt
                s[VX], s[VY] = v * np.cos(new), v * np.sin(new)
                heading = new
            else:
                s = propagate_truth(s, model, current)
            headings.append(heading)
            want.append(s)
        want = np.array(want)
        for k, heading in enumerate(headings):
            want[k, [AX, AY]] = (-v * w * np.sin(heading), v * w * np.cos(heading)) if turning[k] else 0.0
        np.testing.assert_array_equal(states, want)
        np.testing.assert_array_equal(np.signbit(states), np.signbit(want))

    def test_straight_cruise_covers_twenty_meters_in_ten_seconds(self):
        cfg = ScenarioConfig(current_speed=0.0, turn_rate=0.0)
        truth = generate_truth(cfg)
        np.testing.assert_allclose(truth.states[100, [PX, PY]], [20.0, 0.0], rtol=1e-9, atol=1e-12)
        assert truth.states[100, VX] == 2.0
        assert truth.states[100, AX] == 0.0

    def test_turn_kinematic_identities(self):
        cfg = ScenarioConfig(current_speed=0.0)
        truth = generate_truth(cfg)
        start, end = 450, 550  # turn covers [45 s, 55 s) on the 0.1 s grid

        speeds = np.linalg.norm(truth.states[start:end, [VX, VY]], axis=1)
        np.testing.assert_allclose(speeds, 2.0, rtol=1e-9)
        accels = np.linalg.norm(truth.states[start:end, [AX, AY]], axis=1)
        np.testing.assert_allclose(accels, 0.2, rtol=1e-9)  # v * omega
        dots = np.einsum(
            "ij,ij->i", truth.states[start:end, [VX, VY]], truth.states[start:end, [AX, AY]]
        )
        np.testing.assert_allclose(dots, 0.0, atol=1e-12)

        # heading swings one radian over the 10 s turn
        np.testing.assert_allclose(
            truth.states[end, [VX, VY]], [2.0 * np.cos(1.0), 2.0 * np.sin(1.0)], rtol=1e-9
        )
        # chord of a 1 rad arc of radius v/omega = 20 m
        chord = np.linalg.norm(truth.positions[end] - truth.positions[start])
        np.testing.assert_allclose(chord, 2.0 * 20.0 * np.sin(0.5), rtol=1e-9)

    def test_no_acceleration_outside_turn(self):
        truth = generate_truth(ScenarioConfig())
        assert np.all(truth.accelerations[:450] == 0.0)
        assert np.all(truth.accelerations[550:] == 0.0)

    def test_deterministic_and_seed_free(self):
        cfg = ScenarioConfig()
        a = generate_truth(cfg)
        b = generate_truth(cfg)
        np.testing.assert_array_equal(a.states, b.states)

    def test_current_adds_pure_linear_drift(self):
        with_current = generate_truth(ScenarioConfig())
        without = generate_truth(ScenarioConfig(current_speed=0.0))
        drift = with_current.positions - without.positions
        cur = ScenarioConfig().current
        want = np.outer(with_current.times, cur)
        np.testing.assert_allclose(drift, want, rtol=1e-9, atol=1e-9)


class TestSimulateMeasurements:
    def test_noise_free_fixes_equal_truth(self):
        cfg = ScenarioConfig(
            position_fix_noise=0.0, accel_white_noise=0.0, accel_bias_walk=0.0
        )
        truth = generate_truth(cfg)
        fixes, imu = simulate_measurements(truth, cfg, [5])
        np.testing.assert_array_equal(fixes[0], truth.positions[cfg.fix_steps])
        np.testing.assert_array_equal(imu[0], truth.accelerations[: cfg.onset_step + 1])
        np.testing.assert_array_equal(np.nan_to_num(accel_bias(truth, cfg, seed=5)), 0.0)

    def test_streams_end_at_the_onset_and_truth_at_the_outage_end(self):
        cfg = ScenarioConfig()
        truth = generate_truth(cfg)
        fixes, imu = simulate_measurements(truth, cfg, [5])
        assert truth.states.shape == (cfg.onset_step + cfg.outage_steps + 1, 6)
        assert imu.shape == (1, cfg.onset_step + 1, 2)
        assert fixes.shape == (1, len(cfg.fix_steps), 2)
        # a longer run only lengthens the grid after the outage, which is
        # not simulated
        longer = dataclasses.replace(cfg, duration=200.0)
        truth_longer = generate_truth(longer)
        np.testing.assert_array_equal(truth_longer.states, truth.states)
        for stream, stream_longer in zip((fixes, imu), simulate_measurements(truth_longer, longer, [5])):
            np.testing.assert_array_equal(stream_longer, stream)
        quiet = dataclasses.replace(cfg, accel_white_noise=0.0)
        quiet_longer = dataclasses.replace(quiet, duration=200.0)
        np.testing.assert_array_equal(accel_bias(truth_longer, quiet_longer, 5), accel_bias(truth, quiet, 5))

    def test_outage_suppresses_fixes(self):
        cfg = ScenarioConfig()
        onset, end = cfg.onset_step, cfg.onset_step + cfg.outage_steps
        assert not np.any((cfg.fix_steps >= onset) & (cfg.fix_steps < end))
        assert np.all(cfg.fix_steps % cfg.fix_period_steps == 0)
        assert cfg.fix_steps[0] == cfg.fix_period_steps

    def test_same_seed_is_bit_identical(self):
        cfg = ScenarioConfig()
        truth = generate_truth(cfg)
        a = simulate_measurements(truth, cfg, [9])
        b = simulate_measurements(truth, cfg, [9])
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = simulate_measurements(truth, cfg, [10])
        assert not np.array_equal(a[0], c[0])

    def test_bias_random_walk_variance_law(self):
        cfg = ScenarioConfig(accel_white_noise=0.0)
        truth = generate_truth(cfg)
        k = 600
        samples = np.array([accel_bias(truth, cfg, seed)[k] for seed in range(1000)])
        want = k * cfg.accel_bias_walk**2
        got = samples.reshape(-1).var()
        assert abs(got - want) < 0.1 * want

    def test_bias_starts_at_zero(self):
        cfg = ScenarioConfig(accel_white_noise=0.0)
        truth = generate_truth(cfg)
        np.testing.assert_array_equal(accel_bias(truth, cfg, 3)[0], [0.0, 0.0])

    def test_streams_do_not_interfere(self):
        # resizing or rescaling one stream must not change the others
        base = ScenarioConfig()
        truth = generate_truth(base)
        ref_fixes, ref_imu = simulate_measurements(truth, base, [42])

        fewer_fixes = ScenarioConfig(fix_rate=0.5)
        alt_imu = simulate_measurements(truth, fewer_fixes, [42])[1]
        np.testing.assert_array_equal(alt_imu, ref_imu)
        quiet = ScenarioConfig(accel_white_noise=0.0)
        quiet_fewer_fixes = ScenarioConfig(accel_white_noise=0.0, fix_rate=0.5)
        np.testing.assert_array_equal(accel_bias(truth, quiet_fewer_fixes, 42), accel_bias(truth, quiet, 42))

        louder_imu = ScenarioConfig(accel_white_noise=0.5)
        alt2_fixes = simulate_measurements(truth, louder_imu, [42])[0]
        np.testing.assert_array_equal(alt2_fixes, ref_fixes)

    def test_each_run_of_a_block_is_its_seed_drawn_by_the_per_seed_rule(self):
        # The rule written out: three child generators of the run's seed, in
        # the order fix, white, bias; the fixes are the true positions plus
        # the fix noise, and the readings the true acceleration, plus the
        # bias walk from 0 at step 0, plus the white noise.
        cfg = SMALL
        truth = generate_truth(cfg)
        n1, fix_steps = cfg.onset_step + 1, cfg.fix_steps
        seeds = [77, 1234, 7, 4242]
        fixes, imu = simulate_measurements(truth, cfg, seeds)
        assert fixes.shape == (len(seeds), len(fix_steps), 2)
        assert imu.shape == (len(seeds), n1, 2)
        for k, seed in enumerate(seeds):
            fix_rng, white_rng, bias_rng = (np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(3))
            fix_noise = fix_rng.normal(0.0, cfg.position_fix_noise, size=(len(fix_steps), 2))
            white = white_rng.normal(0.0, cfg.accel_white_noise, size=(n1, 2))
            increments = bias_rng.normal(0.0, cfg.accel_bias_walk, size=(n1, 2))
            increments[0] = 0.0
            np.testing.assert_array_equal(fixes[k], truth.positions[fix_steps] + fix_noise)
            np.testing.assert_array_equal(imu[k], truth.accelerations[:n1] + np.cumsum(increments, axis=0) + white)
        # A seed's rows do not depend on the block around it: drawn alone,
        # first or last, they are its rows in the block above.
        for block, row in (([1234], 0), ([1234, 77, 7], 0), ([77, 7, 1234], 2)):
            for stream, drawn in zip((fixes, imu), simulate_measurements(truth, cfg, block)):
                np.testing.assert_array_equal(drawn[row], stream[1])


class TestTrackToOutage:
    def test_window_is_full_and_current(self):
        # a fractional-second onset still ends the window at the onset
        for cfg in (ScenarioConfig(), ScenarioConfig(outage_start=60.5, duration=110.5)):
            onset = track_to_outage(cfg, seed=1234)
            assert len(onset.window) == cfg.window_capacity
            assert onset.window.times[-1] == cfg.onset_step * cfg.dt
            np.testing.assert_allclose(np.diff(onset.window.times), 1.0, rtol=1e-12)
            np.testing.assert_array_equal(onset.window.states[-1], onset.belief.mean)

    def test_tracking_error_stays_small(self, default_block):
        # row 0 of every path is the onset mean, so the error there is the
        # position error of tracking
        assert default_block.errors["ukf"][:, 0].mean() < 2.0

    @pytest.mark.parametrize("cfg", GRID_CONFIGS)
    def test_tracking_updates_follow_the_per_step_rule(self, cfg):
        # the rule as a loop over steps: the accelerometer update on every
        # step, then a position fix on the fix steps
        assert_tracking_schedule_is_plain(cfg)

    @pytest.mark.parametrize(
        "cfg",
        [ENGINE_CONFIGS["onset 100 s"], ScenarioConfig(outage_start=1000.0, duration=1040.0)],
        ids=["onset 100 s", "1000 s track"],
    )
    def test_reused_tracking_schedule_equals_the_plain_loop(self, cfg):
        # Both tracks replay the 2-cycle of fix periods 78 and 79, and still
        # equal a loop that computes every step.
        gains = assert_tracking_schedule_is_plain(cfg)
        assert len(gains) == 79 * (cfg.fix_period_steps + 1) + cfg.fix_period_steps

    @pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
    def test_window_and_onset_mean_equal_a_predict_update_chain(self, name):
        # The reference steps each window period with one map, composed from
        # its steps' folded predicts and updates with the schedule's per-axis
        # float gains. A plain chain of `predict` and `update` on the same
        # seed's readings rounds otherwise and computes its own 6x6 gains, so
        # it holds the means to a bound fixed from float64 eps: 64 eps of the
        # chain's largest mean entry (measured: 7.6 eps with no fix before the
        # onset, at most 4.9 eps otherwise, and 2.7 eps on a 1000 s track).
        cfg = ENGINE_CONFIGS[name]
        model = ca_model(cfg.dt, cfg.sigma_jerk)
        onset = track_to_outage(cfg, cfg.base_seed)
        fixes, imu = simulate_measurements(onset.truth, cfg, [cfg.base_seed])
        fixes, fix_steps = iter(fixes[0]), set(cfg.fix_steps.tolist())
        R_imu = np.diag([cfg.accel_white_noise**2] * 2)
        R_fix = np.diag([cfg.position_fix_noise**2] * 2)
        belief = GaussianBelief(onset.truth.states[0], np.diag([1.0, 0.25, 0.04] * 2))
        chain = [belief.mean]
        for i in range(1, cfg.onset_step + 1):
            belief = update(predict(belief, model), imu[0, i], R_imu, accel_measurement_matrix())
            if i in fix_steps:
                belief = update(belief, next(fixes), R_fix, model.H)
            chain.append(belief.mean)
        chain = np.array(chain)
        atol = 64 * np.finfo(float).eps * np.abs(chain).max()
        np.testing.assert_allclose(onset.window.states, chain[cfg.window_steps], rtol=0.0, atol=atol)
        np.testing.assert_allclose(onset.belief.mean, chain[-1], rtol=0.0, atol=atol)


class TestRunScenario:
    def test_predictors_share_the_branch_point(self, default_block):
        rec = default_block.run(0)
        np.testing.assert_array_equal(rec.paths["ukf"][0], rec.paths["vhd"][0])
        np.testing.assert_array_equal(rec.paths["ukf"][0], rec.paths["lagrange"][0])
        assert rec.errors["ukf"][0] == rec.errors["vhd"][0] == rec.errors["lagrange"][0]

    @pytest.mark.parametrize("source", ["run_block", "run_scenario"])
    def test_outage_grid_and_shapes(self, source, default_block):
        # a block record has a leading run axis; run_scenario's has the
        # one-run shapes, which the benchmark's oracle stacks
        cfg = ScenarioConfig()
        if source == "run_block":
            rec, runs = default_block, (cfg.mc_runs,)
        else:
            rec, runs = run_scenario(cfg, cfg.base_seed), ()
        np.testing.assert_allclose(
            rec.times, cfg.outage_start + np.arange(cfg.outage_steps + 1) * cfg.dt, rtol=1e-12
        )
        assert np.shape(rec.seed) == runs
        assert rec.truth_xy.shape == (cfg.outage_steps + 1, 2)
        for name in PREDICTORS:
            assert rec.paths[name].shape == runs + (cfg.outage_steps + 1, 2)
            assert rec.errors[name].shape == runs + (cfg.outage_steps + 1,)
            np.testing.assert_array_equal(
                rec.errors[name], np.linalg.norm(rec.paths[name] - rec.truth_xy, axis=-1)
            )

    def test_open_loop_branch_is_reproducible(self, default_block):
        # The block's ukf path is the open-loop chain's, within the chain's
        # rounding (`assert_open_loop_chain`).
        cfg = ScenarioConfig()
        rec = default_block.run(0)
        assert_open_loop_chain(cfg, rec.paths["ukf"], track_to_outage(cfg, seed=rec.seed))

    @pytest.mark.parametrize("cfg, seed", [(ScenarioConfig(), 1234), (SMALL, 77)])
    def test_lagrange_path_equals_the_per_step_oracle(self, cfg, seed):
        # the oracle re-solves the node interpolant at every outage step
        rec = run_scenario(cfg, seed)
        window = track_to_outage(cfg, seed).window
        times, positions = window.recent(cfg.lagrange_nodes)
        t_ref = 0.5 * (times[0] + times[-1])
        t_scale = 0.5 * (times[-1] - times[0])
        oracle = []
        for t in rec.times[1:]:
            V = np.vander((times - t_ref) / t_scale, cfg.lagrange_nodes, increasing=True)
            coefs = np.linalg.solve(V, positions)
            tq = (float(t) - t_ref) / t_scale
            oracle.append([npoly.polyval(tq, coefs[:, 0]), npoly.polyval(tq, coefs[:, 1])])
        np.testing.assert_array_equal(rec.paths["lagrange"][1:], oracle)

    def test_designated_run_monotonicity_contrast(self, default_block):
        # under the steady current the open-loop error can only keep
        # growing, while VHD's pull toward the history polynomial lets its
        # error dip; both behaviors are deterministic for the base seed
        rec = default_block.run(0)
        assert rec.seed == 1234
        half = len(rec.errors["ukf"]) // 2
        assert np.all(np.diff(rec.errors["ukf"][half:]) > 0.0)
        assert np.any(np.diff(rec.errors["vhd"]) < 0.0)

    def test_vhd_wins_on_nearly_every_run(self, default_block):
        errors = default_block.errors
        assert np.sum(errors["vhd"][:, -1] < errors["ukf"][:, -1]) >= 95

    def test_terminal_errors_look_independent_across_seeds(self, default_block):
        # lag-1 correlation among per-run terminal errors must sit inside
        # the 99% null band for 99 pairs (truly independent runs still
        # show sample correlation of order 1/sqrt(n))
        for name in PREDICTORS:
            terminal = default_block.errors[name][:, -1]
            corr = np.corrcoef(terminal[:-1], terminal[1:])[0, 1]
            assert abs(corr) <= 0.262

    def test_noise_streams_of_adjacent_seeds_are_uncorrelated(self):
        cfg = ScenarioConfig()
        truth = generate_truth(cfg)
        fixes = simulate_measurements(truth, cfg, range(cfg.base_seed, cfg.base_seed + 50))[0]
        noise = (fixes - truth.positions[cfg.fix_steps]).reshape(len(fixes), -1)
        pair_corrs = [
            abs(np.corrcoef(noise[i], noise[i + 1])[0, 1]) for i in range(len(noise) - 1)
        ]
        assert np.mean(pair_corrs) < 0.1


# How far the engine's vhd path may lie from run_scenario's, in meters: the
# per-axis float recurrence rounds the outage gains, and the per-axis
# transitions the means, differently from numpy's 6x6 products (measured:
# 9.1e-13 m over a 300 s outage, 1.1e-13 m on the default config).
VHD_ATOL = 1e-10

# The benchmark's bound on its designated run's distance from run_scenario's
# paths, in meters (perfbench/run.py's DESIGNATED_ATOL_M).
DESIGNATED_ATOL_M = 1e-9

# How far the per-axis outage covariances may lie from the reference
# beliefs' blocks, relative to each entry (measured: 3.2e-15).
COV_RTOL = 1e-13


def assert_records_equal(got, want, vhd_atol=0.0):
    """Records equal bit for bit, but for the vhd path and errors, which may
    differ by `vhd_atol` meters (the error by no more than the path)."""
    assert got.seed == want.seed
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.truth_xy, want.truth_xy)
    for name in PREDICTORS:
        atol = vhd_atol if name == "vhd" else 0.0
        np.testing.assert_allclose(got.paths[name], want.paths[name], rtol=0.0, atol=atol)
        np.testing.assert_allclose(got.errors[name], want.errors[name], rtol=0.0, atol=atol)


OVERFLOW = "the filter covariance is not finite at step {}: the config's values overflow the filter"
SINGULAR = "the filter innovation covariance is singular or not positive definite at step {}"
MEANS_OVERFLOW = "the filter means is not finite: the config's values overflow the filter"

# Configs that break the filter, each with the error run_block raises.
FILTER_ERRORS = {
    # The ukf covariance overflows first, in the outage.
    "sigma_jerk 1e151": (ScenarioConfig(sigma_jerk=1e151), OVERFLOW.format(925)),
    # Without process or accelerometer noise the acceleration variance is 0
    # after the first update, and the next step's innovation covariance is
    # singular.
    "sigma_jerk 0, accel_white_noise 0": (
        ScenarioConfig(sigma_jerk=0.0, accel_white_noise=0.0),
        SINGULAR.format(2),
    ),
    # These two fail while tracking in the other two ways: a covariance
    # entry overflows, or, with exact fixes, the position variance after the
    # accelerometer update rounds to -6.9e-17, and the fix's innovation
    # variance at step 50 is that residue (numpy's 6x6 products left one of
    # the other sign until step 60).
    "sigma_jerk and sensor noises 1.3e154": (
        ScenarioConfig(sigma_jerk=1.3e154, position_fix_noise=1.3e154, accel_white_noise=1.3e154),
        OVERFLOW.format(11),
    ),
    "sigma_jerk 0, exact fixes, accel_white_noise 1e150": (
        dataclasses.replace(SMALL, sigma_jerk=0.0, position_fix_noise=0.0, accel_white_noise=1e150),
        SINGULAR.format(50),
    ),
}

# No process noise and a virtual-fix variance below rounding: the vhd
# covariance collapses to rounding level within five outage steps, and the
# schedule finds s < 0 at step 605, where exact arithmetic keeps s > 0.
COLLAPSE = ScenarioConfig(sigma_jerk=0.0, r_base=1e-31)


def plain_chain_failure(cfg):
    """The error a plain 6x6 `predict`/`update` chain from the initial
    belief meets, in the schedule's words, or None: the tracking updates,
    then the ukf and vhd outage chains from the chain's own onset belief.
    It shares nothing with the schedule; readings of 0 do not enter the
    covariances."""
    model = ca_model(cfg.dt, cfg.sigma_jerk)
    fix_steps = set(cfg.fix_steps.tolist())
    R_imu = np.diag([cfg.accel_white_noise**2] * 2)
    R_fix = np.diag([cfg.position_fix_noise**2] * 2)
    belief = GaussianBelief(np.zeros(6), np.diag([1.0, 0.25, 0.04] * 2))
    step = 0
    try:
        with np.errstate(all="ignore"):
            for step in range(1, cfg.onset_step + 1):
                belief = update(predict(belief, model), np.zeros(2), R_imu, accel_measurement_matrix())
                if step in fix_steps:
                    belief = update(belief, np.zeros(2), R_fix, model.H)
            ukf = vhd = belief
            for k in range(1, cfg.outage_steps + 1):
                step = cfg.onset_step + k
                ukf = predict(ukf, model)
                vhd = update(predict(vhd, model), np.zeros(2), adaptive_noise(cfg, k * cfg.dt), model.H)
    except np.linalg.LinAlgError:
        return SINGULAR.format(step)
    except ValueError:
        return OVERFLOW.format(step)
    return None


# Each FILTER_ERRORS config, and COLLAPSE, with the step at which
# `plain_chain_failure` meets the same error. Where a covariance overflows
# or s is exactly 0 it is the schedule's step; where s is a rounding
# residue, numpy's products and the schedule's floats reach a negative one
# at different steps (60 against 50, 604 against 605).
CHAIN_FAILURES = {
    "sigma_jerk 1e151": (*FILTER_ERRORS["sigma_jerk 1e151"], 925),
    "sigma_jerk 0, accel_white_noise 0": (*FILTER_ERRORS["sigma_jerk 0, accel_white_noise 0"], 2),
    "sigma_jerk and sensor noises 1.3e154": (*FILTER_ERRORS["sigma_jerk and sensor noises 1.3e154"], 11),
    "sigma_jerk 0, exact fixes, accel_white_noise 1e150": (
        *FILTER_ERRORS["sigma_jerk 0, exact fixes, accel_white_noise 1e150"],
        60,
    ),
    "sigma_jerk 0, r_base 1e-31": (COLLAPSE, SINGULAR.format(605), 604),
}

TRUTH = "the truth is not finite at step {}: the config's trajectory or current overflows it"

# Configs whose truth is not finite, each with the error run_block raises.
TRUTH_ERRORS = {
    # v / w overflows, so the arc is not finite from the turn's first step on.
    "turn_rate 2.2250738585e-313": (
        ScenarioConfig(turn_rate=2.2250738585e-313),
        TRUTH.format(451),
    ),
    # The drift overflows the positions.
    "current_speed 1e307": (ScenarioConfig(current_speed=1e307), TRUTH.format(255)),
}


# The accelerometer bias walk overflows from step 3 of seed 1234 (step 10
# of seed 7).
STREAM_OVERFLOW = ScenarioConfig(accel_bias_walk=7e307)
STREAM = "the accelerometer readings are not finite at step 3: the config's sensor values overflow them"

# Every config that breaks the filter, the truth, a sensor stream or the
# window fit, with the error run_block raises on its base seed.
ENGINE_ERRORS = {
    **FILTER_ERRORS,
    **TRUTH_ERRORS,
    "sigma_jerk 0, r_base 1e-31": (COLLAPSE, SINGULAR.format(605)),
    "accel_bias_walk 7e307": (STREAM_OVERFLOW, STREAM),
    # The tracked window is finite, but its fit overflows.
    "cruise_speed 1e306": (ScenarioConfig(cruise_speed=1e306), MEANS_OVERFLOW),
}

# The engine on a block of seeds 1234 and 7, and the reference on seed 1234,
# which fail alike before the outage.
ONSET_RUNS = {
    "run_block": lambda cfg: run_block(cfg, [1234, 7]),
    "run_scenario": lambda cfg: run_scenario(cfg, 1234),
}


class TestRunBlock:
    @pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
    def test_records_equal_run_scenario(self, name):
        cfg = ENGINE_CONFIGS[name]
        seeds = [1234, 7, 4242]
        block = run_block(cfg, seeds)
        np.testing.assert_array_equal(block.seed, seeds)
        for k, seed in enumerate(seeds):
            assert_records_equal(block.run(k), run_scenario(cfg, seed), vhd_atol=VHD_ATOL)

    @pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
    def test_onset_covariance_is_two_equal_axis_blocks(self, name):
        # The per-axis outage schedule rests on this: F, Q and the outage
        # updates keep two equal blocks and a zero cross block, so one
        # block's six entries carry both axes.
        cfg = ENGINE_CONFIGS[name]
        cov = track_to_outage(cfg, cfg.base_seed).belief.cov
        np.testing.assert_array_equal(cov[:3, :3], cov[3:, 3:])
        np.testing.assert_array_equal(cov[:3, 3:], 0.0)
        np.testing.assert_array_equal(cov[3:, :3], 0.0)

    @pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
    def test_tracking_gains_are_one_row_per_update(self, name):
        # Step i's row holds its accelerometer gain, and on a fix step the
        # next row holds its fix gain; every row is some update's.
        cfg = ENGINE_CONFIGS[name]
        gains, covs, acc_rows, fix_rows = simkit._tracking_schedule(cfg, ca_model(cfg.dt, cfg.sigma_jerk))
        assert acc_rows.shape == fix_rows.shape == (cfg.onset_step,)
        assert gains.shape == (len(covs), 3) and covs.shape == (len(covs), 6)
        # The steps with a fix row are the config's fix steps, and each fix
        # row follows its step's accelerometer row.
        np.testing.assert_array_equal(np.flatnonzero(fix_rows >= 0) + 1, cfg.fix_steps)
        fixes = fix_rows[cfg.fix_steps - 1]
        np.testing.assert_array_equal(fixes, acc_rows[cfg.fix_steps - 1] + 1)
        assert set(acc_rows.tolist()) | set(fixes.tolist()) == set(range(len(gains)))
        assert not set(acc_rows.tolist()) & set(fixes.tolist())
        replayed = [i for i in range(1, cfg.onset_step + 1) if acc_rows[i - 1] in acc_rows[: i - 1]]
        if name == "onset 100 s":
            # The covariance at the end of fix period 79 (step 790) is the one
            # at the end of period 77, so each later full period up to the last
            # fix (990) takes the rows of the period two before it; the steps
            # after the last fix are computed.
            assert replayed == list(range(791, 991))
            np.testing.assert_array_equal(acc_rows[790:990], acc_rows[770:970])
            np.testing.assert_array_equal(fix_rows[790:990], fix_rows[770:970])
        elif name not in ("onset 100.5 s", "fix_rate 2, onset 100 s", "dt 1, fix_rate 0.5", "dt 0.5, onset 60.5 s"):
            # Those replay a cycle too (with 1 s steps from step 33, with 0.5 s
            # steps from step 67). The other tracks end before a period's start
            # repeats, or, without process noise, the covariance keeps
            # shrinking and never repeats.
            assert replayed == []

    @pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
    def test_tracking_maps_are_the_folded_predict_and_updates(self, name):
        # A step's map is [M | k_acc | 0] with numpy's M = (I - k_acc e2^T) F,
        # bit for bit, which `_fold` writes out as F less k_acc times F's row
        # 2; on a fix step the fix's (I - k_fix e0^T) multiplies [M | k_acc]
        # (`_fold` subtracts k_fix times row 0: within 4 eps of the row) and
        # k_fix is column 4. One map per schedule row, the identity last.
        cfg = ENGINE_CONFIGS[name]
        model = ca_model(cfg.dt, cfg.sigma_jerk)
        gains, covs, acc_rows, fix_rows = simkit._tracking_schedule(cfg, model)
        maps, rows, onset = simkit._tracking_maps(cfg, model)
        assert rows.shape == (cfg.onset_step,) and len(maps) == len(gains) + 1
        np.testing.assert_array_equal(maps[-1], np.eye(3, 5))
        np.testing.assert_array_equal(onset, covs[-1])
        k = gains[acc_rows]
        want = np.zeros((cfg.onset_step, 3, 5))
        want[:, :, :3] = (np.eye(3) - k[:, :, None] * np.eye(3)[2]) @ model.F[:3, :3]
        want[:, :, 3] = k
        plain = fix_rows < 0
        np.testing.assert_array_equal(maps[rows[plain]], want[plain])
        k_fix = gains[fix_rows[~plain]]
        want[~plain, :, :4] = (np.eye(3) - k_fix[:, :, None] * np.eye(3)[0]) @ want[~plain, :, :4]
        want[~plain, :, 4] = k_fix
        atol = 4 * np.finfo(float).eps * np.abs(want[~plain]).max(axis=-1, keepdims=True)
        assert np.all(np.abs(maps[rows[~plain]] - want[~plain]) <= atol)

    def test_converged_tracking_gains_are_replayed(self, monkeypatch):
        cfg = ENGINE_CONFIGS["onset 100 s"]
        calls = []
        axis_fix = simkit._axis_fix

        def counted_axis_fix(*args):
            calls.append(args)
            return axis_fix(*args)

        monkeypatch.setattr(simkit, "_axis_fix", counted_axis_fix)
        simkit._tracking_schedule(cfg, ca_model(cfg.dt, cfg.sigma_jerk))
        # Computing every tracking step takes one update per step plus one per
        # fix (1099 here). The replayed periods take none: fix periods 1 .. 79
        # are computed, and period 79 ends where period 77 did; so are the
        # steps after the last fix (879 in all).
        computed = 79 * (cfg.fix_period_steps + 1) + cfg.onset_step - cfg.fix_steps[-1]
        assert len(calls) == computed < cfg.onset_step + cfg.fix_steps.size

    @pytest.mark.parametrize("name", list(ENGINE_CONFIGS))
    def test_tracking_covariances_equal_the_reference_beliefs(self, name):
        # Every row's per-axis entries equal both 3x3 blocks of a plain
        # predict/update chain's 6x6 covariances to COV_RTOL, and the cross
        # blocks are 0; readings of 0 do not enter the covariances.
        cfg = ENGINE_CONFIGS[name]
        model = ca_model(cfg.dt, cfg.sigma_jerk)
        _, covs, acc_rows, fix_rows = simkit._tracking_schedule(cfg, model)
        fix_steps = set(cfg.fix_steps.tolist())
        R_imu = np.diag([cfg.accel_white_noise**2] * 2)
        R_fix = np.diag([cfg.position_fix_noise**2] * 2)
        belief = GaussianBelief(np.zeros(6), np.diag([1.0, 0.25, 0.04] * 2))
        got, ref = [], []
        for i, (row, fix) in enumerate(zip(acc_rows.tolist(), fix_rows.tolist()), 1):
            belief = update(predict(belief, model), np.zeros(2), R_imu, accel_measurement_matrix())
            got.append(covs[row])
            ref.append(belief.cov)
            if i in fix_steps:
                belief = update(belief, np.zeros(2), R_fix, model.H)
                got.append(covs[fix])
                ref.append(belief.cov)
        ref = np.array(ref)
        np.testing.assert_array_equal(ref[:, :3, 3:], 0.0)
        for block in (ref[:, :3, :3], ref[:, 3:, 3:]):
            want = np.stack([block[:, a, b] for a, b in simkit._AXIS_ENTRIES], axis=-1)
            np.testing.assert_allclose(np.array(got), want, rtol=COV_RTOL, atol=0.0)

    def test_a_block_is_fitted_and_recorded_once(self, monkeypatch):
        names = ("generate_truth", "fit_polynomial", "lagrange_extrapolate", "_window", "_record")
        counts = collections.Counter()
        for name in names:
            def counted(*args, _name=name, _call=getattr(simkit, name)):
                counts[_name] += 1
                return _call(*args)

            monkeypatch.setattr(simkit, name, counted)
        assert run_block(SMALL, range(12)).seed.shape == (12,)
        assert counts == dict.fromkeys(names, 1)

    def test_row_is_independent_of_the_batch_size(self):
        seeds = range(SMALL.base_seed, SMALL.base_seed + 12)
        full = run_block(SMALL, seeds)
        assert full.seed.shape == (12,)
        for size in (1, 7):
            block = run_block(SMALL, seeds[:size])
            assert block.seed.shape == (size,)
            for k in range(size):
                assert_records_equal(block.run(k), full.run(k))

    def test_pool_seed_blocks_equal_serial_rows(self):
        seeds = range(SMALL.base_seed, SMALL.base_seed + SMALL.mc_runs)
        pooled = [block.run(k) for block in _run_seeds(SMALL, jobs=3) for k in range(block.seed.size)]
        assert [rec.seed for rec in pooled] == list(seeds)
        serial = run_block(SMALL, seeds)
        for k, got in enumerate(pooled):
            assert_records_equal(got, serial.run(k))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("noise", [9.5e153, 1.3e154])
    @pytest.mark.parametrize("name", ["position_fix_noise", "accel_white_noise"])
    def test_noise_above_half_the_float_range_squared_does_not_overflow(self, name, noise):
        # The squared noise enters the innovation covariance above half the
        # float range; symmetrizing it must not overflow on the reference path.
        cfg = dataclasses.replace(SMALL, **{name: noise})
        rec = run_scenario(cfg, SMALL.base_seed)
        assert_records_equal(run_block(cfg, [SMALL.base_seed]).run(0), rec, vhd_atol=VHD_ATOL)

    def test_the_long_outage_run_is_the_reference_run_within_the_bench_tolerance(self):
        # The benchmark's long_blackout geometry and seed: 300 s of composed
        # vhd blocks stay within the bench's designated-run bound of the
        # reference's 6x6 steps (measured: 1.1e-12 m), and the ukf and
        # lagrange paths are the reference's bit for bit.
        got = run_block(LONG_BLACKOUT, [1234]).run(0)
        assert_records_equal(got, run_scenario(LONG_BLACKOUT, 1234), vhd_atol=DESIGNATED_ATOL_M)

    def test_virtual_fixes_that_overflow_raise_at_the_outage_means_check(self, monkeypatch):
        # At 1e306 m/s the tracked window is finite, but its fit's normal
        # equations overflow, so the virtual fixes and the vhd block starts
        # and positions are not.
        windows = []

        def fit(window, degree, _fit=simkit.fit_polynomial):
            windows.append(window)
            return _fit(window, degree)

        monkeypatch.setattr(simkit, "fit_polynomial", fit)
        with pytest.raises(ConfigError) as info:
            run_block(ScenarioConfig(cruise_speed=1e306), [1234, 7])
        assert str(info.value) == MEANS_OVERFLOW
        assert len(windows) == 1 and np.isfinite(windows[0].states).all()

    @pytest.mark.parametrize("name", ["default", "outage 0.1 s", "outage 40.7 s"])
    def test_a_last_virtual_fix_that_is_not_finite_raises_at_the_outage_means_check(self, monkeypatch, name):
        # Only the last step's position, and the last block's end, are NaN:
        # the check covers the tail of the last block.
        class LastFixNaN:
            def __init__(self, poly):
                self.poly, self.window_end = poly, poly.window_end

            def position(self, t):
                z = self.poly.position(t)
                z[..., -1, :] = np.nan
                return z

        fit = simkit.fit_polynomial
        monkeypatch.setattr(simkit, "fit_polynomial", lambda window, degree: LastFixNaN(fit(window, degree)))
        with pytest.raises(ConfigError) as info:
            run_block(ENGINE_CONFIGS[name], [1234])
        assert str(info.value) == MEANS_OVERFLOW

    def test_filter_overflow_raises_config_error(self):
        with pytest.raises(ConfigError, match="not finite"):
            run_block(ScenarioConfig(sigma_jerk=1e151), [1234])

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def drawn(*args):
            raise AssertionError("the truth or a sensor stream was drawn")

        monkeypatch.setattr(simkit, "generate_truth", drawn)
        monkeypatch.setattr(simkit, "simulate_measurements", drawn)

    @pytest.fixture
    def no_streams(self, monkeypatch):
        def drawn(*args):
            raise AssertionError("a sensor stream was drawn")

        monkeypatch.setattr(simkit, "simulate_measurements", drawn)

    @pytest.mark.parametrize("run", list(ONSET_RUNS))
    @pytest.mark.parametrize(("cfg", "message"), list(TRUTH_ERRORS.values()), ids=list(TRUTH_ERRORS))
    def test_a_truth_that_is_not_finite_raises_before_any_stream_is_drawn(self, no_streams, cfg, message, run):
        with pytest.raises(ConfigError) as info:
            ONSET_RUNS[run](cfg)
        assert str(info.value) == message

    @pytest.mark.parametrize("run", list(ONSET_RUNS))
    def test_a_stream_that_is_not_finite_raises_before_any_tracking(self, monkeypatch, run):
        def tracked(*args):
            raise AssertionError("the block was tracked")

        monkeypatch.setattr(simkit, "_window", tracked)
        with pytest.raises(ConfigError) as info:
            ONSET_RUNS[run](STREAM_OVERFLOW)
        assert str(info.value) == STREAM

    # The suite turns a RuntimeWarning into an error, so neither run may warn
    # on its way to the error either.
    @pytest.mark.parametrize("name", list(ENGINE_ERRORS))
    def test_the_reference_raises_the_engine_error(self, name):
        cfg, message = ENGINE_ERRORS[name]
        for run in (lambda: run_block(cfg, [cfg.base_seed]), lambda: run_scenario(cfg, cfg.base_seed)):
            with pytest.raises(ConfigError) as info:
                run()
            assert str(info.value) == message

    def test_filter_overflow_raises_before_any_draw(self, no_draws):
        with pytest.raises(ConfigError, match="not finite"):
            run_block(ScenarioConfig(sigma_jerk=1e151), [1234])

    # The schedule checks each phase's table with one mask; the error must
    # still name the step and the check at which checking each covariance as
    # it is computed would have stopped.
    @pytest.mark.parametrize(("cfg", "message"), list(FILTER_ERRORS.values()), ids=list(FILTER_ERRORS))
    def test_a_filter_error_names_its_step_before_any_draw(self, no_draws, cfg, message):
        with pytest.raises(ConfigError) as info:
            run_block(cfg, [1234])
        assert str(info.value) == message

    @pytest.mark.parametrize(
        ("cfg", "reference_error"),
        [
            *((cfg, ConfigError) for cfg, _ in FILTER_ERRORS.values()),
            *((cfg, ConfigError) for cfg, _ in TRUTH_ERRORS.values()),
            # The vhd covariance collapses to rounding level, where the sign
            # of s is set by the last bits: the reference fails at step 605
            # by the engine's check of its outage covariances, and a plain
            # 6x6 chain at step 604 (see CHAIN_FAILURES).
            (COLLAPSE, ConfigError),
            (ScenarioConfig(position_fix_noise=9.5e153), None),
            (STREAM_OVERFLOW, ConfigError),
            # The window's fit overflows, and so the virtual fixes: the
            # engine's means check raises ConfigError, and the reference's
            # check of its virtual fixes, before its first update, raises it.
            (ScenarioConfig(cruise_speed=1e306), ConfigError),
        ],
        ids=[*FILTER_ERRORS, *TRUTH_ERRORS, "sigma_jerk 0, r_base 1e-31", "position_fix_noise 9.5e153",
             "accel_bias_walk 7e307", "cruise_speed 1e306"],
    )
    def test_the_engine_fails_where_the_reference_fails(self, cfg, reference_error):
        def raised(run):
            try:
                run()
            except (ConfigError, ValueError) as error:
                return type(error)
            return None

        engine = raised(lambda: run_block(cfg, [cfg.base_seed]))
        reference = raised(lambda: run_scenario(cfg, cfg.base_seed))
        assert engine is (None if reference_error is None else ConfigError)
        assert reference is reference_error

    @pytest.mark.parametrize("name", list(CHAIN_FAILURES))
    def test_a_plain_chain_fails_as_the_schedule_does(self, name):
        # The same error as the engine's, at the chain's step; the engine's
        # own message is held by the two tests above.
        cfg, message, step = CHAIN_FAILURES[name]
        assert plain_chain_failure(cfg) == re.sub(r"at step \d+", f"at step {step}", message)

    @pytest.mark.parametrize("bad_step", [1, 123, 400])
    def test_a_non_finite_vhd_noise_names_its_outage_step(self, monkeypatch, no_draws, bad_step):
        cfg = ScenarioConfig()
        variance = simkit.adaptive_variance

        def variance_with_nan(params, elapsed):
            r = variance(params, elapsed)
            return r * np.nan if round(elapsed / cfg.dt) == bad_step else r

        monkeypatch.setattr(simkit, "adaptive_variance", variance_with_nan)
        with pytest.raises(ConfigError) as info:
            run_block(cfg, [1234])
        assert str(info.value) == OVERFLOW.format(cfg.onset_step + bad_step)

    def test_an_outage_solve_that_finds_s_singular_names_its_step(self, monkeypatch, no_draws):
        # A variance of minus the predicted position variance makes s exactly
        # 0, so the step's gain is NaN and the check of s names the step.
        cfg, bad_step = ScenarioConfig(), 123
        model = ca_model(cfg.dt, cfg.sigma_jerk)
        onset = simkit._tracking_maps(cfg, model)[2]
        before = simkit._outage_schedule(cfg, model, onset)[1][bad_step - 2, 1]
        p00 = simkit._axis_predicted(tuple(before.tolist()), *simkit._axis_model(model))[0]
        variance = simkit.adaptive_variance

        def cancelling_variance(params, elapsed):
            return -p00 if round(elapsed / cfg.dt) == bad_step else variance(params, elapsed)

        monkeypatch.setattr(simkit, "adaptive_variance", cancelling_variance)
        with pytest.raises(ConfigError) as info:
            run_block(cfg, [1234])
        assert str(info.value) == SINGULAR.format(cfg.onset_step + bad_step)

    @pytest.mark.parametrize("name", [*ENGINE_CONFIGS, "long_blackout"])
    def test_outage_schedule_equals_the_plain_chain(self, name):
        # Every vhd gain and covariance bit for bit, at each power of the
        # noise law: each step's variance is a scalar adaptive_variance.
        cfg = {**ENGINE_CONFIGS, "long_blackout": LONG_BLACKOUT}[name]
        model = ca_model(cfg.dt, cfg.sigma_jerk)
        onset = simkit._tracking_maps(cfg, model)[2]
        gains, covs = simkit._outage_schedule(cfg, model, onset)
        plain = plain_outage_updates(cfg, onset)
        assert gains.tolist() == [list(gain) for gain, _ in plain]
        assert covs[:, 1].tolist() == [list(cov) for _, cov in plain]

    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig(),
            ScenarioConfig(duration=360.0, outage_duration=300.0),
            ENGINE_CONFIGS["sigma_jerk 0, onset 100 s"],
            ENGINE_CONFIGS["fix_rate 2"],
        ],
        ids=["default", "300 s outage", "sigma_jerk 0, onset 100 s", "fix_rate 2"],
    )
    def test_outage_covariances_equal_the_reference_beliefs(self, cfg):
        # Every step's per-axis entries equal both 3x3 blocks of the
        # reference's 6x6 beliefs to COV_RTOL, and the cross blocks are 0.
        model = ca_model(cfg.dt, cfg.sigma_jerk)
        covs = simkit._outage_schedule(cfg, model, simkit._tracking_maps(cfg, model)[2])[1]
        onset = track_to_outage(cfg, cfg.base_seed)
        T = cfg.outage_steps
        ukf = open_loop_predict(onset.belief, model, T)
        vhd = run_outage(onset.belief, onset.window, cfg, T, model)
        assert covs.shape == (T, 2, 6)
        for j, beliefs in enumerate((ukf, vhd)):
            ref = np.array([b.cov for b in beliefs])
            np.testing.assert_array_equal(ref[:, :3, 3:], 0.0)
            for block in (ref[:, :3, :3], ref[:, 3:, 3:]):
                want = np.stack([block[:, a, b] for a, b in simkit._AXIS_ENTRIES], axis=-1)
                np.testing.assert_allclose(covs[:, j], want, rtol=COV_RTOL, atol=0.0)


class TestCompose:
    def test_identity_padding_keeps_a_mean_bit_exact(self):
        # An onset off the window grid pads the first period with one
        # identity step: its map is the first step's, bit for bit, with zero
        # columns for the padding step's readings. Identity steps alone map
        # [m; readings] to m bit for bit.
        cfg = ENGINE_CONFIGS["dt 0.5, onset 60.5 s"]
        maps, rows, _ = simkit._tracking_maps(cfg, ca_model(cfg.dt, cfg.sigma_jerk))
        composed, segment = simkit._compose(maps, rows, cfg.window_period_steps)
        assert cfg.window_period_steps == 2 and len(segment) == (cfg.onset_step + 1) // 2
        first = maps[rows[0]]
        np.testing.assert_array_equal(composed[segment[0]], np.hstack([first[:, :3], np.zeros((3, 2)), first[:, 3:]]))
        identity, segment = simkit._compose(maps, np.full(6, -1), 3)
        assert segment == [0, 0]
        m = np.array([1234.5678, -0.123, 3e-7])
        column = np.r_[m, np.random.default_rng(5).normal(size=6)][:, None]
        np.testing.assert_array_equal(identity[0] @ column, m[:, None])

    @pytest.mark.parametrize("name", ["default", "fix_rate 0.4", "dt 0.05", "dt 0.5, onset 60.5 s"])
    def test_a_composed_segment_equals_its_steps_one_at_a_time(self, name):
        # Every period's composed map, applied to [m; readings], equals its
        # step maps applied one at a time, identity padding first, within 8
        # eps of the sum of the magnitudes of the composed product's terms.
        cfg = ENGINE_CONFIGS[name]
        c = cfg.window_period_steps
        maps, rows, _ = simkit._tracking_maps(cfg, ca_model(cfg.dt, cfg.sigma_jerk))
        composed, segment = simkit._compose(maps, rows, c)
        padded = np.r_[np.full(len(segment) * c - len(rows), -1), rows].reshape(-1, c)
        rng = np.random.default_rng(11)
        for period, s in zip(padded, segment):
            m, readings = rng.normal(0.0, 100.0, size=3), rng.normal(size=(c, 2))
            want = m
            for row, z in zip(period, readings):
                want = maps[row] @ np.r_[want, z]
            column = np.r_[m, readings.ravel()]
            bound = 8 * np.finfo(float).eps * (np.abs(composed[s]) @ np.abs(column))
            assert np.all(np.abs(composed[s] @ column - want) <= bound)

    @pytest.mark.parametrize(
        ("cfg", "periods", "distinct"),
        [(ScenarioConfig(), 60, 60), (ScenarioConfig(outage_start=1000.0, duration=1040.0), 1000, 80)],
        ids=["default", "1000 s track"],
    )
    def test_each_distinct_segment_is_composed_once(self, cfg, periods, distinct):
        # The 1000 s track replays the 2-cycle of fix periods 78 and 79, so
        # its 1000 periods take 80 distinct segments of 23 columns.
        maps, rows, _ = simkit._tracking_maps(cfg, ca_model(cfg.dt, cfg.sigma_jerk))
        composed, segment = simkit._compose(maps, rows, cfg.window_period_steps)
        assert len(segment) == periods and composed.shape == (distinct, 3, 23)
        assert sorted(set(segment)) == list(range(distinct))


def vhd_outage_maps(cfg):
    """The per-axis (T + 1, 3, 4) maps [(I - k e0^T) F | k] of the vhd
    outage steps, by numpy's products of the schedule's gains k, the
    identity last."""
    model = ca_model(cfg.dt, cfg.sigma_jerk)
    gains = simkit._outage_schedule(cfg, model, simkit._tracking_maps(cfg, model)[2])[0]
    maps = [np.hstack([(np.eye(3) - np.outer(k, np.eye(3)[0])) @ model.F[:3, :3], k[:, None]]) for k in gains]
    return np.stack(maps + [np.eye(3, 4)])


class TestOutageBlocks:
    def test_outage_block_padding_keeps_a_start_mean_bit_exact(self):
        # 407 steps pad the first block with 3 identity steps: their prefix
        # rows take [m; z] to m's position bit for bit, and their readings'
        # columns are 0. Identity steps alone map [m; z] to m bit for bit.
        cfg, B = ENGINE_CONFIGS["outage 40.7 s"], simkit._OUTAGE_BLOCK
        blocks, prefix = simkit._gain_schedule(cfg, ca_model(cfg.dt, cfg.sigma_jerk))[2:4]
        pad = -cfg.outage_steps % B
        assert pad == 3 and blocks.shape == (41, 3, 3 + B) and prefix.shape == (41, B, 3 + B)
        np.testing.assert_array_equal(blocks[0, :, 3 : 3 + pad], 0.0)
        np.testing.assert_array_equal(prefix[0, :, 3 : 3 + pad], 0.0)
        m = np.array([1234.5678, -0.123, 3e-7])
        column = np.r_[m, np.random.default_rng(5).normal(size=B)]
        np.testing.assert_array_equal(prefix[0, :pad] @ column, m[0])
        identity, segment, firsts = simkit._compose(vhd_outage_maps(cfg), np.full(2 * B, -1), B, prefix=True)
        assert segment == [0, 0]
        np.testing.assert_array_equal(identity[0] @ column, m)
        np.testing.assert_array_equal(firsts[0] @ column, m[0])

    @pytest.mark.parametrize("name", ["default", "outage 0.1 s", "outage 40.7 s"])
    def test_outage_block_prefix_rows_equal_the_steps_one_at_a_time(self, name):
        # Each block's prefix row t, applied to [m; z], equals its step maps
        # applied one at a time up to step t, padding first, and the block's
        # map equals them all, within 8 eps of the sum of the magnitudes of
        # the composed product's terms. Every block is distinct, in order.
        cfg, B = ENGINE_CONFIGS[name], simkit._OUTAGE_BLOCK
        maps, T = vhd_outage_maps(cfg), cfg.outage_steps
        blocks, segment, prefix = simkit._compose(maps, np.arange(T), B, prefix=True)
        assert segment == list(range(-(-T // B)))
        padded = np.r_[np.full(len(segment) * B - T, -1), np.arange(T)].reshape(-1, B)
        rng = np.random.default_rng(11)
        eps = np.finfo(float).eps
        for rows, block, firsts in zip(padded, blocks, prefix):
            m, z = rng.normal(0.0, 100.0, size=3), rng.normal(0.0, 100.0, size=B)
            column, want = np.r_[m, z], m
            for row, zt, first in zip(rows, z, firsts):
                want = maps[row] @ np.r_[want, zt]
                assert abs(first @ column - want[0]) <= 8 * eps * (np.abs(first) @ np.abs(column))
            assert np.all(np.abs(block @ column - want) <= 8 * eps * (np.abs(block) @ np.abs(column)))


# The closed-form ukf outage on every engine geometry and over 300 s.
OPEN_LOOP_CONFIGS = {**ENGINE_CONFIGS, "long_blackout": LONG_BLACKOUT}


class TestOpenLoop:
    @pytest.mark.parametrize("name", list(OPEN_LOOP_CONFIGS))
    def test_open_loop_positions_are_the_predict_chain(self, name):
        # The positions that run_block and run_scenario share, against
        # numpy's 6x6 predict chain.
        cfg = OPEN_LOOP_CONFIGS[name]
        onset = track_to_outage(cfg, 1234)
        assert_open_loop_chain(cfg, simkit._open_loop_positions(cfg, onset.belief.mean), onset)

    @pytest.mark.parametrize("name", list(OPEN_LOOP_CONFIGS))
    def test_open_loop_covariances_are_the_float_recurrence(self, name):
        # The schedule's closed-form ukf entries, against `_axis_predicted`
        # stepped once per outage step in floats, to COV_RTOL.
        cfg = OPEN_LOOP_CONFIGS[name]
        model = ca_model(cfg.dt, cfg.sigma_jerk)
        onset = simkit._tracking_maps(cfg, model)[2]
        covs = simkit._outage_schedule(cfg, model, onset)[1][:, 0]
        f, q = simkit._axis_model(model)
        cov, want = tuple(onset.tolist()), []
        for _ in range(cfg.outage_steps):
            cov = simkit._axis_predicted(cov, f, q)
            want.append(cov)
        np.testing.assert_allclose(covs, want, rtol=COV_RTOL, atol=0.0)


class TestMonteCarlo:
    def test_single_run_aggregate_equals_the_run(self):
        cfg = ScenarioConfig(
            duration=SMALL.duration,
            outage_start=SMALL.outage_start,
            outage_duration=SMALL.outage_duration,
            history_window=SMALL.history_window,
            mc_runs=1,
            base_seed=SMALL.base_seed,
            turn_start=SMALL.turn_start,
            turn_duration=SMALL.turn_duration,
        )
        out = monte_carlo(cfg)
        rec = run_scenario(cfg, cfg.base_seed)
        for name in PREDICTORS:
            # as in assert_records_equal; the RMSE and the terminal error lie
            # no farther apart than the error series
            atol = VHD_ATOL if name == "vhd" else 0.0
            np.testing.assert_allclose(out.mean_err[name], rec.errors[name], rtol=0.0, atol=atol)
            assert out.rmse_m[name] == pytest.approx(rmse(rec.errors[name]), rel=0.0, abs=atol)
            assert out.terminal_mean_m[name] == pytest.approx(rec.errors[name][-1], rel=0.0, abs=atol)

    def test_aggregates_match_the_underlying_records(self, default_mc, default_block):
        stacked = default_block.errors["vhd"]
        np.testing.assert_array_equal(default_mc.result.mean_err["vhd"], stacked.mean(axis=0))
        assert default_mc.result.rmse_m["vhd"] == rmse(stacked)

    def test_reduction_definition(self, default_mc):
        res = default_mc.result
        assert set(res.reduction_vs_ukf_pct) == {"lagrange", "vhd"}
        want = 100.0 * (1.0 - res.rmse_m["vhd"] / res.rmse_m["ukf"])
        assert res.reduction_vs_ukf_pct["vhd"] == want

    def test_two_calls_are_bit_identical(self):
        a = monte_carlo(SMALL)
        b = monte_carlo(SMALL)
        for name in PREDICTORS:
            np.testing.assert_array_equal(a.mean_err[name], b.mean_err[name])
            assert a.rmse_m[name] == b.rmse_m[name]

    def test_parallel_equals_serial(self):
        serial = monte_carlo(SMALL, jobs=1)
        parallel = monte_carlo(SMALL, jobs=3)
        for name in PREDICTORS:
            np.testing.assert_array_equal(serial.mean_err[name], parallel.mean_err[name])
            assert serial.rmse_m[name] == parallel.rmse_m[name]
            assert serial.terminal_mean_m[name] == parallel.terminal_mean_m[name]

    def test_zero_ukf_rmse_has_no_reduction(self, exact_ukf):
        # Every ukf error is 0: there is no baseline RMSE to reduce, and the
        # writers print "--" for each reduction.
        result = monte_carlo(SMALL)
        assert result.rmse_m["ukf"] == 0.0
        assert result.reduction_vs_ukf_pct == {}
        payload = _summary_payload(SMALL, result, PREDICTORS)
        for row in _summary_text(payload).splitlines()[-len(PREDICTORS):]:
            assert row.split()[-1] == "--"
        assert not any("reduction_vs_ukf_pct" in entry for entry in payload["predictors"].values())

    @pytest.mark.parametrize(("heading", "speed"), [(0.0, 2.0), (0.0, 2.7), (1.2, 1.5)])
    def test_a_noise_free_ukf_path_is_the_truth_within_rounding(self, heading, speed):
        # No current, no sensor noise and no turn: the open-loop path is the
        # truth but for rounding. The truth sums each step's rounded move,
        # and the closed form rounds once from the onset mean, so the ukf
        # RMSE is within T eps of the largest truth coordinate (fixed before
        # measuring; these geometries read at most 0.28 of it).
        exact = dataclasses.replace(
            SMALL,
            current_speed=0.0,
            position_fix_noise=0.0, accel_white_noise=0.0, accel_bias_walk=0.0,
            turn_rate=0.0, initial_heading=heading, cruise_speed=speed,
        )
        result = monte_carlo(exact)
        truth_xy = result.designated_run.truth_xy
        assert result.rmse_m["ukf"] <= exact.outage_steps * np.finfo(float).eps * np.abs(truth_xy).max()

    def test_bad_job_count_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            monte_carlo(SMALL, jobs=0)

    def test_a_workers_error_reaches_the_parent_unchanged(self, worker_pipes):
        cfg = ScenarioConfig(sigma_jerk=1e151, mc_runs=4)
        with pytest.raises(ConfigError) as serial:
            monte_carlo(cfg)
        with pytest.raises(ConfigError) as pooled:
            monte_carlo(cfg, jobs=2)
        assert str(pooled.value) == str(serial.value) == OVERFLOW.format(925)
        worker_pipes.assert_workers_gone(2)

    @pytest.mark.parametrize("end", ["exit", "unpicklable error"])
    def test_a_worker_that_sends_no_block_raises_in_the_parent(self, monkeypatch, worker_pipes, end):
        def no_block(cfg, seeds):
            if end == "exit":
                os._exit(1)
            raise ValueError(lambda: None)  # pickle cannot send it

        monkeypatch.setattr(simkit, "run_block", no_block)
        with pytest.raises(RuntimeError, match=r"a --jobs worker exited without its block \(wait status 256\)"):
            monte_carlo(SMALL, jobs=3)
        worker_pipes.assert_workers_gone(3)

    def test_designated_run_is_the_base_seed(self, default_mc, default_cfg):
        assert default_mc.result.designated_run.seed == default_cfg.base_seed

    def test_designated_run_keeps_no_block_array_alive(self):
        run = monte_carlo(dataclasses.replace(SMALL, mc_runs=50)).designated_run
        arrays = [run.times, run.truth_xy, *run.paths.values(), *run.errors.values()]
        for array in arrays:
            assert array.base is None or array.base.nbytes == array.nbytes

    def test_designated_run_of_a_pooled_batch_is_the_reference_run(self):
        designated = monte_carlo(SMALL, jobs=3).designated_run
        assert_records_equal(designated, run_scenario(SMALL, SMALL.base_seed), vhd_atol=VHD_ATOL)


class TestRmse:
    def test_three_four(self):
        assert rmse([3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_zeros(self):
        assert rmse(np.zeros(10)) == 0.0

    def test_constant(self):
        assert rmse(np.full(7, 2.5)) == pytest.approx(2.5)

    def test_pools_all_axes(self):
        grid = np.array([[3.0, 4.0], [3.0, 4.0]])
        assert rmse(grid) == rmse([3.0, 4.0, 3.0, 4.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse([])
