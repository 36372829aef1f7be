"""Scenario generation, sensor simulation, and Monte Carlo execution.

A run simulates a vehicle cruising, performing a coordinated turn, and
then losing its communication link for a fixed interval. Up to the
outage, a Kalman filter tracks the vehicle from noisy position fixes and
biased accelerometer readings while a sliding window collects its
estimates. At onset, three predictors branch from the same belief:

* ``ukf``      - open-loop prediction through the motion model
* ``lagrange`` - interpolating polynomial through the most recent window
                 nodes, evaluated forward
* ``vhd``      - virtual-measurement updates from the history polynomial
                 with adaptive confidence

Per-run randomness derives only from the run's seed, so runs are
independent and a Monte Carlo aggregate is identical whether the runs
execute serially or in parallel.

The filter covariance, and so every Kalman gain, depends on the config and
not on the data. `run_block` exploits that: it runs a block of seeds in
lockstep on one covariance recurrence, and each of its records equals
`run_scenario`'s for the same seed bit for bit. `run_scenario` is the
straightforward per-run reference that the tests compare it against.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .estimator import (
    GaussianBelief,
    _joseph_cov,
    _kalman_gain,
    _predicted_cov,
    open_loop_predict,
    predict,
    update,
)
from .history import Trajectory, fit_polynomial, lagrange_extrapolate
from .kinematics import (
    AX,
    AY,
    CaModel,
    Disturbance,
    PX,
    PY,
    STATE_DIM,
    accel_measurement_matrix,
    ca_model,
    make_state,
    propagate_truth,
)
from .outage import AdaptiveConfidenceParams, adaptive_noise, run_outage

PREDICTORS = ("ukf", "lagrange", "vhd")

# Initial belief covariance per axis: sigma 1 m, 0.5 m/s, 0.2 m/s^2.
_P0_DIAG = (1.0, 0.25, 0.04, 1.0, 0.25, 0.04)

_GRID_TOL = 1e-9


class ConfigError(Exception):
    """A config file or config value the run cannot proceed with."""


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SensorConfig:
    """Sensor noise magnitudes.

    position_fix_noise : std dev of each fix coordinate, meters.
    accel_white_noise  : accelerometer white noise std dev, m/s^2.
                         Both are squared into the filter's measurement
                         covariances, so each square must be finite.
    accel_bias_walk    : std dev of each per-step bias increment, m/s^2.
    fix_rate           : position fixes per second outside the outage.
    """

    position_fix_noise: float = 1.0
    accel_white_noise: float = 0.05
    accel_bias_walk: float = 0.005
    fix_rate: float = 1.0

    def __post_init__(self):
        for name in ("position_fix_noise", "accel_white_noise", "accel_bias_walk"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"SensorConfig invariant: {name} must be >= 0")
        for name in ("position_fix_noise", "accel_white_noise"):
            value = getattr(self, name)
            if not math.isfinite(value * value):
                raise ValueError(f"SensorConfig invariant: {name} squared must be finite")
        if self.fix_rate <= 0.0:
            raise ValueError("SensorConfig invariant: fix_rate must be > 0")


@dataclass(frozen=True)
class TrajectoryConfig:
    """Vehicle motion plan: straight cruise, one coordinated turn, straight.

    The turn covers [turn_start, turn_start + turn_duration) at a constant
    yaw rate; centripetal acceleration is cruise_speed * turn_rate.
    """

    cruise_speed: float = 2.0
    turn_rate: float = 0.1
    turn_start: float = 45.0
    turn_duration: float = 10.0
    initial_heading: float = 0.0

    def __post_init__(self):
        if self.cruise_speed < 0.0:
            raise ValueError("TrajectoryConfig invariant: cruise_speed must be >= 0")
        if self.turn_start < 0.0 or self.turn_duration < 0.0:
            raise ValueError("TrajectoryConfig invariant: turn timing must be >= 0")

    @property
    def turn_end(self) -> float:
        return self.turn_start + self.turn_duration

    @property
    def has_turn(self) -> bool:
        return self.turn_duration > 0.0 and self.turn_rate != 0.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Every knob of a simulated run.

    Durations are in seconds. The outage covers
    [outage_start, outage_start + outage_duration); the history window
    must be filled before it begins.
    """

    duration: float = 110.0
    dt: float = 0.1
    outage_start: float = 60.0
    outage_duration: float = 40.0
    history_window: float = 50.0
    mc_runs: int = 100
    base_seed: int = 1234
    sigma_jerk: float = 5.0
    poly_degree: int = 2
    lagrange_nodes: int = 8
    current_speed: float = 1.0
    current_heading_deg: float = 45.0
    sensor: SensorConfig = field(default_factory=SensorConfig)
    vhd_params: AdaptiveConfidenceParams = field(default_factory=AdaptiveConfidenceParams)
    trajectory: TrajectoryConfig = field(default_factory=TrajectoryConfig)

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("ScenarioConfig invariant: dt must be > 0")
        if self.duration <= 0.0:
            raise ValueError("ScenarioConfig invariant: duration must be > 0")
        if self.outage_start < self.history_window:
            raise ValueError(
                "ScenarioConfig invariant: outage_start must be >= history_window "
                "(the buffer must fill before the outage)"
            )
        if self.outage_start + self.outage_duration > self.duration + _GRID_TOL:
            raise ValueError("ScenarioConfig invariant: outage must end within the run")
        if self.mc_runs < 1:
            raise ValueError("ScenarioConfig invariant: mc_runs must be >= 1")
        if self.history_window <= 0.0:
            raise ValueError("ScenarioConfig invariant: history_window must be > 0")
        if self.poly_degree < 0:
            raise ValueError("ScenarioConfig invariant: poly_degree must be >= 0")
        if self.lagrange_nodes < 2:
            raise ValueError("ScenarioConfig invariant: lagrange_nodes must be >= 2")
        if not self.sigma_jerk >= 0.0:
            raise ValueError("ScenarioConfig invariant: sigma_jerk must be >= 0")
        if self.current_speed < 0.0:
            raise ValueError("ScenarioConfig invariant: current_speed must be >= 0")
        if self.trajectory.has_turn and self.trajectory.turn_start >= self.outage_start:
            raise ValueError(
                "ScenarioConfig invariant: the turn must begin before the outage"
            )
        # The step grid must line up with the fix cadence, the 1 s window
        # sampling, and the configured interval boundaries.
        for name, value in (
            ("window sample period", 1.0 / self.dt),
            ("fix period", 1.0 / (self.sensor.fix_rate * self.dt)),
            ("duration", self.duration / self.dt),
            ("outage_start", self.outage_start / self.dt),
            ("outage_duration", self.outage_duration / self.dt),
        ):
            if abs(value - round(value)) > 1e-6 or round(value) < 1:
                raise ValueError(
                    f"ScenarioConfig invariant: {name} must be a positive multiple of dt"
                )
        # The capacity divides by the window sample period, checked just above.
        capacity = self.window_capacity
        if self.poly_degree + 1 > capacity:
            raise ValueError(f"ScenarioConfig invariant: poly_degree + 1 must be <= window capacity {capacity}")
        if self.lagrange_nodes > capacity:
            raise ValueError(f"ScenarioConfig invariant: lagrange_nodes must be <= window capacity {capacity}")
        # The schedule grows with outage age, so its last step bounds it.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                last_noise = adaptive_noise(self.vhd_params, self.outage_steps * self.dt)
            except OverflowError:
                last_noise = np.inf
        if not np.all(np.isfinite(last_noise)):
            raise ValueError("ScenarioConfig invariant: vhd noise must stay finite up to the last outage step")

    # -- derived step counts -------------------------------------------

    @property
    def n_steps(self) -> int:
        return round(self.duration / self.dt)

    @property
    def onset_step(self) -> int:
        return round(self.outage_start / self.dt)

    @property
    def outage_steps(self) -> int:
        return round(self.outage_duration / self.dt)

    @property
    def fix_period_steps(self) -> int:
        return round(1.0 / (self.sensor.fix_rate * self.dt))

    @property
    def window_period_steps(self) -> int:
        return round(1.0 / self.dt)

    @property
    def window_capacity(self) -> int:
        """Samples in the history window: one per second of history_window,
        but no more than the one-second samples that fit before the onset."""
        return min(round(self.history_window) + 1, self.onset_step // self.window_period_steps + 1)

    @property
    def fix_steps(self) -> np.ndarray:
        """Steps at which a position fix arrives.

        One every fix period from the first period boundary after t = 0,
        except inside the outage [onset_step, onset_step + outage_steps):
        no fix arrives at the onset step itself.
        """
        period = self.fix_period_steps
        steps = np.arange(period, self.n_steps + 1, period)
        return steps[(steps < self.onset_step) | (steps >= self.onset_step + self.outage_steps)]

    @property
    def current(self) -> Disturbance:
        heading = np.radians(self.current_heading_deg)
        return Disturbance(
            current_x=self.current_speed * float(np.cos(heading)),
            current_y=self.current_speed * float(np.sin(heading)),
        )


# ----------------------------------------------------------------------
# truth and sensors
# ----------------------------------------------------------------------

def generate_truth(cfg: ScenarioConfig) -> Trajectory:
    """Simulate the true vehicle trajectory on the step grid.

    Straight segments advance through the CA model plus current drift
    (propagate_truth); the turn advances along the exact circular arc with
    the same per-step drift. The geometry is noise-free, so the result
    depends on the config alone.
    """
    traj = cfg.trajectory
    dt = cfg.dt
    n = cfg.n_steps
    current = cfg.current
    model = ca_model(dt, 0.0)

    turn_start_step = round(traj.turn_start / dt)
    turn_end_step = round(traj.turn_end / dt)

    def in_turn(step: int) -> bool:
        return traj.has_turn and turn_start_step <= step < turn_end_step

    v = traj.cruise_speed
    w = traj.turn_rate
    heading = traj.initial_heading

    def accel_at(step: int, th: float) -> tuple[float, float]:
        if in_turn(step):
            return (-v * w * np.sin(th), v * w * np.cos(th))
        return (0.0, 0.0)

    states = np.zeros((n + 1, 6))
    ax0, ay0 = accel_at(0, heading)
    state = make_state(
        p_x=0.0, v_x=v * np.cos(heading), a_x=ax0,
        p_y=0.0, v_y=v * np.sin(heading), a_y=ay0,
    )
    states[0] = state

    for i in range(n):
        if in_turn(i):
            new_heading = heading + w * dt
            r = v / w
            state = state.copy()
            state[PX] += r * (np.sin(new_heading) - np.sin(heading)) + current.current_x * dt
            state[PY] += r * (np.cos(heading) - np.cos(new_heading)) + current.current_y * dt
            heading = new_heading
            state[1], state[4] = v * np.cos(heading), v * np.sin(heading)
        else:
            state = propagate_truth(state, model, current)
        state[AX], state[AY] = accel_at(i + 1, heading)
        states[i + 1] = state

    times = np.arange(n + 1) * dt
    return Trajectory(times=times, states=states)


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Sensor outputs for one run.

    fix_values : (len(cfg.fix_steps), 2) noisy position fixes, one per
                 fix step of the run's config.
    imu_accel  : (n_steps + 1, 2) accelerometer readings on the full grid
                 (true acceleration + accumulated bias + white noise).
    imu_bias   : (n_steps + 1, 2) the underlying bias random walk, kept
                 for diagnostics.
    """

    fix_values: np.ndarray
    imu_accel: np.ndarray
    imu_bias: np.ndarray


def simulate_measurements(truth: Trajectory, cfg: ScenarioConfig, seed: int) -> MeasurementSet:
    """Generate the sensor streams for one run.

    Position fixes arrive at `cfg.fix_steps`: every fix period starting at
    the first period boundary after t = 0, suppressed for steps inside
    [outage_start, outage_start + outage_duration). The accelerometer
    reports every step with white noise plus a bias that accumulates an
    independent Gaussian increment per step (zero bias at step 0).

    The three noise streams draw from independent child generators spawned
    from `seed`, so the realization of one stream does not depend on the
    sizing of another.
    """
    n1 = truth.states.shape[0]
    sensor = cfg.sensor

    ss = np.random.SeedSequence(entropy=seed)
    fix_rng, white_rng, bias_rng = (np.random.default_rng(c) for c in ss.spawn(3))

    fix_steps = cfg.fix_steps
    fix_noise = fix_rng.normal(0.0, sensor.position_fix_noise, size=(fix_steps.size, 2))
    fix_values = truth.positions[fix_steps] + fix_noise

    white = white_rng.normal(0.0, sensor.accel_white_noise, size=(n1, 2))
    increments = bias_rng.normal(0.0, sensor.accel_bias_walk, size=(n1, 2))
    increments[0] = 0.0
    bias = np.cumsum(increments, axis=0)
    imu_accel = truth.accelerations + bias + white

    return MeasurementSet(fix_values=fix_values, imu_accel=imu_accel, imu_bias=bias)


# ----------------------------------------------------------------------
# single run
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OnsetState:
    """Everything known at the moment the outage begins."""

    belief: GaussianBelief
    window: Trajectory
    model: CaModel
    truth: Trajectory
    tracking_err: np.ndarray


def track_to_outage(cfg: ScenarioConfig, seed: int) -> OnsetState:
    """Run the tracking filter from t = 0 to the outage onset.

    Per step the filter predicts, assimilates the accelerometer reading
    (weighted by its white-noise covariance; the bias is unmodeled), then
    assimilates the position fix when one arrives. The history window is
    the post-update estimates sampled once per second backward from the
    onset step, so the window's newest sample is the belief the predictors
    branch from.
    """
    model = ca_model(cfg.dt, cfg.sigma_jerk)
    truth = generate_truth(cfg)
    meas = simulate_measurements(truth, cfg, seed)

    H_acc = accel_measurement_matrix()
    R_fix = np.diag([cfg.sensor.position_fix_noise**2] * 2)
    R_imu = np.diag([cfg.sensor.accel_white_noise**2] * 2)

    belief = GaussianBelief(truth.states[0].copy(), np.diag(_P0_DIAG))
    fix_row = {int(s): k for k, s in enumerate(cfg.fix_steps)}
    onset = cfg.onset_step
    means = np.empty((onset + 1, STATE_DIM))
    means[0] = belief.mean

    for i in range(1, onset + 1):
        belief = predict(belief, model)
        belief = update(belief, meas.imu_accel[i], R_imu, H_acc)
        if i in fix_row:
            belief = update(belief, meas.fix_values[fix_row[i]], R_fix, model.H)
        means[i] = belief.mean

    samples = np.arange(onset, -1, -cfg.window_period_steps)[: cfg.window_capacity][::-1]
    err = means[:, [PX, PY]] - truth.positions[: onset + 1]
    return OnsetState(
        belief=belief,
        window=Trajectory(samples * cfg.dt, means[samples]),
        model=model,
        truth=truth,
        tracking_err=np.hypot(err[:, 0], err[:, 1]),
    )


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outage-window results of a single seeded run.

    All sequences share the outage timestamps; index 0 is the shared
    branch point at onset, where every predictor coincides with the
    filter's last belief.
    """

    seed: int
    times: np.ndarray
    truth_xy: np.ndarray
    paths: dict[str, np.ndarray]
    errors: dict[str, np.ndarray]
    tracking_err: np.ndarray


def run_scenario(cfg: ScenarioConfig, seed: int) -> RunRecord:
    """Track to onset, then branch the three predictors over the outage."""
    onset_state = track_to_outage(cfg, seed)
    model = onset_state.model
    window = onset_state.window
    b0 = onset_state.belief

    T = cfg.outage_steps
    onset = cfg.onset_step
    times = cfg.outage_start + np.arange(T + 1) * cfg.dt
    truth_xy = onset_state.truth.positions[onset : onset + T + 1]

    ukf_seq = open_loop_predict(b0, model, T)
    vhd_seq = run_outage(b0, window, cfg.vhd_params, T, model, degree=cfg.poly_degree)
    start = [b0.mean[[PX, PY]]]  # the shared branch point at index 0
    paths = {
        "ukf": np.array(start + [b.mean[[PX, PY]] for b in ukf_seq]),
        "lagrange": np.vstack(start + [lagrange_extrapolate(window, times[1:], cfg.lagrange_nodes)]),
        "vhd": np.array(start + [b.mean[[PX, PY]] for b in vhd_seq]),
    }
    errors = {name: np.linalg.norm(paths[name] - truth_xy, axis=1) for name in PREDICTORS}

    return RunRecord(
        seed=seed,
        times=times,
        truth_xy=truth_xy,
        paths=paths,
        errors=errors,
        tracking_err=onset_state.tracking_err,
    )


# ----------------------------------------------------------------------
# block of runs in lockstep
# ----------------------------------------------------------------------

def _finite(values: np.ndarray, what: str, step: int | None = None) -> np.ndarray:
    if not np.isfinite(values).all():
        at = "" if step is None else f" at step {step}"
        raise ConfigError(f"the filter {what} is not finite{at}: the config's values overflow the filter")
    return values


def _track_block(cfg: ScenarioConfig, model: CaModel, truth: Trajectory, seeds: list[int]):
    """Tracking phase of `run_block`, as in track_to_outage.

    Returns the onset covariance and, per run, the onset mean, the history
    window and the tracking error. The means of every step and the
    measurement streams are dropped on return, before the outage begins.
    """
    F, H = model.F, model.H
    H_acc = accel_measurement_matrix()
    R_fix = np.diag([cfg.sensor.position_fix_noise**2] * 2)
    R_imu = np.diag([cfg.sensor.accel_white_noise**2] * 2)
    meas = [simulate_measurements(truth, cfg, s) for s in seeds]
    onset = cfg.onset_step
    fix_row = {int(s): k for k, s in enumerate(cfg.fix_steps)}

    cov = np.diag(_P0_DIAG)
    means = [truth.states[0].copy() for _ in seeds]
    tracked = np.empty((len(seeds), onset + 1, STATE_DIM))
    tracked[:, 0] = means
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, onset + 1):
            cov = _finite(_predicted_cov(cov, model), "covariance", i)
            K = _kalman_gain(cov, R_imu, H_acc)
            cov = _finite(_joseph_cov(cov, K, R_imu, H_acc), "covariance", i)
            means = [m + K @ (ms.imu_accel[i] - H_acc @ m) for m, ms in zip([F @ m for m in means], meas)]
            if i in fix_row:
                K = _kalman_gain(cov, R_fix, H)
                cov = _finite(_joseph_cov(cov, K, R_fix, H), "covariance", i)
                means = [m + K @ (ms.fix_values[fix_row[i]] - H @ m) for m, ms in zip(means, meas)]
            tracked[:, i] = means
    _finite(tracked, "means")

    samples = np.arange(onset, -1, -cfg.window_period_steps)[: cfg.window_capacity][::-1]
    windows = [Trajectory(samples * cfg.dt, run[samples]) for run in tracked]
    errors = [run[:, [PX, PY]] - truth.positions[: onset + 1] for run in tracked]
    return cov, means, windows, [np.hypot(err[:, 0], err[:, 1]) for err in errors]


def run_block(cfg: ScenarioConfig, seeds) -> list[RunRecord]:
    """Run a block of seeds in lockstep; record k equals run_scenario(cfg, seeds[k]).

    The truth is generated once and each seed gets its own measurements.
    Each step runs one covariance recurrence, so each gain is computed once
    and applied to every run's mean with the expressions `predict` and
    `update` use (`F @ m`, `m + K @ (z - H @ m)`), one 1-D mean at a time:
    a matrix product over all runs at once rounds differently in the last
    bit, and the polynomial extrapolations amplify that. The window fit and
    the Lagrange interpolant stay per run.

    `GaussianBelief` checks every belief of the reference for finiteness;
    here each covariance is checked as it is computed and the means once
    per phase, and a config that overflows the filter raises ConfigError.
    The recurrences run with numpy's overflow warnings off, so that error
    is all an overflowing config reports.
    """
    seeds = [int(s) for s in seeds]
    model = ca_model(cfg.dt, cfg.sigma_jerk)
    truth = generate_truth(cfg)
    cov, means, windows, tracking_err = _track_block(cfg, model, truth, seeds)

    # Outage, as in open_loop_predict and run_outage.
    F, H = model.F, model.H
    onset, T, dt = cfg.onset_step, cfg.outage_steps, cfg.dt
    elapsed = np.arange(1, T + 1) * dt
    virtual = []
    for window in windows:
        poly = fit_polynomial(window, cfg.poly_degree)
        virtual.append(poly.position(poly.window_end + elapsed))
    ukf_cov = vhd_cov = cov
    ukf_means = vhd_means = means
    ukf = np.empty((len(seeds), T + 1, STATE_DIM))
    vhd = np.empty((len(seeds), T + 1, STATE_DIM))
    ukf[:, 0] = vhd[:, 0] = means
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, T + 1):
            ukf_cov = _finite(_predicted_cov(ukf_cov, model), "covariance", onset + k)
            vhd_cov = _finite(_predicted_cov(vhd_cov, model), "covariance", onset + k)
            R = adaptive_noise(cfg.vhd_params, k * dt)
            K = _kalman_gain(vhd_cov, R, H)
            vhd_cov = _finite(_joseph_cov(vhd_cov, K, R, H), "covariance", onset + k)
            ukf_means = [F @ m for m in ukf_means]
            vhd_means = [m + K @ (z[k - 1] - H @ m) for m, z in zip([F @ m for m in vhd_means], virtual)]
            ukf[:, k] = ukf_means
            vhd[:, k] = vhd_means
    _finite(ukf, "means")
    _finite(vhd, "means")

    times = cfg.outage_start + np.arange(T + 1) * dt
    truth_xy = truth.positions[onset : onset + T + 1]
    records = []
    for r, seed in enumerate(seeds):
        paths = {
            "ukf": ukf[r][:, [PX, PY]],
            "lagrange": np.vstack(
                [ukf[r][:1, [PX, PY]], lagrange_extrapolate(windows[r], times[1:], cfg.lagrange_nodes)]
            ),
            "vhd": vhd[r][:, [PX, PY]],
        }
        records.append(
            RunRecord(
                seed=seed,
                times=times,
                truth_xy=truth_xy,
                paths=paths,
                errors={name: np.linalg.norm(paths[name] - truth_xy, axis=1) for name in PREDICTORS},
                tracking_err=tracking_err[r],
            )
        )
    return records


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

def rmse(errors) -> float:
    """Root mean square of a non-empty error sequence."""
    arr = np.asarray(errors, dtype=float)
    if arr.size == 0:
        raise ValueError("rmse of an empty sequence")
    return float(np.sqrt(np.mean(np.square(arr))))


@dataclass(frozen=True, eq=False)
class McResult:
    """Aggregate metrics over a batch of seeded runs.

    mean_err maps each predictor to the per-step mean (across runs) of the
    Euclidean position error; rmse_m pools all steps of all runs; terminal
    errors are averaged across runs. Reductions compare pooled RMSE
    against the open-loop predictor.
    """

    times: np.ndarray
    mean_err: dict[str, np.ndarray]
    rmse_m: dict[str, float]
    terminal_mean_m: dict[str, float]
    reduction_vs_ukf_pct: dict[str, float]
    designated_run: RunRecord


def _run_seeds(cfg: ScenarioConfig, jobs: int) -> list[RunRecord]:
    """Records of seeds base_seed .. base_seed + mc_runs - 1, in seed order.

    With jobs > 1 the seeds are cut into up to `jobs` contiguous blocks of
    near-equal size, one per pool worker.
    """
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.mc_runs)
    n = min(jobs, len(seeds))
    if n == 1:
        return run_block(cfg, seeds)
    blocks = [seeds[len(seeds) * b // n : len(seeds) * (b + 1) // n] for b in range(n)]
    with ProcessPoolExecutor(max_workers=n) as pool:
        return [rec for block in pool.map(run_block, [cfg] * n, blocks) for rec in block]


def monte_carlo(cfg: ScenarioConfig, jobs: int = 1) -> McResult:
    """Run mc_runs seeded scenarios and aggregate their error series.

    Seeds are base_seed .. base_seed + mc_runs - 1, run in lockstep by
    `run_block`. With jobs > 1 each worker of a process pool runs one
    contiguous block of seeds; records are collected in seed order, so the
    aggregate is identical to the serial one.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    records = _run_seeds(cfg, jobs)

    stacked = {
        name: np.stack([rec.errors[name] for rec in records]) for name in PREDICTORS
    }
    mean_err = {name: stacked[name].mean(axis=0) for name in PREDICTORS}
    rmse_m = {name: rmse(stacked[name]) for name in PREDICTORS}
    terminal = {name: float(stacked[name][:, -1].mean()) for name in PREDICTORS}
    reduction = {
        name: 100.0 * (1.0 - rmse_m[name] / rmse_m["ukf"])
        for name in PREDICTORS
        if name != "ukf"
    }

    return McResult(
        times=records[0].times,
        mean_err=mean_err,
        rmse_m=rmse_m,
        terminal_mean_m=terminal,
        reduction_vs_ukf_pct=reduction,
        designated_run=records[0],
    )
