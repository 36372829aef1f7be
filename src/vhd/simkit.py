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
not on the data. `run_block` computes every gain once, before any draw,
then runs a block of seeds in lockstep as one stack of means; each run of
its record equals `run_scenario`'s for the same seed bit for bit.
`run_scenario` is the straightforward per-run reference that the tests
compare it against.
"""

from __future__ import annotations

import math
from collections import deque
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

# Most steps a run may simulate (onset_step + outage_steps): about 1000x the
# longest benchmark run, and far below a grid whose truth cannot be allocated.
_MAX_STEPS = 10**7


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
            # copysign also rejects -0.0, which numpy refuses as a scale
            if math.copysign(1.0, getattr(self, name)) < 0.0:
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
        if self.base_seed < 0:
            raise ValueError("ScenarioConfig invariant: base_seed must be >= 0")
        if not self.sigma_jerk >= 0.0:
            raise ValueError("ScenarioConfig invariant: sigma_jerk must be >= 0")
        if not math.isfinite(self.sigma_jerk * self.sigma_jerk):
            raise ValueError("ScenarioConfig invariant: sigma_jerk squared must be finite")
        if self.current_speed < 0.0:
            raise ValueError("ScenarioConfig invariant: current_speed must be >= 0")
        if self.trajectory.has_turn and self.trajectory.turn_start >= self.outage_start:
            raise ValueError(
                "ScenarioConfig invariant: the turn must begin before the outage"
            )
        # The step grid must line up with the fix cadence, the 1 s window
        # sampling, and the configured interval boundaries; a fix_rate * dt
        # that underflows to 0 is an infinite fix period.
        fix_product = self.sensor.fix_rate * self.dt
        for name, value in (
            ("window sample period", 1.0 / self.dt),
            ("fix period", 1.0 / fix_product if fix_product else math.inf),
            ("duration", self.duration / self.dt),
            ("outage_start", self.outage_start / self.dt),
            ("outage_duration", self.outage_duration / self.dt),
        ):
            if not math.isfinite(value) or abs(value - round(value)) > 1e-6 or round(value) < 1:
                raise ValueError(
                    f"ScenarioConfig invariant: {name} must be a positive multiple of dt"
                )
        if self.onset_step + self.outage_steps > _MAX_STEPS:
            raise ValueError(
                f"ScenarioConfig invariant: (outage_start + outage_duration) / dt must be <= {_MAX_STEPS}"
            )
        # generate_truth rounds the turn's end to a step, as it rounds its start.
        if not math.isfinite(self.trajectory.turn_end / self.dt):
            raise ValueError("ScenarioConfig invariant: (turn_start + turn_duration) / dt must be finite")
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
        """Steps at which a position fix arrives: one every fix period from
        the first period boundary after t = 0 up to, not at, the onset step.
        Nothing after the onset is simulated."""
        # A period past the onset means no fix; capping it keeps the steps
        # int64 when the period itself does not fit.
        period = min(self.fix_period_steps, self.onset_step)
        return np.arange(period, self.onset_step, period)

    @property
    def window_steps(self) -> np.ndarray:
        """Steps of the history window: one per window period backward from
        the onset step, at most window_capacity of them, oldest first."""
        return np.arange(self.onset_step, -1, -self.window_period_steps)[: self.window_capacity][::-1]

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
    """Simulate the true vehicle trajectory up to the end of the outage.

    Straight segments advance through the CA model plus current drift
    (propagate_truth); the turn advances along the exact circular arc with
    the same per-step drift. The geometry is noise-free, so the result
    depends on the config alone.
    """
    traj = cfg.trajectory
    dt = cfg.dt
    n = cfg.onset_step + cfg.outage_steps
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
    imu_accel  : (onset_step + 1, 2) accelerometer readings up to the onset
                 (true acceleration + accumulated bias + white noise).
    imu_bias   : (onset_step + 1, 2) the underlying bias random walk, kept
                 for diagnostics.
    """

    fix_values: np.ndarray
    imu_accel: np.ndarray
    imu_bias: np.ndarray


def simulate_measurements(truth: Trajectory, cfg: ScenarioConfig, seed: int) -> MeasurementSet:
    """Generate the sensor streams for one run, from t = 0 to the onset.

    Position fixes arrive at `cfg.fix_steps`: every fix period starting at
    the first period boundary after t = 0, up to the onset. The
    accelerometer reports every step with white noise plus a bias that
    accumulates an independent Gaussian increment per step (zero bias at
    step 0).

    The three noise streams draw from independent child generators spawned
    from `seed`, so the realization of one stream does not depend on the
    sizing of another.
    """
    n1 = cfg.onset_step + 1
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
    imu_accel = truth.accelerations[:n1] + bias + white

    return MeasurementSet(fix_values=fix_values, imu_accel=imu_accel, imu_bias=bias)


# ----------------------------------------------------------------------
# single run
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OnsetState:
    """Everything known at the moment the outage begins."""

    belief: GaussianBelief
    window: Trajectory
    tracking_err: np.ndarray
    model: CaModel
    truth: Trajectory


def _tracking_updates(cfg: ScenarioConfig, model: CaModel, imu: np.ndarray, fixes: np.ndarray):
    """The tracking schedule: each step 1 .. onset_step with its ordered
    updates (z, R, H), the accelerometer reading `imu[step]` (weighted by
    its white-noise covariance; the bias is unmodeled), then on a fix step
    the position fix `fixes[row]`. The engine passes the streams of a
    block stacked with the run axis second and a trailing axis, so each z
    holds one column per run.
    """
    acc = (np.diag([cfg.sensor.accel_white_noise**2] * 2), accel_measurement_matrix())
    fix = (np.diag([cfg.sensor.position_fix_noise**2] * 2), model.H)
    fix_row = {int(s): k for k, s in enumerate(cfg.fix_steps)}
    for i in range(1, cfg.onset_step + 1):
        updates = [(imu[i], *acc)]
        if i in fix_row:
            updates.append((fixes[fix_row[i]], *fix))
        yield i, updates


def _window(cfg: ScenarioConfig, truth: Trajectory, means: np.ndarray) -> tuple[Trajectory, np.ndarray]:
    """The history window, which ends at the onset mean, and the tracking error
    of one run's (onset_step + 1, 6) tracked means or a block's (runs, ...).
    `np.take` lays each run's samples out as one run's are, so a block's fit
    rounds as each run's would."""
    samples = cfg.window_steps
    err = means[..., [PX, PY]] - truth.positions[: cfg.onset_step + 1]
    return Trajectory(samples * cfg.dt, np.take(means, samples, axis=-2)), np.hypot(err[..., 0], err[..., 1])


def track_to_outage(cfg: ScenarioConfig, seed: int) -> OnsetState:
    """Run the tracking filter from t = 0 to the outage onset: per step,
    `predict`, then `update` with each update of the tracking schedule."""
    model = ca_model(cfg.dt, cfg.sigma_jerk)
    truth = generate_truth(cfg)
    meas = simulate_measurements(truth, cfg, seed)

    belief = GaussianBelief(truth.states[0].copy(), np.diag(_P0_DIAG))
    means = np.empty((cfg.onset_step + 1, STATE_DIM))
    means[0] = belief.mean
    for i, updates in _tracking_updates(cfg, model, meas.imu_accel, meas.fix_values):
        belief = predict(belief, model)
        for z, R, H in updates:
            belief = update(belief, z, R, H)
        means[i] = belief.mean
    return OnsetState(belief, *_window(cfg, truth, means), model, truth)


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outage-window results of a single seeded run, or of a block of runs.

    All sequences share the outage timestamps; index 0 is the shared
    branch point at onset, where every predictor coincides with the
    filter's last belief. For a block, `seed` is a (runs,) array and
    `paths`, `errors` and `tracking_err` have a leading run axis, as
    `Trajectory.states` does; `times` and `truth_xy` are shared.
    """

    seed: int | np.ndarray
    times: np.ndarray
    truth_xy: np.ndarray
    paths: dict[str, np.ndarray]
    errors: dict[str, np.ndarray]
    tracking_err: np.ndarray

    def run(self, k: int) -> RunRecord:
        """Run k of a block's record, as views into the block's arrays."""
        return RunRecord(int(self.seed[k]), self.times, self.truth_xy,
                         {name: path[k] for name, path in self.paths.items()},
                         {name: err[k] for name, err in self.errors.items()}, self.tracking_err[k])


def _record(cfg: ScenarioConfig, seed, truth: Trajectory, window: Trajectory,
            tracking_err: np.ndarray, ukf: np.ndarray, vhd: np.ndarray) -> RunRecord:
    """One run's record from its (T + 1, 6) ukf and vhd means, or a block's from
    (runs, T + 1, 6) ones. Row 0 of the means is the onset belief; it also
    opens the Lagrange path."""
    times = cfg.outage_start + np.arange(cfg.outage_steps + 1) * cfg.dt
    truth_xy = truth.states[cfg.onset_step :, [PX, PY]]  # the truth ends at the outage end
    ukf, vhd = ukf[..., [PX, PY]], vhd[..., [PX, PY]]
    lagrange = lagrange_extrapolate(window, times[1:], cfg.lagrange_nodes)
    paths = {"ukf": ukf, "lagrange": np.concatenate([ukf[..., :1, :], lagrange], axis=-2), "vhd": vhd}
    errors = {name: np.linalg.norm(paths[name] - truth_xy, axis=-1) for name in PREDICTORS}
    return RunRecord(seed, times, truth_xy, paths, errors, tracking_err)


def run_scenario(cfg: ScenarioConfig, seed: int) -> RunRecord:
    """Track to onset, then branch the three predictors over the outage."""
    onset = track_to_outage(cfg, seed)
    b0, model, T = onset.belief, onset.model, cfg.outage_steps
    ukf = [b0] + open_loop_predict(b0, model, T)
    vhd = [b0] + run_outage(b0, onset.window, cfg.vhd_params, T, model, degree=cfg.poly_degree)
    means = [np.array([b.mean for b in beliefs]) for beliefs in (ukf, vhd)]
    return _record(cfg, seed, onset.truth, onset.window, onset.tracking_err, *means)


# ----------------------------------------------------------------------
# block of runs in lockstep
# ----------------------------------------------------------------------

def _finite(values: np.ndarray, what: str, step: int | None = None) -> np.ndarray:
    if not np.isfinite(values).all():
        at = "" if step is None else f" at step {step}"
        raise ConfigError(f"the filter {what} is not finite{at}: the config's values overflow the filter")
    return values


def _covariance_step(cov: np.ndarray, model: CaModel, step: int, updates=()):
    """The covariance half of `predict`, then of one `update` per (z, R, H):
    each covariance is computed and checked once. Returns the covariance
    and the gain of each update."""
    cov = _finite(_predicted_cov(cov, model), "covariance", step)
    gains = []
    for _, R, H in updates:
        # The covariance depends on the config alone, so a singular one is
        # the config's fault, as an overflowing one is.
        try:
            K = _kalman_gain(cov, R, H)
        except np.linalg.LinAlgError as exc:
            raise ConfigError(f"the filter {exc} at step {step}") from None
        cov = _finite(_joseph_cov(cov, K, R, H), "covariance", step)
        gains.append(K)
    return cov, gains


def _mean_step(means: np.ndarray, model: CaModel, updates=(), gains=()) -> np.ndarray:
    """The mean half of `predict` and `update`, with their expressions, for
    (runs, 6, 1) means and (runs, 2, 1) z: one column per run. The stacked
    matmul rounds each column as `F @ m` rounds a 1-D mean."""
    means = model.F @ means
    for (z, _, H), K in zip(updates, gains):
        means = means + K @ (z - H @ means)
    return means


def _gain_schedule(cfg: ScenarioConfig, model: CaModel) -> tuple[list[list[np.ndarray]], np.ndarray]:
    """Every gain of a run, from the config alone: the list of tracking gains
    of each step 1 .. onset_step, and the (T, 6, 2) `vhd` gains of the outage.
    Each covariance is checked as it is computed; the `ukf` one is stepped
    only for that check.

    The schedule repeats every fix period, and the covariance recurrence is
    deterministic in the previous covariance and the step's updates. So once
    the covariance after a step equals the one a period earlier, a step whose
    updates match that earlier step's takes its covariance and gains (the
    same list); any other step (an onset on a fix boundary has no fix) is
    computed."""
    # _tracking_updates reads only R and H here: a zero-width stream stands in.
    streams = np.empty((cfg.onset_step + 1, 0))
    # (covariance, gains) after each step of the last schedule period: the
    # fix period, or one step when no fix arrives before the onset.
    fix_steps = cfg.fix_steps
    period = deque(maxlen=int(fix_steps[0]) if fix_steps.size else 1)
    cycled = False
    cov = np.diag(_P0_DIAG)
    tracking = []
    for i, updates in _tracking_updates(cfg, model, streams, streams):
        if cycled and len(period[0][1]) == len(updates):
            cov, gains = period[0]
        else:
            cov, gains = _covariance_step(cov, model, i, updates)
            cycled = len(period) == period.maxlen and np.array_equal(cov, period[0][0])
        period.append((cov, gains))
        tracking.append(gains)

    # Outage, as in open_loop_predict and run_outage.
    ukf_cov = vhd_cov = cov
    vhd = np.empty((cfg.outage_steps, STATE_DIM, 2))
    for k in range(1, cfg.outage_steps + 1):
        ukf_cov, _ = _covariance_step(ukf_cov, model, cfg.onset_step + k)
        updates = [(None, adaptive_noise(cfg.vhd_params, k * cfg.dt), model.H)]
        vhd_cov, (vhd[k - 1],) = _covariance_step(vhd_cov, model, cfg.onset_step + k, updates)
    return tracking, vhd


@np.errstate(over="ignore", invalid="ignore")
def run_block(cfg: ScenarioConfig, seeds) -> RunRecord:
    """Run a block of seeds in lockstep; its record's run k equals
    run_scenario(cfg, seeds[k]).

    `_gain_schedule` computes each gain once, before anything is drawn. Then
    the truth is generated once, each seed gets its own measurements, and
    each run is a linear recurrence on its mean. The block's means advance
    at once, as one (runs, 6, 1) stack of columns: the stacked matmul in
    `F @ m` and `m + K @ (z - H @ m)` rounds each column as `predict` and
    `update` round a 1-D mean (`einsum` or `M @ F.T` would not, and the
    polynomial extrapolations amplify that). The window fit and the Lagrange
    interpolant are each one broadcast solve for the block.

    `GaussianBelief` checks every belief of the reference for finiteness;
    here each covariance is checked as it is computed and the means once
    per phase, and a config that overflows the filter, or makes its
    innovation covariance singular, raises ConfigError, before any draw if
    the covariance is at fault. The whole block runs with numpy's overflow
    and invalid-value warnings off, so that error is all such a config
    reports.
    """
    seeds = [int(s) for s in seeds]
    model = ca_model(cfg.dt, cfg.sigma_jerk)
    tracking_gains, vhd_gains = _gain_schedule(cfg, model)
    truth = generate_truth(cfg)
    meas = [simulate_measurements(truth, cfg, s) for s in seeds]
    imu = np.stack([ms.imu_accel for ms in meas], axis=1)[..., None]
    fixes = np.stack([ms.fix_values for ms in meas], axis=1)[..., None]
    tracked = np.empty((len(seeds), cfg.onset_step + 1, STATE_DIM, 1))
    tracked[:, 0] = means = np.tile(truth.states[0][:, None], (len(seeds), 1, 1))
    for (i, updates), gains in zip(_tracking_updates(cfg, model, imu, fixes), tracking_gains):
        tracked[:, i] = means = _mean_step(means, model, updates, gains)
    window, tracking_err = _window(cfg, truth, _finite(tracked, "means")[..., 0])
    del meas, imu, fixes, tracked, tracking_gains

    # Outage, as in open_loop_predict and run_outage.
    T = cfg.outage_steps
    poly = fit_polynomial(window, cfg.poly_degree)
    # (T, runs, 2, 1): the virtual fixes of each outage step, one column per run
    virtual = np.moveaxis(poly.position(poly.window_end + np.arange(1, T + 1) * cfg.dt), 1, 0)[..., None]
    ukf, vhd = np.empty((2, len(seeds), T + 1, STATE_DIM, 1))
    ukf[:, 0] = vhd[:, 0] = ukf_means = vhd_means = window.states[:, -1, :, None]
    for k, z, K in zip(range(1, T + 1), virtual, vhd_gains):
        ukf[:, k] = ukf_means = _mean_step(ukf_means, model)
        vhd[:, k] = vhd_means = _mean_step(vhd_means, model, [(z, None, model.H)], [K])
    _finite(ukf, "means")
    _finite(vhd, "means")
    return _record(cfg, np.array(seeds), truth, window, tracking_err, ukf[..., 0], vhd[..., 0])


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

    mean_err: dict[str, np.ndarray]
    rmse_m: dict[str, float]
    terminal_mean_m: dict[str, float]
    reduction_vs_ukf_pct: dict[str, float]
    designated_run: RunRecord


def _run_seeds(cfg: ScenarioConfig, jobs: int) -> list[RunRecord]:
    """Block records of seeds base_seed .. base_seed + mc_runs - 1, in seed order.

    Serially the seeds are one block. With jobs > 1 they are cut into up to
    `jobs` contiguous blocks of near-equal size, one per pool worker.
    """
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.mc_runs)
    n = min(jobs, len(seeds))
    if n == 1:
        return [run_block(cfg, seeds)]
    blocks = [seeds[len(seeds) * b // n : len(seeds) * (b + 1) // n] for b in range(n)]
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(run_block, [cfg] * n, blocks))


def monte_carlo(cfg: ScenarioConfig, jobs: int = 1) -> McResult:
    """Run mc_runs seeded scenarios and aggregate their error series.

    Seeds are base_seed .. base_seed + mc_runs - 1, run in lockstep by
    `run_block`. With jobs > 1 each worker of a process pool runs one
    contiguous block of seeds; the blocks' (runs, T + 1) errors are
    concatenated in seed order, so the aggregate is identical to the serial
    one. Errors that overflow a metric raise ConfigError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    blocks = _run_seeds(cfg, jobs)

    stacked = {name: np.concatenate([block.errors[name] for block in blocks]) for name in PREDICTORS}
    # Errors that overflow the metrics are the config's fault, as a filter
    # that overflows is; they would make summary.json invalid JSON.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_err = {name: stacked[name].mean(axis=0) for name in PREDICTORS}
        rmse_m = {name: rmse(stacked[name]) for name in PREDICTORS}
        terminal = {name: float(stacked[name][:, -1].mean()) for name in PREDICTORS}
    for name in PREDICTORS:
        if not np.isfinite(np.append(mean_err[name], [rmse_m[name], terminal[name]])).all():
            raise ConfigError(f"the {name} error metrics are not finite: the config's values overflow them")
    # A zero baseline RMSE has no reduction; the writers print "--" for it.
    reduction = {
        name: 100.0 * (1.0 - rmse_m[name] / rmse_m["ukf"])
        for name in PREDICTORS
        if name != "ukf" and rmse_m["ukf"] > 0.0
    }

    return McResult(
        mean_err=mean_err,
        rmse_m=rmse_m,
        terminal_mean_m=terminal,
        reduction_vs_ukf_pct=reduction,
        designated_run=blocks[0].run(0),
    )
