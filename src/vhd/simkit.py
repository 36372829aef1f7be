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
not on the data. `_gain_schedule` steps it once per axis in floats, before
any draw, and a step's predict and update fold into a transition of the
config alone: a run's mean is the linear recurrence m_i = M_i m_{i-1} +
K_i z_i. `run_block` then runs a block of seeds in lockstep as one stack
of means, with every step's K_i z_i written before its loop. `run_scenario`
is the per-run reference that the tests compare it against: its tracking
takes its gains and transitions from the same schedule, one 1-D mean at a
time, and its outage, once the schedule has checked its covariances, steps
numpy's 6x6 beliefs. So each run of a block's record equals
`run_scenario`'s for the same seed bit for bit, but for the `vhd` path,
whose outage gains and transitions differ in the last bits.
"""

from __future__ import annotations

import math
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .estimator import GaussianBelief, open_loop_predict
from .history import Trajectory, _vandermonde, fit_polynomial, lagrange_extrapolate
from .kinematics import (
    AX,
    AY,
    CaModel,
    PX,
    PY,
    STATE_DIM,
    VX,
    VY,
    ca_model,
)
from .outage import adaptive_variance, run_outage

PREDICTORS = ("ukf", "lagrange", "vhd")

_GRID_TOL = 1e-9

# Most steps a run may simulate (onset_step + outage_steps): about 1000x the
# longest benchmark run, and far below a grid whose truth cannot be allocated.
_MAX_STEPS = 10**7


class ConfigError(Exception):
    """A config file or config value the run cannot proceed with."""


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def _full_rank(A: np.ndarray) -> bool:
    """`np.linalg.matrix_rank(A) == len(A)` for a symmetric A, certified
    without an SVD where possible: 1/||A^-1||_F bounds the least singular
    value from below and ||A||_F * len(A) * eps bounds matrix_rank's
    tolerance from above, and a 100x margin covers inv's rounding. The
    first SVD of a process pages in ~1 MB of LAPACK, so it runs only when
    the certificate fails."""
    try:
        if 1.0 / np.linalg.norm(np.linalg.inv(A)) > 100.0 * np.linalg.norm(A) * len(A) * np.finfo(float).eps:
            return True
    except np.linalg.LinAlgError:
        pass
    return np.linalg.matrix_rank(A) == len(A)


def _key(key: str, default):
    """A ScenarioConfig field that the config file sets with `key`."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class ScenarioConfig:
    """Every knob of a simulated run: one field per config key, set by `_key`.

    Durations are in seconds. The outage covers
    [outage_start, outage_start + outage_duration); the history window
    must be filled before it begins.

    position_fix_noise is the std dev of each fix coordinate, m, and
    accel_white_noise the accelerometer's white noise std dev, m/s^2; both
    are squared into the filter's measurement covariances, so each square
    must be finite. accel_bias_walk is the std dev of each per-step bias
    increment, m/s^2, and fix_rate the position fixes per second outside
    the outage. r_base, alpha and p are `outage.adaptive_variance`'s vhd noise
    schedule; r_base is each virtual-fix coordinate's variance at onset, m^2.
    The vehicle cruises straight, turns once over [turn_start, turn_end) at
    the constant yaw rate turn_rate (centripetal acceleration cruise_speed *
    turn_rate), and cruises on.
    """

    duration: float = _key("sim.duration", 110.0)
    dt: float = _key("sim.dt", 0.1)
    outage_start: float = _key("sim.outage_start", 60.0)
    outage_duration: float = _key("sim.outage_duration", 40.0)
    history_window: float = _key("sim.history_window", 50.0)
    mc_runs: int = _key("sim.mc_runs", 100)
    base_seed: int = _key("sim.base_seed", 1234)
    sigma_jerk: float = _key("sim.sigma_jerk", 5.0)
    current_speed: float = _key("current.speed", 1.0)
    current_heading_deg: float = _key("current.heading_deg", 45.0)
    position_fix_noise: float = _key("sensor.position_fix_noise", 1.0)
    accel_white_noise: float = _key("sensor.accel_white_noise", 0.05)
    accel_bias_walk: float = _key("sensor.accel_bias_walk", 0.005)
    fix_rate: float = _key("sensor.fix_rate", 1.0)
    r_base: float = _key("vhd.r_base", 0.5)
    alpha: float = _key("vhd.alpha", 0.01)
    p: float = _key("vhd.p", 2.0)
    poly_degree: int = _key("vhd.poly_degree", 2)
    lagrange_nodes: int = _key("baseline.lagrange_nodes", 8)
    cruise_speed: float = _key("traj.cruise_speed", 2.0)
    turn_rate: float = _key("traj.turn_rate", 0.1)
    turn_start: float = _key("traj.turn_start", 45.0)
    turn_duration: float = _key("traj.turn_duration", 10.0)
    initial_heading: float = _key("traj.initial_heading", 0.0)

    def __post_init__(self):
        for name in ("position_fix_noise", "accel_white_noise", "accel_bias_walk"):
            # copysign also rejects -0.0, which numpy refuses as a scale
            if math.copysign(1.0, getattr(self, name)) < 0.0:
                raise ValueError(f"ScenarioConfig invariant: {name} must be >= 0")
        for name in ("position_fix_noise", "accel_white_noise"):
            value = getattr(self, name)
            if not math.isfinite(value * value):
                raise ValueError(f"ScenarioConfig invariant: {name} squared must be finite")
        if self.fix_rate <= 0.0:
            raise ValueError("ScenarioConfig invariant: fix_rate must be > 0")
        if not 0.0 < self.r_base < math.inf:
            raise ValueError(f"ScenarioConfig invariant: r_base must be > 0 and finite, got {self.r_base}")
        if self.alpha < 0.0:
            raise ValueError(f"ScenarioConfig invariant: alpha must be >= 0, got {self.alpha}")
        if self.p < 1.0:
            raise ValueError(f"ScenarioConfig invariant: p must be >= 1, got {self.p}")
        if self.cruise_speed < 0.0:
            raise ValueError("ScenarioConfig invariant: cruise_speed must be >= 0")
        if self.turn_start < 0.0 or self.turn_duration < 0.0:
            raise ValueError("ScenarioConfig invariant: turn timing must be >= 0")
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
        if self.has_turn and self.turn_start >= self.outage_start:
            raise ValueError(
                "ScenarioConfig invariant: the turn must begin before the outage"
            )
        # The step grid must line up with the fix cadence, the 1 s window
        # sampling, and the configured interval boundaries; a fix_rate * dt
        # that underflows to 0 is an infinite fix period.
        fix_product = self.fix_rate * self.dt
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
        if not math.isfinite(self.turn_end / self.dt):
            raise ValueError("ScenarioConfig invariant: (turn_start + turn_duration) / dt must be finite")
        # The capacity divides by the window sample period, checked just above.
        capacity = self.window_capacity
        if self.poly_degree + 1 > capacity:
            raise ValueError(f"ScenarioConfig invariant: poly_degree + 1 must be <= window capacity {capacity}")
        if self.lagrange_nodes > capacity:
            raise ValueError(f"ScenarioConfig invariant: lagrange_nodes must be <= window capacity {capacity}")
        # A rank-deficient V^T V makes the window fit noise, which the outage amplifies.
        V = _vandermonde(self.window_steps * self.dt, self.poly_degree + 1)[0]
        if not _full_rank(V.T @ V):
            raise ValueError("ScenarioConfig invariant: poly_degree is too high: the window fit's normal matrix is rank-deficient")
        # The schedule grows with outage age, so its last step bounds it.
        try:
            last_noise = adaptive_variance(self, self.outage_steps * self.dt)
        except OverflowError:
            last_noise = math.inf
        if not math.isfinite(last_noise):
            raise ValueError("ScenarioConfig invariant: vhd noise must stay finite up to the last outage step")

    # -- derived values ------------------------------------------------

    @property
    def turn_end(self) -> float:
        return self.turn_start + self.turn_duration

    @property
    def has_turn(self) -> bool:
        return self.turn_duration > 0.0 and self.turn_rate != 0.0

    @property
    def onset_step(self) -> int:
        return round(self.outage_start / self.dt)

    @property
    def outage_steps(self) -> int:
        return round(self.outage_duration / self.dt)

    @property
    def fix_period_steps(self) -> int:
        return round(1.0 / (self.fix_rate * self.dt))

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
        return self.onset_step - self.window_period_steps * np.arange(self.window_capacity)[::-1]

    @property
    def current(self) -> tuple[float, float]:
        """The water current's (x, y) velocity in m/s, from its speed and
        heading."""
        heading = np.radians(self.current_heading_deg)
        return (self.current_speed * float(np.cos(heading)),
                self.current_speed * float(np.sin(heading)))


# ----------------------------------------------------------------------
# truth and sensors
# ----------------------------------------------------------------------

def generate_truth(cfg: ScenarioConfig) -> Trajectory:
    """Simulate the true vehicle trajectory up to the end of the outage.

    Straight segments advance as `propagate_truth` does (the CA model, then
    the current's drift); the turn advances along the exact circular arc
    with the same per-step drift. The geometry is noise-free, so the result
    depends on the config alone. Every step is computed at once, with the
    roundings of the per-step rule.
    """
    dt, current = cfg.dt, cfg.current
    v, w = cfg.cruise_speed, cfg.turn_rate
    n = cfg.onset_step + cfg.outage_steps
    turning = np.zeros(n + 1, dtype=bool)
    if cfg.has_turn:
        turning[round(cfg.turn_start / dt):round(cfg.turn_end / dt)] = True
    # Adding -0.0 leaves every float as it is, so this is the rule's
    # `heading += w * dt` on the turn steps.
    heading = np.cumsum(np.r_[cfg.initial_heading, np.where(turning[:-1], w * dt, -0.0)])
    cos, sin = np.cos(heading), np.sin(heading)
    states = np.zeros((n + 1, STATE_DIM))
    # A straight step keeps the velocity, and has no acceleration: its
    # `F @ s` adds 0.0, which turns a -0.0 (from cruise_speed 0) into 0.0.
    states[:, VX], states[:, VY] = v * cos, v * sin
    states[1:, [VX, VY]] += np.where(turning[:-1, None], -0.0, 0.0)
    states[turning, AX], states[turning, AY] = -v * w * sin[turning], v * w * cos[turning]
    # Rows 2i + 1 and 2i + 2 are step i's move and drift, summed in order:
    # a straight step rounds `F @ s`, then the drift's add; an arc step
    # rounds its move and drift first, and its drift row is -0.0. Summing
    # `move + drift` per step instead moved the truth by up to 9.6e-10 m
    # over the 10 400 steps of a 1000 s track with a 40 s outage.
    drift = (current[0] * dt, current[1] * dt)
    moves = np.zeros((2 * n + 1, 2))
    moves[1::2, 0], moves[1::2, 1] = dt * states[:-1, VX], dt * states[:-1, VY]
    moves[2::2] = drift
    if cfg.has_turn:
        arc = np.flatnonzero(turning[:-1])
        r = v / w
        moves[2 * arc + 1, 0] = r * (sin[arc + 1] - sin[arc]) + drift[0]
        moves[2 * arc + 1, 1] = r * (cos[arc] - cos[arc + 1]) + drift[1]
        moves[2 * arc + 2] = -0.0
    states[:, PX], states[:, PY] = np.cumsum(moves, axis=0, out=moves)[::2].T
    return Trajectory(times=np.arange(n + 1) * dt, states=states)


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Sensor outputs for one run.

    fix_values : (len(cfg.fix_steps), 2) noisy position fixes, one per
                 fix step of the run's config.
    imu_accel  : (onset_step + 1, 2) accelerometer readings up to the onset
                 (true acceleration + accumulated bias + white noise).
    """

    fix_values: np.ndarray
    imu_accel: np.ndarray


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

    ss = np.random.SeedSequence(entropy=seed)
    fix_rng, white_rng, bias_rng = (np.random.default_rng(c) for c in ss.spawn(3))

    fix_steps = cfg.fix_steps
    fix_noise = fix_rng.normal(0.0, cfg.position_fix_noise, size=(fix_steps.size, 2))
    fix_values = truth.positions[fix_steps] + fix_noise

    white = white_rng.normal(0.0, cfg.accel_white_noise, size=(n1, 2))
    increments = bias_rng.normal(0.0, cfg.accel_bias_walk, size=(n1, 2))
    increments[0] = 0.0
    bias = np.cumsum(increments, axis=0)
    imu_accel = truth.accelerations[:n1] + bias + white

    return MeasurementSet(fix_values=fix_values, imu_accel=imu_accel)


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


def _window(cfg: ScenarioConfig, means: np.ndarray) -> Trajectory:
    """The history window, which ends at the onset mean, of one run's
    (onset_step + 1, 6) tracked means or a block's (runs, ...). `np.take`
    lays each run's samples out as one run's are, so a block's fit rounds as
    each run's would."""
    samples = cfg.window_steps
    return Trajectory(samples * cfg.dt, np.take(means, samples, axis=-2))


def track_to_outage(cfg: ScenarioConfig, seed: int) -> OnsetState:
    """Run the tracking filter from t = 0 to the outage onset, one run's 1-D
    mean at a time, with the gains and the onset covariance of
    `_tracking_schedule`: per step, the predict and the accelerometer update
    folded into `m = M @ m + K @ z` with the row's `_tracking_transitions`
    M, then, on a fix step, `update`'s `m + K @ (z - H @ m)` with the
    position fix."""
    model = ca_model(cfg.dt, cfg.sigma_jerk)
    gains, covs, acc_rows, fix_rows = _tracking_schedule(cfg, model)
    transitions = _tracking_transitions(gains, model)
    truth = generate_truth(cfg)
    meas = simulate_measurements(truth, cfg, seed)

    fixes = iter(meas.fix_values)
    means = np.empty((cfg.onset_step + 1, STATE_DIM))
    means[0] = m = truth.states[0].copy()
    for i, (row, fix) in enumerate(zip(acc_rows, fix_rows), 1):
        m = transitions[row] @ m + gains[row] @ meas.imu_accel[i]
        if fix >= 0:
            m = m + gains[fix] @ (next(fixes) - model.H @ m)
        means[i] = m
    cov = np.zeros((STATE_DIM, STATE_DIM))
    cov[:3, :3] = cov[3:, 3:] = covs[-1][[[0, 1, 2], [1, 3, 4], [2, 4, 5]]]
    return OnsetState(GaussianBelief(m, cov), _window(cfg, means), model, truth)


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outage-window results of a single seeded run, or of a block of runs.

    All sequences share the outage timestamps; index 0 is the shared
    branch point at onset, where every predictor coincides with the
    filter's last belief. For a block, `seed` is a (runs,) array and
    `paths` and `errors` have a leading run axis, as
    `Trajectory.states` does; `times` and `truth_xy` are shared.
    """

    seed: int | np.ndarray
    times: np.ndarray
    truth_xy: np.ndarray
    paths: dict[str, np.ndarray]
    errors: dict[str, np.ndarray]

    def run(self, k: int) -> RunRecord:
        """Run k of a block's record, in copies: it keeps none of the block's
        per-run arrays alive."""
        return RunRecord(int(self.seed[k]), self.times, self.truth_xy,
                         {name: path[k].copy() for name, path in self.paths.items()},
                         {name: err[k].copy() for name, err in self.errors.items()})


def _record(cfg: ScenarioConfig, seed, truth: Trajectory, window: Trajectory,
            ukf: np.ndarray, vhd: np.ndarray) -> RunRecord:
    """One run's record from its (T + 1, 6) ukf and vhd means, or a block's from
    (runs, T + 1, 6) ones. Row 0 of the means is the onset belief; it also
    opens the Lagrange path."""
    times = cfg.outage_start + np.arange(cfg.outage_steps + 1) * cfg.dt
    truth_xy = truth.states[cfg.onset_step :, [PX, PY]]  # the truth ends at the outage end
    ukf, vhd = ukf[..., [PX, PY]], vhd[..., [PX, PY]]
    lagrange = lagrange_extrapolate(window, times[1:], cfg.lagrange_nodes)
    paths = {"ukf": ukf, "lagrange": np.concatenate([ukf[..., :1, :], lagrange], axis=-2), "vhd": vhd}
    errors = {name: np.linalg.norm(paths[name] - truth_xy, axis=-1) for name in PREDICTORS}
    return RunRecord(seed, times, truth_xy, paths, errors)


def run_scenario(cfg: ScenarioConfig, seed: int) -> RunRecord:
    """Track to onset, then branch the three predictors over the outage.

    Before the outage, the engine's `_outage_schedule` checks its
    covariances, so a config that overflows the filter or makes an
    innovation covariance singular fails with the engine's ConfigError. The
    6x6 beliefs alone would not always: where the `vhd` covariance collapses
    to rounding level, the sign of s is set by the last bits, and their
    products may keep it positive where the schedule's floats do not."""
    onset = track_to_outage(cfg, seed)
    b0, model, T = onset.belief, onset.model, cfg.outage_steps
    _outage_schedule(cfg, model, b0.cov[tuple(zip(*_AXIS_ENTRIES))])
    ukf = [b0] + open_loop_predict(b0, model, T)
    vhd = [b0] + run_outage(b0, onset.window, cfg, T, model)
    means = [np.array([b.mean for b in beliefs]) for beliefs in (ukf, vhd)]
    return _record(cfg, seed, onset.truth, onset.window, *means)


# ----------------------------------------------------------------------
# gain schedule
# ----------------------------------------------------------------------

def _overflow(what: str, step: int | None = None) -> ConfigError:
    at = "" if step is None else f" at step {step}"
    return ConfigError(f"the filter {what} is not finite{at}: the config's values overflow the filter")


def _singular(step: int) -> ConfigError:
    # The covariance depends on the config alone, so a singular one is the
    # config's fault, as an overflowing one is.
    return ConfigError(f"the filter innovation covariance is singular or not positive definite at step {step}")


# The unique entries of a symmetric 3x3 covariance block, in the order the
# schedules keep them.
_AXIS_ENTRIES = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

# The initial belief covariance of either axis, as `_AXIS_ENTRIES`: sigma
# 1 m, 0.5 m/s, 0.2 m/s^2, uncorrelated.
_P0_AXIS = (1.0, 0.0, 0.0, 0.25, 0.0, 0.04)


def _axis_model(model: CaModel) -> tuple[tuple, tuple]:
    """F's (dt, dt^2 / 2) and the `_AXIS_ENTRIES` of Q's block, as floats."""
    return (float(model.F[0, 1]), float(model.F[0, 2])), tuple(float(model.Q[e]) for e in _AXIS_ENTRIES)


def _axis_predicted(p: tuple, f: tuple, q: tuple) -> tuple:
    """`predict`'s covariance of one axis's 3x3 block in floats: (F P) F^T + Q,
    from and to the six `_AXIS_ENTRIES` of P, with F's (dt, dt^2 / 2) as `f`
    and the entries of Q's block as `q`."""
    p00, p01, p02, p11, p12, p22 = p
    dt, h = f
    # Rows 0 and 1 of F P; row 2 is P's.
    a00, a01, a02 = p00 + dt * p01 + h * p02, p01 + dt * p11 + h * p12, p02 + dt * p12 + h * p22
    a11, a12 = p11 + dt * p12, p12 + dt * p22
    return (a00 + dt * a01 + h * a02 + q[0], a01 + dt * a02 + q[1], a02 + q[2],
            a11 + dt * a12 + q[3], a12 + q[4], p22 + q[5])


def _axis_fix(p: tuple, r: float) -> tuple[tuple, float, tuple]:
    """`update`'s covariance half for one axis's measurement of entry 0 with
    variance r, in floats: the Joseph covariance (I - k H) P (I - k H)^T +
    r k k^T, the innovation variance s = p00 + r and the gain k = P[:, 0] / s.
    An s of 0 gives a NaN gain, and so a NaN covariance."""
    p00, p01, p02, p11, p12, p22 = p
    s = p00 + r
    k0, k1, k2 = (p00 / s, p01 / s, p02 / s) if s else (math.nan,) * 3
    a = 1.0 - k0
    # B = (I - k H) P, whose rows 1 and 2 are P's less k1 and k2 times row 0
    b00, b01, b02 = a * p00, a * p01, a * p02
    b10, b11, b12 = p01 - k1 * p00, p11 - k1 * p01, p12 - k1 * p02
    b20, b22 = p02 - k2 * p00, p22 - k2 * p02
    rk0, rk1, rk2 = k0 * r, k1 * r, k2 * r
    cov = (a * b00 + rk0 * k0, b01 - k1 * b00 + rk0 * k1, b02 - k2 * b00 + rk0 * k2,
           b11 - k1 * b10 + rk1 * k1, b12 - k2 * b10 + rk1 * k2, b22 - k2 * b20 + rk2 * k2)
    return cov, s, (k0, k1, k2)


def _check(table: np.ndarray, s: int, steps) -> None:
    """Raise the reference's ConfigError at the first failing row of a
    schedule's table, naming the row's step, `steps[row]`.

    Column s of a row is an update's innovation variance and the next three
    its gain; every other column is a covariance entry, and those before s
    come before the update. A row fails on a covariance entry that is not
    finite (an overflow) or on s <= 0 (a singular S, unless an entry before
    s is not finite). A NaN or infinite s passes, as it passes
    `np.linalg.cholesky` in `update`; a NaN one makes the covariance after
    it NaN."""
    covs = np.delete(table, np.s_[s : s + 4], axis=1)
    ok = np.isfinite(covs).all(axis=1) & ~(table[:, s] <= 0.0)
    if not ok.all():
        row = int(ok.argmin())
        if table[row, s] <= 0.0 and np.isfinite(table[row, :s]).all():
            raise _singular(int(steps[row]))
        raise _overflow("covariance", int(steps[row]))


def _tracking_schedule(cfg: ScenarioConfig, model: CaModel) -> tuple[np.ndarray, ...]:
    """The tracking half of `_gain_schedule`, as `_outage_schedule` computes
    the outage half: per axis, in floats.

    Each step 1 .. onset_step predicts, takes the accelerometer update and,
    on a fix step (`cfg.fix_steps`), the position fix. The accelerometer
    measures an axis's entry 2 with variance accel_white_noise^2: it is
    `_axis_fix` on the block permuted so that entry 2 comes first. The fix
    measures entry 0 with variance position_fix_noise^2. Each update appends
    one row to one table: its step, s, k (in state order) and the covariance
    after it. One mask checks the table (`_check`).

    Every full fix period has the same updates, so its start covariance sets
    its rows. Once a period starts where an earlier one started, every later
    full period repeats the cycle between them and computes nothing; the
    last segment, from the last fix to the onset, is always computed.

    Returns each row's (6, 2) gain and the six `_AXIS_ENTRIES` of the
    covariance after it, and per step 1 .. onset_step the row of its
    accelerometer update and the row of its fix update, -1 on a step without
    a fix: the means loops read the fix steps from these rows alone. The
    last row is the onset step's, so its covariance is the onset
    covariance."""
    f, q = _axis_model(model)
    r_acc, r_fix = cfg.accel_white_noise**2, cfg.position_fix_noise**2
    period, full = min(cfg.fix_period_steps, cfg.onset_step), cfg.fix_steps.size
    rows = array("d")

    def segment(cov: tuple, first: int, count: int, fix: bool) -> tuple:
        for i in range(first, first + count):
            p00, p01, p02, p11, p12, p22 = _axis_predicted(cov, f, q)
            (c22, c02, c12, c00, c01, c11), s, (k2, k0, k1) = _axis_fix((p22, p02, p12, p00, p01, p11), r_acc)
            cov = (c00, c01, c02, c11, c12, c22)
            rows.extend((i, s, k0, k1, k2, *cov))
        if fix:
            cov, s, k = _axis_fix(cov, r_fix)
            rows.extend((i, s, *k, *cov))
        return cov

    # starts[p] is the covariance at the start of full period p; seen maps
    # each to its period.
    starts, seen = [_P0_AXIS], {}
    while len(starts) <= full and starts[-1] not in seen:
        seen[starts[-1]] = len(starts) - 1
        starts.append(segment(starts[-1], (len(starts) - 1) * period + 1, period, True))
    done = len(starts) - 1
    # The computed period whose rows each full period takes, and whose start
    # the last segment takes.
    source = np.arange(full + 1)
    if done < full:
        cycle_start = seen[starts[-1]]
        source[done:] = cycle_start + (source[done:] - cycle_start) % (done - cycle_start)
    segment(starts[source[-1]], full * period + 1, cfg.onset_step - full * period, False)
    table = np.frombuffer(rows).reshape(-1, 11)
    _check(table, 1, table[:, 0])
    periods = (source[:-1, None] * (period + 1) + np.arange(period)).ravel()
    last = done * (period + 1) + np.arange(cfg.onset_step - full * period)
    fix_rows = np.full(cfg.onset_step, -1)
    fix_rows[period - 1 : full * period : period] = source[:-1] * (period + 1) + period
    # Each row's (6, 2) gain: the x axis's update in column 0, the y axis's in column 1.
    gains = np.zeros((len(table), STATE_DIM, 2))
    gains[:, :3, 0] = gains[:, 3:, 1] = table[:, 2:5]
    return gains, table[:, 5:], np.concatenate([periods, last]), fix_rows


def _outage_schedule(cfg: ScenarioConfig, model: CaModel, onset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outage half of `_gain_schedule`, from the onset covariance's six
    `_AXIS_ENTRIES`, as in open_loop_predict and run_outage: the (T, 3)
    `vhd` gain k of each step's update of either axis, and the covariances.

    The onset covariance is two equal 3x3 blocks with a zero cross block, and
    F, Q and each outage update (a position fix with R = r I) keep it so. So
    each predictor's step is that of one axis, in floats: six covariance
    entries, and for `vhd` one innovation variance s and one gain k.

    Each step appends its 16 floats (`ukf`'s entries, s, k and `vhd`'s
    entries) to one array, and one mask checks them all (`_check`)."""
    f, q = _axis_model(model)
    ukf = vhd = tuple(onset.tolist())
    rows = array("d")
    for k in range(1, cfg.outage_steps + 1):
        ukf = _axis_predicted(ukf, f, q)
        vhd, s, gain = _axis_fix(_axis_predicted(vhd, f, q), adaptive_variance(cfg, k * cfg.dt))
        rows.extend((*ukf, s, *gain, *vhd))
    table = np.frombuffer(rows).reshape(-1, 16)
    _check(table, 6, range(cfg.onset_step + 1, cfg.onset_step + 1 + len(table)))
    return table[:, 7:10].copy(), np.delete(table, np.s_[6:10], axis=1).reshape(-1, 2, 6)


def _gain_schedule(cfg: ScenarioConfig, model: CaModel) -> tuple[np.ndarray, ...]:
    """Every gain of a run, from the config alone: the tracking gains and
    each step's accelerometer and fix rows of them (`_tracking_schedule`);
    the (T, 3) per-axis `vhd` gains of the outage; and the (T, 2, 6) `ukf` and
    `vhd` covariances after each outage step, as the six `_AXIS_ENTRIES` of
    either 3x3 block (`_outage_schedule`). Both halves step one axis in floats, and one mask
    checks each half's table: a config that overflows the filter, or makes
    an innovation covariance singular, raises ConfigError at the step at
    which the reference fails."""
    gains, covs, acc_rows, fix_rows = _tracking_schedule(cfg, model)
    return gains, acc_rows, fix_rows, *_outage_schedule(cfg, model, covs[-1])


def _tracking_transitions(gains: np.ndarray, model: CaModel) -> np.ndarray:
    """The (rows, 6, 6) mean transition M = (I - K H_acc) F of each tracking
    gain row K: a step's predict and accelerometer update take a mean m to
    M m + K z. It depends on the config alone, as the gains do. F keeps each
    acceleration, so H_acc F = H_acc and M is F less K in the acceleration
    columns: `(I - K @ H_acc) @ F` gives the same bits, but through two
    temporaries of M's size."""
    transitions = np.repeat(model.F[None], len(gains), axis=0)
    transitions[..., [AX, AY]] -= gains
    return transitions


# ----------------------------------------------------------------------
# block of runs in lockstep
# ----------------------------------------------------------------------

def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise _overflow(what)
    return values


@np.errstate(over="ignore", invalid="ignore")
def run_block(cfg: ScenarioConfig, seeds) -> RunRecord:
    """Run a block of seeds in lockstep; its record's run k equals
    run_scenario(cfg, seeds[k]), bit for bit but for the `vhd` path (see
    below).

    `_gain_schedule` computes each gain once, before anything is drawn, and
    each step's predict and update fold into a transition of the config
    alone: `m_i = M_i m_{i-1} + K_i z_i`. Then the truth is generated once,
    each seed gets its own measurements, and each run is that linear
    recurrence on its mean. Every step's measurement term `K_i z_i` is
    written before the loop, one exact product per entry; the loop then
    adds one stacked product per step. The block's means are one
    (runs, 6, 1) stack of columns: the stacked matmul rounds each column as
    track_to_outage's loop rounds a 1-D mean (`einsum` or `m @ M.T` would
    not, and the polynomial extrapolations amplify that). On a fix step the
    tracking loop applies the fix row's gain to the next stacked fix, as
    `update` does. The window fit and the Lagrange interpolant are each one
    broadcast solve for the block.

    The tracking gains, transitions and onset covariance are the
    reference's own (`_tracking_schedule`, `_tracking_transitions`), so the
    tracked means and the window are its bit for bit. The outage `ukf` means
    step `F @ m` as `open_loop_predict` does. The `vhd` means step per axis
    with the (T, 3, 3) transitions `(I - k e0^T) F` of the per-axis float
    gains (`_outage_schedule`), where the reference's `run_outage` uses
    numpy's 6x6 `predict` and `update`, so the `vhd` path differs from the
    reference's in the last bits: by about 1e-12 m over a 300 s outage.

    `_gain_schedule` checks the covariances with one mask per phase, and the
    means are checked once per phase. A config that overflows the filter, or
    makes its innovation covariance singular, raises ConfigError, before any
    draw if the covariance is at fault, naming the step at which the
    reference fails. A config whose truth is not finite
    raises ConfigError before any sensor stream is drawn, and one whose
    accelerometer readings are not finite (their bias walk overflows)
    before any tracking, naming the block's first such step. The whole block
    runs with numpy's overflow and invalid-value warnings off, so that error
    is all such a config reports.
    """
    seeds = [int(s) for s in seeds]
    runs = len(seeds)
    model = ca_model(cfg.dt, cfg.sigma_jerk)
    gains, acc_rows, fix_rows, vhd_gains, _ = _gain_schedule(cfg, model)
    transitions = _tracking_transitions(gains, model)
    # The vhd update of an axis measures its entry 0 with gain k, so its
    # transition (I - k e0^T) F is F less k times F's row 0.
    vhd_transitions = vhd_gains[:, :, None] * -model.F[0, :3]
    vhd_transitions += model.F[:3, :3]
    truth = generate_truth(cfg)
    finite = np.isfinite(truth.states).all(axis=1)
    if not finite.all():
        raise ConfigError(f"the truth is not finite at step {np.argmin(finite)}: the config's trajectory or current overflows it")
    meas = [simulate_measurements(truth, cfg, s) for s in seeds]
    imu = np.stack([ms.imu_accel for ms in meas])
    fixes = iter(np.stack([ms.fix_values for ms in meas], axis=1)[..., None])
    del meas
    finite = np.isfinite(imu).all(axis=(0, 2))
    if not finite.all():
        raise ConfigError(f"the accelerometer readings are not finite at step {np.argmin(finite)}: the config's sensor values overflow them")
    # Each step as in track_to_outage: every step's accelerometer term K z
    # first, one exact product per entry; then per step the transition and,
    # on a fix step, `update`'s expression with the next fix.
    tracked = np.empty((runs, cfg.onset_step + 1, STATE_DIM, 1))
    tracked[:, 0] = truth.states[0][:, None]
    np.multiply(gains[acc_rows, :3, 0][:, None], imu[:, 1:, :, None], out=tracked.reshape(runs, -1, 2, 3)[:, 1:])
    del imu
    # The loops walk views of one step's (runs, 6, 1) means.
    steps = np.moveaxis(tracked, 1, 0)
    for prev, means, row, fix in zip(steps, steps[1:], acc_rows, fix_rows):
        means += transitions[row] @ prev
        if fix >= 0:
            means += gains[fix] @ (next(fixes) - model.H @ means)
    window = _window(cfg, _finite(tracked, "means")[..., 0])
    # prev and means are views of tracked, and would keep it alive.
    del fixes, tracked, steps, prev, means, gains, transitions, acc_rows, fix_rows

    # Outage, as in open_loop_predict and run_outage.
    T = cfg.outage_steps
    poly = fit_polynomial(window, cfg.poly_degree)
    # (runs, T, 2): the virtual fixes of each outage step
    virtual = poly.position(poly.window_end + np.arange(1, T + 1) * cfg.dt)
    paths = np.empty((2, runs, T + 1, STATE_DIM, 1))
    paths[:, :, 0] = window.states[:, -1, :, None]
    # The vhd means as one (3, 1) column per run and axis: every step's K z
    # first, then one product per step for both axes.
    vhd = paths[1].reshape(runs, T + 1, 2, 3, 1)
    np.multiply(vhd_gains[:, None], virtual[..., None], out=vhd[:, 1:, ..., 0])
    del virtual
    ukf, vhd = np.moveaxis(paths[0], 1, 0), np.moveaxis(vhd, 1, 0)
    for ukf_prev, ukf_means, vhd_prev, vhd_means, M in zip(ukf, ukf[1:], vhd, vhd[1:], vhd_transitions):
        np.matmul(model.F, ukf_prev, out=ukf_means)
        vhd_means += M @ vhd_prev
    ukf, vhd = _finite(paths, "means")[..., 0]
    return _record(cfg, np.array(seeds), truth, window, ukf, vhd)


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
