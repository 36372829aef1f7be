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
execute serially or in blocks across forked worker processes (`_run_seeds`).

The filter covariance, and so every Kalman gain, depends on the config and
not on the data. `_gain_schedule` steps it once per axis in floats, before
any draw, folds each update into a per-axis map of the config alone
(`_fold`) and composes the maps of each window period, and of each block of
`vhd` outage steps, into one. `run_block` steps a block of seeds in
lockstep through them, one stacked product per period and per block
(`_step`); the `ukf` positions are a closed form of the onset mean.
`run_scenario` is the per-run reference that the tests compare it against:
it shares the onset path (`_tracked`: the truth, the streams, their checks
and the tracking) and the `ukf` closed form, and so the engine's errors; its
`vhd` outage steps numpy's 6x6 beliefs, and differs in the last bits. It
imports `estimator` and `outage` when it runs, so a batch loads neither.
"""

from __future__ import annotations

import math
import os
import pickle
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .history import Trajectory, _vandermonde, fit_polynomial, lagrange_extrapolate
from .kinematics import AX, AY, CaModel, PX, PY, STATE_DIM, VX, VY, ca_model

if TYPE_CHECKING:
    from .estimator import GaussianBelief

PREDICTORS = ("ukf", "lagrange", "vhd")

_GRID_TOL = 1e-9

# Outage steps per composed `vhd` block; not the window period, whose c may be 1000.
_OUTAGE_BLOCK = 10

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
    the outage. r_base, alpha and p are `adaptive_variance`'s vhd noise
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


def adaptive_variance(cfg: ScenarioConfig, elapsed: float) -> float:
    """Variance of each virtual-fix coordinate after `elapsed` seconds, of
    `cfg`'s r_base, alpha and p only: R(elapsed) = r_base * (1 + alpha *
    elapsed**p); equals r_base exactly at elapsed = 0 and is monotone
    non-decreasing in elapsed."""
    if not elapsed >= 0.0:
        raise ValueError(f"elapsed must be >= 0, got {elapsed}")
    return cfg.r_base * (1.0 + cfg.alpha * elapsed**cfg.p)


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


def simulate_measurements(truth: Trajectory, cfg: ScenarioConfig, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Generate a block's sensor streams, from t = 0 to the onset: the
    (runs, len(cfg.fix_steps), 2) noisy position fixes and the (runs,
    onset_step + 1, 2) accelerometer readings (true acceleration +
    accumulated bias + white noise), run k's from `seeds[k]` alone.

    Position fixes arrive at `cfg.fix_steps`: every fix period starting at
    the first period boundary after t = 0, up to the onset. The
    accelerometer reports every step with white noise plus a bias that
    accumulates an independent Gaussian increment per step (zero bias at
    step 0).

    The three noise streams of a run draw from independent child generators
    spawned from its seed, so the realization of one stream does not depend
    on the sizing of another, nor a run's on the block's other seeds.
    """
    n1 = cfg.onset_step + 1
    positions, accel = truth.positions[cfg.fix_steps], truth.accelerations[:n1]
    fixes = np.empty((len(seeds), len(positions), 2))
    imu = np.empty((len(seeds), n1, 2))
    for k, seed in enumerate(seeds):
        fix_rng, white_rng, bias_rng = (np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(3))
        fixes[k] = positions + fix_rng.normal(0.0, cfg.position_fix_noise, size=positions.shape)
        # (accel + bias) + white, summed in the run's row: besides the block's
        # arrays, only the bias walk and the white noise are held.
        bias = bias_rng.normal(0.0, cfg.accel_bias_walk, size=(n1, 2))
        bias[0] = 0.0
        np.add(accel, np.cumsum(bias, axis=0, out=bias), out=imu[k])
        imu[k] += white_rng.normal(0.0, cfg.accel_white_noise, size=(n1, 2))
    return fixes, imu


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
    """The history window, which ends at the onset mean: the last rows of
    `_tracked`'s means of one run or a block. `np.take` lays each run's
    samples out as one run's are, so a block's fit rounds as each run's would."""
    return Trajectory(cfg.window_steps * cfg.dt, np.take(means, range(-cfg.window_capacity, 0), axis=-2))


def _step(composed: np.ndarray, segment, start: np.ndarray, readings: np.ndarray, fixes=None) -> np.ndarray:
    """Step a block of runs through `_compose`'s maps, one stacked product per
    segment, from the (6,) or (runs, 6) start mean, a (runs, n, 2) reading of
    each step 1 .. n and, with `fixes` (steps, (runs, len(steps), 2)), a
    second reading of the fix steps (0 on the others). Returns the (segments
    + 1, runs, 2, 3 + rc, 1) buffer: per axis, each segment's start mean and
    its readings as its map reads them, padded at the front as `_compose` pads."""
    r = 1 if fixes is None else 2
    runs, n = readings.shape[:2]
    c = (composed.shape[-1] - 3) // r
    pad = len(segment) * c - n
    buffer = np.zeros((len(segment) + 1, runs, 2, 3 + r * c, 1))
    buffer[0, :, :, :3, 0] = start.reshape(-1, 2, 3)
    # (runs, segments, c, 2) views of a reading column: step i lies at divmod(i - 1 + pad, c)
    first = buffer[:-1, :, :, 3::r, 0].transpose(1, 0, 3, 2)
    first[:, 0, pad:] = readings[:, : c - pad]
    first[:, 1:] = readings[:, c - pad :].reshape(runs, -1, c, 2)
    if fixes is not None:
        steps, values = fixes
        buffer[:-1, :, :, 4::2, 0].transpose(1, 0, 3, 2)[(slice(None), *divmod(steps - 1 + pad, c))] = values
    for s, prev, means in zip(segment, buffer, buffer[1:, ..., :3, :]):
        np.matmul(composed[s], prev, out=means)
    return buffer


@np.errstate(over="ignore", invalid="ignore")
def _tracked(cfg: ScenarioConfig, composed: np.ndarray, segment: list, seeds) -> tuple[Trajectory, np.ndarray]:
    """The truth and a block's (runs, periods + 1, 6) means at the start and
    at each window period's end: the block's streams, stepped by `_step`.

    A config whose truth is not finite raises ConfigError before any sensor
    stream is drawn, and one whose accelerometer readings are not finite
    (their bias walk overflows) before any tracking, naming the block's first
    such step; means that are not finite raise it after. With numpy's
    overflow and invalid-value warnings off, that error is all such a config
    reports, from `run_block` and `track_to_outage` alike."""
    truth = generate_truth(cfg)
    finite = np.isfinite(truth.states).all(axis=1)
    if not finite.all():
        raise ConfigError(f"the truth is not finite at step {np.argmin(finite)}: the config's trajectory or current overflows it")
    fixes, imu = simulate_measurements(truth, cfg, seeds)
    finite = np.isfinite(imu).all(axis=(0, 2))
    if not finite.all():
        raise ConfigError(f"the accelerometer readings are not finite at step {np.argmin(finite)}: the config's sensor values overflow them")
    buffer = _step(composed, segment, truth.states[0], imu[:, 1:], (cfg.fix_steps, fixes))
    return truth, _finite(np.moveaxis(buffer[..., :3, 0], 0, 1).reshape(len(seeds), -1, STATE_DIM), "means")


def track_to_outage(cfg: ScenarioConfig, seed: int) -> OnsetState:
    """Run the tracking filter from t = 0 to the outage onset for one run,
    with the maps, the onset covariance and the `_tracked` that `run_block` uses."""
    from .estimator import GaussianBelief

    model = ca_model(cfg.dt, cfg.sigma_jerk)
    maps, rows, onset = _tracking_maps(cfg, model)
    truth, means = _tracked(cfg, *_compose(maps, rows, cfg.window_period_steps), [seed])
    cov = np.zeros((STATE_DIM, STATE_DIM))
    cov[:3, :3] = cov[3:, 3:] = onset[[[0, 1, 2], [1, 3, 4], [2, 4, 5]]]
    return OnsetState(GaussianBelief(means[0, -1], cov), _window(cfg, means[0]), model, truth)


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
    """One run's record from its (T + 1, 2) ukf and vhd positions, or a
    block's from (runs, T + 1, 2) ones. Row 0 is the onset mean's; it also
    opens the Lagrange path."""
    times = cfg.outage_start + np.arange(cfg.outage_steps + 1) * cfg.dt
    truth_xy = truth.states[cfg.onset_step :, [PX, PY]]  # the truth ends at the outage end
    lagrange = lagrange_extrapolate(window, times[1:], cfg.lagrange_nodes)
    paths = {"ukf": ukf, "lagrange": np.concatenate([ukf[..., :1, :], lagrange], axis=-2), "vhd": vhd}
    errors = {name: np.linalg.norm(paths[name] - truth_xy, axis=-1) for name in PREDICTORS}
    return RunRecord(seed, times, truth_xy, paths, errors)


def _virtual_fixes(cfg: ScenarioConfig, window: Trajectory) -> np.ndarray:
    """The (..., T, 2) virtual fixes of the outage steps, as `run_outage`
    takes them: the window fit's position at each step's outage age."""
    poly = fit_polynomial(window, cfg.poly_degree)
    return poly.position(poly.window_end + np.arange(1, cfg.outage_steps + 1) * cfg.dt)


def _open_loop_positions(cfg: ScenarioConfig, onset: np.ndarray) -> np.ndarray:
    """The `ukf` positions of the outage, (..., T + 1, 2), from (..., 6) onset
    means: row 0 of F^k is [1, t, t^2 / 2] per axis, with t = k dt, so step
    k's position is p + t v + (t^2 / 2) a. Row 0 is the onset mean's, copied:
    `0 * v` would turn a -0.0 into 0.0. Every step is elementwise, so it
    rounds alike for any number of runs and under any BLAS kernel."""
    t = (np.arange(1, cfg.outage_steps + 1) * cfg.dt)[:, None]
    p, v, a = (onset[..., None, [i, i + 3]] for i in (PX, VX, AX))
    xy = np.empty(onset.shape[:-1] + (cfg.outage_steps + 1, 2))
    xy[..., 0, :] = onset[..., [PX, PY]]
    xy[..., 1:, :] = p + t * v + (t**2 / 2) * a
    return xy


@np.errstate(over="ignore", invalid="ignore")
def run_scenario(cfg: ScenarioConfig, seed: int) -> RunRecord:
    """Track to onset, then branch the three predictors over the outage: the
    `ukf` positions in closed form, as `run_block` computes them, and the
    `vhd` path by numpy's 6x6 `predict` and `update`.

    Before the outage, the engine's `_outage_schedule` checks its
    covariances, so a config that overflows the filter or makes an
    innovation covariance singular fails with the engine's ConfigError. The
    6x6 beliefs alone would not always: where the `vhd` covariance collapses
    to rounding level, the sign of s is set by the last bits, and their
    products may keep it positive where the schedule's floats do not. With
    numpy's overflow and invalid-value warnings off, as in `run_block`, the
    virtual fixes are checked as the engine's means are, before the first
    update: a window fit that overflows raises the engine's ConfigError."""
    from .outage import run_outage

    onset = track_to_outage(cfg, seed)
    b0, model, T = onset.belief, onset.model, cfg.outage_steps
    _outage_schedule(cfg, model, b0.cov[tuple(zip(*_AXIS_ENTRIES))])
    ukf = _finite(_open_loop_positions(cfg, b0.mean), "means")
    _finite(_virtual_fixes(cfg, onset.window), "means")
    vhd = [b0] + run_outage(b0, onset.window, cfg, T, model)
    return _record(cfg, seed, onset.truth, onset.window, ukf, np.array([b.mean for b in vhd])[:, [PX, PY]])


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
    and the entries of Q's block as `q`. F^k has F's form with (k dt,
    (k dt)^2 / 2), and `f` and `q` may be arrays of steps."""
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

    Returns each row's per-axis gain k and the six `_AXIS_ENTRIES` of the
    covariance after it, and per step 1 .. onset_step the row of its
    accelerometer update and of its fix update, -1 on a step without a fix.
    The last row is the onset step's, so its covariance is the onset's."""
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
    return table[:, 2:5], table[:, 5:], np.concatenate([periods, last]), fix_rows


@np.errstate(over="ignore", invalid="ignore")
def _outage_schedule(cfg: ScenarioConfig, model: CaModel, onset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outage half of `_gain_schedule`, from the onset covariance's six
    `_AXIS_ENTRIES`, as in open_loop_predict and run_outage: the (T, 3)
    `vhd` gain k of each step's update of either axis, and the (T, 2, 6)
    `ukf` and `vhd` covariances after each step.

    The onset covariance is two equal 3x3 blocks with a zero cross block, and
    F, Q and each outage update (a position fix with R = r I) keep it so. So
    each predictor's step is that of one axis: six covariance entries, and
    for `vhd` one innovation variance s and one gain k.

    The `ukf` covariance after k steps is F(t) P F(t)^T + Q(t) with t = k dt,
    as F and the white-jerk Q compose exactly over steps: `_axis_predicted`
    with F(t)'s (t, t^2 / 2), on every step at once. Each Q(t) term is
    grouped as q * (t**5 / 20), so that q * t**5 does not overflow on its
    own. The `vhd` steps run in floats, each appending its 10 floats (s, k
    and the entries) to one array. With the `ukf` entries first, they form
    one 16-column table, and one mask checks it (`_check`)."""
    f, q = _axis_model(model)
    vhd = p0 = tuple(onset.tolist())
    rows = array("d")
    for k in range(1, cfg.outage_steps + 1):
        vhd, s, gain = _axis_fix(_axis_predicted(vhd, f, q), adaptive_variance(cfg, k * cfg.dt))
        rows.extend((s, *gain, *vhd))
    t, q = np.arange(1, cfg.outage_steps + 1) * cfg.dt, cfg.sigma_jerk**2
    ukf = _axis_predicted(p0, (t, t**2 / 2), (q * (t**5 / 20), q * (t**4 / 8), q * (t**3 / 6),
                                               q * (t**3 / 3), q * (t**2 / 2), q * t))
    table = np.column_stack([*ukf, np.frombuffer(rows).reshape(-1, 10)])
    del ukf, rows
    _check(table, 6, range(cfg.onset_step + 1, cfg.onset_step + 1 + len(table)))
    return table[:, 7:10].copy(), np.delete(table, np.s_[6:10], axis=1).reshape(-1, 2, 6)


def _gain_schedule(cfg: ScenarioConfig, model: CaModel) -> tuple[np.ndarray, ...]:
    """Every gain of a run, from the config alone: the tracking's composed
    maps and each window period's segment of them (`_compose`); and the `vhd`
    outage's blocks of `_OUTAGE_BLOCK` steps and their prefix rows, composed
    alike. Both halves' covariances are checked, one mask per half's table
    (`_tracking_schedule`, `_outage_schedule`): a config that overflows the
    filter, or makes an innovation covariance singular, raises ConfigError
    at the step at which the reference fails. The outage covariances are
    dropped once checked: nothing in a batch reads them."""
    maps, rows, onset = _tracking_maps(cfg, model)
    gains = _outage_schedule(cfg, model, onset)[0]
    # The vhd update of an axis measures its entry 0 after F; the identity last.
    vhd = np.concatenate([_fold(model.F[:3, :3], gains, 0), np.eye(3, 4)[None]])
    blocks, _, prefix = _compose(vhd, np.arange(len(gains)), _OUTAGE_BLOCK, prefix=True)
    return *_compose(maps, rows, cfg.window_period_steps), blocks, prefix


def _fold(maps: np.ndarray, k: np.ndarray, entry: int) -> np.ndarray:
    """(I - k e_entry^T) [A | b] with k appended, of (..., 3, m) maps [A | b]
    and (..., 3) gains k: [A | b], then an update of entry `entry` with gain
    k. The product is written out as [A | b] less k times its row `entry`."""
    folded = maps - k[..., None] * maps[..., entry : entry + 1, :]
    return np.concatenate([folded, k[..., None]], axis=-1)


def _tracking_maps(cfg: ScenarioConfig, model: CaModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-axis (rows + 1, 3, 5) maps [M | k_acc | k_fix] of
    `_tracking_schedule`'s rows, the identity last; each step's row, its fix
    row on a fix step; and the onset covariance's six `_AXIS_ENTRIES`. An
    accelerometer row's map is `_fold` of F on entry 2 (k_fix 0), and a fix
    row's `_fold` of its step's accelerometer map on entry 0."""
    k, covs, acc_rows, fix_rows = _tracking_schedule(cfg, model)
    fixed = fix_rows >= 0
    fix = fix_rows[fixed]
    maps = np.zeros((len(k) + 1, 3, 5))
    maps[:-1, :, :4] = _fold(model.F[:3, :3], k, 2)
    maps[fix] = _fold(maps[acc_rows[fixed], :, :4], k[fix], 0)
    maps[-1, :, :3] = np.eye(3)
    return maps, np.where(fixed, fix_rows, acc_rows), covs[-1]


def _compose(maps: np.ndarray, rows: np.ndarray, c: int, prefix: bool = False) -> tuple:
    """The per-axis (segments, 3, 3 + rc) map of each distinct run of c
    steps of `rows` of the (n + 1, 3, 3 + r) `maps` (the identity last), which
    takes an axis's [m; the r readings of each step] to its last mean, and
    each run's segment. Identity steps (row -1) pad the front, so that every
    segment ends on a run's last step. Each distinct segment, keyed by its
    rows' bytes, is composed once, forward as a mean is stepped: step t's
    maps, gathered for all segments, take every column. With `prefix`, also
    each step's row 0 of its partial map, (segments, c, 3 + rc): its position."""
    r = maps.shape[-1] - 3
    periods = np.concatenate([np.full(-len(rows) % c, -1), rows]).reshape(-1, c)
    index: dict[bytes, int] = {}
    segment = [index.setdefault(p.tobytes(), len(index)) for p in periods]
    distinct = np.frombuffer(b"".join(index), dtype=periods.dtype).reshape(-1, c)
    composed = np.zeros((len(distinct), 3, 3 + r * c))
    composed[:, :, :3] = np.eye(3)
    firsts = np.empty((len(distinct), c if prefix else 0, 3 + r * c))
    for t in range(c):
        step = maps[distinct[:, t]]
        composed[:, :, : 3 + r * t] = step[..., :3] @ composed[:, :, : 3 + r * t]
        composed[:, :, 3 + r * t : 3 + r * (t + 1)] = step[..., 3:]
        if prefix:
            firsts[:, t] = composed[:, 0]
    return (composed, segment, firsts) if prefix else (composed, segment)


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

    `_gain_schedule` computes each gain and each window period's composed
    map once, before anything is drawn. Then `_tracked`, which
    track_to_outage shares, generates the truth once, draws the block's
    streams in one call and steps the block one stacked product per period
    (`_step`), so the tracked means and the window are the reference's bit
    for bit: the
    stacked matmul rounds each run's column as it would a block of one
    (`einsum` or `m @ M.T` would not, and the polynomial extrapolations
    amplify that). The window fit and the Lagrange interpolant are each one
    broadcast solve for the block. The outage `ukf` positions are
    `_open_loop_positions`' closed form, which run_scenario shares, on every
    step and run at once. The `vhd` means step per axis through `_step`, one
    product per block of `_OUTAGE_BLOCK` steps of the float gains (`_outage_schedule`),
    and each step's position is its block's prefix row's; `run_outage` steps
    numpy's 6x6 `predict` and `update`, so the `vhd` path differs from the
    reference's in the last bits: by about 1e-12 m over a 300 s outage.

    `_gain_schedule` checks the covariances with one mask per phase, and the
    means are checked once per phase. A config that overflows the filter, or
    makes its innovation covariance singular, raises ConfigError, before any
    draw if the covariance is at fault, naming the step at which the
    reference fails; `_tracked` checks the truth and the streams. The whole
    block runs with numpy's overflow and invalid-value warnings off, so that
    error is all such a config reports.
    """
    seeds = [int(s) for s in seeds]
    model = ca_model(cfg.dt, cfg.sigma_jerk)
    composed, segment, blocks, prefix = _gain_schedule(cfg, model)
    truth, means = _tracked(cfg, composed, segment, seeds)
    window = _window(cfg, means)
    del means, composed, segment

    # Outage: the ukf positions in closed form, as in run_scenario; the vhd
    # means as in run_outage.
    T = cfg.outage_steps
    virtual = _virtual_fixes(cfg, window)
    ukf = _open_loop_positions(cfg, window.states[:, -1])
    buffer = _step(blocks, range(len(blocks)), window.states[:, -1], virtual)
    # (blocks, runs, 2, B): every step's position, from its block's column
    xy = (prefix[:, None, None] @ buffer[:-1])[..., 0]
    del virtual, blocks, prefix
    for values in (ukf, buffer, xy):
        _finite(values, "means")
    vhd = np.concatenate([ukf[:, :1], xy.transpose(1, 0, 3, 2).reshape(len(seeds), -1, 2)[:, -T:]], axis=1)
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


def _fork_block(cfg: ScenarioConfig, seeds) -> tuple[int, int]:
    """Fork a worker that sends run_block(cfg, seeds), or the exception it
    raises, as one pickle over its own pipe; the worker's pid and read end."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    try:  # the worker ends here, never in its caller
        try:
            payload = pickle.dumps(run_block(cfg, seeds))
        except Exception as exc:
            payload = pickle.dumps(exc)
        with open(write, "wb") as pipe:
            pipe.write(payload)
        os._exit(0)
    finally:
        os._exit(1)


def _join_block(pid: int, read: int) -> bytes:
    """Read a worker's pipe to its end and reap it: its pickle, or an error's."""
    with open(read, "rb") as pipe:
        payload = pipe.read()
    status = os.waitpid(pid, 0)[1]
    return payload or pickle.dumps(RuntimeError(f"a --jobs worker exited without its block (wait status {status})"))


def _run_seeds(cfg: ScenarioConfig, jobs: int) -> list[RunRecord]:
    """Block records of seeds base_seed .. base_seed + mc_runs - 1, in seed order.

    Serially the seeds are one block. With jobs > 1 they are cut into up to
    `jobs` contiguous blocks of near-equal size, one per forked worker. All
    workers are reaped before the blocks return or the first worker's
    exception is raised as the worker raised it.
    """
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.mc_runs)
    n = min(jobs, len(seeds))
    if n == 1:
        return [run_block(cfg, seeds)]
    workers = []
    try:
        for b in range(n):
            workers.append(_fork_block(cfg, seeds[len(seeds) * b // n : len(seeds) * (b + 1) // n]))
    finally:
        payloads = [_join_block(*worker) for worker in workers]
    blocks = [pickle.loads(payload) for payload in payloads]
    for block in blocks:
        if isinstance(block, Exception):
            raise block
    return blocks


def monte_carlo(cfg: ScenarioConfig, jobs: int = 1) -> McResult:
    """Run mc_runs seeded scenarios and aggregate their error series.

    Seeds are base_seed .. base_seed + mc_runs - 1, run in lockstep by
    `run_block`. With jobs > 1 each of up to `jobs` forked workers runs one
    contiguous block of seeds; the blocks' (runs, T + 1) errors are
    concatenated in seed order, so the aggregate is identical to the serial
    one. Errors that overflow a metric raise ConfigError, as does jobs > 1
    without os.fork, before any run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"--jobs {jobs} needs os.fork, which this platform lacks: use --jobs 1")
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
