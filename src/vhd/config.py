"""The run's configuration: `ScenarioConfig`, one field per config key with
every check a run needs before it starts, and `adaptive_variance`, the `vhd`
noise schedule. It compiles apart from `simkit`: in a process that does not
cache bytecode, the largest module's compile sets the peak memory."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .history import _vandermonde

_GRID_TOL = 1e-9

# Most steps a run may simulate (onset_step + outage_steps): about 1000x the
# longest benchmark run, and far below a grid whose truth cannot be allocated.
_MAX_STEPS = 10**7


class ConfigError(Exception):
    """A config file or config value the run cannot proceed with."""


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
        # A NaN passes every comparison below (those above name it), so name it here.
        for f in fields(self):
            if f.type == "float" and math.isnan(getattr(self, f.name)):
                raise ValueError(f"ScenarioConfig invariant: {f.name} must not be NaN")
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
