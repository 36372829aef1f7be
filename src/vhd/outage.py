"""The reference outage loop: virtual measurements with adaptive confidence,
stepped through numpy's 6x6 `predict` and `update`.

While no real fixes arrive, the filter is fed synthetic position
measurements taken from the history polynomial. Their noise covariance
R*_k = R_base * (1 + alpha * elapsed^p) starts at R_base (the filter
trusts recent history) and inflates with the time elapsed since the
outage began, handing weight back to the motion model as the
extrapolation ages. R_base, alpha and p are the run's `ScenarioConfig`
fields r_base, alpha and p: of the config, the functions here read only
those and, for the fit, poly_degree. The scalar schedule,
`adaptive_variance`, lives beside `ScenarioConfig` in `config`; `simkit`'s
engine steps the same outage per axis in floats. `run_scenario` runs this
loop as the per-run reference that the tests hold the engine to. It lives
here so that a batch's process never loads or compiles it, and it calls
the engine's helpers through `simkit`, where the tests patch them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simkit
from .estimator import GaussianBelief, _identity, predict, update
from .history import PolyModel, Trajectory, fit_polynomial
from .kinematics import PX, PY, STATE_DIM, CaModel, ca_model
from .config import ScenarioConfig, adaptive_variance
from .simkit import RunRecord


def adaptive_noise(cfg: ScenarioConfig, elapsed: float) -> np.ndarray:
    """Virtual-measurement noise covariance after `elapsed` seconds: the 2x2
    R(elapsed) * I of `adaptive_variance`, of `cfg`'s r_base, alpha and p only."""
    return adaptive_variance(cfg, elapsed) * _identity(2)


def vhd_outage_step(
    b: GaussianBelief,
    poly: PolyModel,
    cfg: ScenarioConfig,
    elapsed: float,
    model: CaModel,
) -> GaussianBelief:
    """One outage step: predict, then assimilate the virtual measurement.

    `elapsed` is the outage age of the step being produced: the belief is
    advanced one model step, the polynomial supplies z at
    window_end + elapsed, and the schedule (`cfg`'s r_base, alpha and p only)
    supplies R for that age.
    """
    predicted = predict(b, model)
    z = poly.position(poly.window_end + elapsed)
    return update(predicted, z, adaptive_noise(cfg, elapsed), model.H)


def run_outage(
    b: GaussianBelief,
    w: Trajectory,
    cfg: ScenarioConfig,
    T_steps: int,
    model: CaModel,
) -> list[GaussianBelief]:
    """Run the full outage loop from the belief at the last real fix.

    The history polynomial is fitted once, at onset (no new data arrives
    during the outage), then each step k predicts through the motion model
    and assimilates the polynomial's position at outage age k * dt with
    the noise scheduled by `cfg`'s r_base, alpha and p; `cfg.poly_degree`
    sets the fit. The outage starts at the window's final timestamp.

    Returns the beliefs after steps 1..T_steps.
    """
    if T_steps < 1:
        raise ValueError(f"T_steps must be >= 1, got {T_steps}")
    poly = fit_polynomial(w, cfg.poly_degree)
    out = []
    belief = b
    for k in range(1, T_steps + 1):
        belief = vhd_outage_step(belief, poly, cfg, k * model.dt, model)
        out.append(belief)
    return out


@dataclass(frozen=True, eq=False)
class OnsetState:
    """Everything known at the moment the outage begins."""

    belief: GaussianBelief
    window: Trajectory
    model: CaModel
    truth: Trajectory


def track_to_outage(cfg: ScenarioConfig, seed: int) -> OnsetState:
    """Run the tracking filter from t = 0 to the outage onset for one run,
    with the maps, the onset covariance and the `_tracked` that `run_block` uses."""
    model = ca_model(cfg.dt, cfg.sigma_jerk)
    maps, rows, onset = simkit._tracking_maps(cfg, model)
    truth, means = simkit._tracked(cfg, *simkit._compose(maps, rows, cfg.window_period_steps), [seed])
    cov = np.zeros((STATE_DIM, STATE_DIM))
    cov[:3, :3] = cov[3:, 3:] = onset[[[0, 1, 2], [1, 3, 4], [2, 4, 5]]]
    return OnsetState(GaussianBelief(means[0, -1], cov), simkit._window(cfg, means[0]), model, truth)


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
    onset = track_to_outage(cfg, seed)
    b0, model, T = onset.belief, onset.model, cfg.outage_steps
    simkit._outage_schedule(cfg, model, b0.cov[tuple(zip(*simkit._AXIS_ENTRIES))])
    ukf = simkit._finite(simkit._open_loop_positions(cfg, b0.mean), "means")
    simkit._finite(simkit._virtual_fixes(cfg, onset.window), "means")
    vhd = [b0] + run_outage(b0, onset.window, cfg, T, model)
    return simkit._record(cfg, seed, onset.truth, onset.window, ukf, np.array([b.mean for b in vhd])[:, [PX, PY]])
