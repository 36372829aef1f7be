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
`adaptive_variance`, lives beside `ScenarioConfig` in `simkit`, whose
engine steps the same outage per axis in floats; `run_scenario` runs this
loop as the per-run reference that the tests hold the engine to, and a
batch never loads this module.
"""

from __future__ import annotations

import numpy as np

from .estimator import GaussianBelief, _identity, predict, update
from .history import PolyModel, Trajectory, fit_polynomial
from .kinematics import CaModel
from .simkit import ScenarioConfig, adaptive_variance


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
