"""Outage-time prediction: virtual measurements with adaptive confidence.

While no real fixes arrive, the filter is fed synthetic position
measurements taken from the history polynomial. Their noise covariance
R*_k = R_base * (1 + alpha * elapsed^p) starts at R_base (the filter
trusts recent history) and inflates with the time elapsed since the
outage began, handing weight back to the motion model as the
extrapolation ages. R_base, alpha and p are the run's `ScenarioConfig`
fields r_base, alpha and p: of the config, the functions here read only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .estimator import (
    GaussianBelief,
    _identity,
    gaussian_kl,
    kl_optimal_virtual_measurement,
    predict,
    update,
)
from .history import PolyModel, Trajectory, fit_polynomial, residual_covariance
from .kinematics import AX, AY, CaModel, VX, VY

if TYPE_CHECKING:
    from .simkit import ScenarioConfig

# Variance assigned to the velocity/acceleration diagonal of the history
# target covariance: effectively uninformative, so the target constrains
# position only.
_TARGET_SOFT_VARIANCE = 1e6


def adaptive_variance(cfg: ScenarioConfig, elapsed: float) -> float:
    """Variance of each virtual-fix coordinate after `elapsed` seconds, of
    `cfg`'s r_base, alpha and p only: R(elapsed) = r_base * (1 + alpha *
    elapsed**p); equals r_base exactly at elapsed = 0 and is monotone
    non-decreasing in elapsed."""
    if elapsed < 0.0:
        raise ValueError(f"elapsed must be >= 0, got {elapsed}")
    return cfg.r_base * (1.0 + cfg.alpha * elapsed**cfg.p)


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


@dataclass(frozen=True, eq=False)
class VirtualUpdateDiagnostic:
    """Per-step comparison of the polynomial value against the KL argmin.

    `z_poly` is the measurement actually assimilated; `z_kl` is the value
    that minimizes the KL divergence from the single-update posterior to
    the history target at the same step. `kl_poly` and `kl_opt` are the
    divergences achieved by each.
    """

    elapsed: float
    z_poly: np.ndarray
    z_kl: np.ndarray
    delta: float
    kl_poly: float
    kl_opt: float


def _history_target_cov(w: Trajectory, poly: PolyModel) -> np.ndarray:
    cov = np.zeros((6, 6))
    pos_block = residual_covariance(w, poly)
    cov[0, 0] = pos_block[0, 0]
    cov[0, 3] = cov[3, 0] = pos_block[0, 1]
    cov[3, 3] = pos_block[1, 1]
    for idx in (VX, AX, VY, AY):
        cov[idx, idx] = _TARGET_SOFT_VARIANCE
    return cov


def _fill_diagnostics(
    diagnostics: list,
    b: GaussianBelief,
    beliefs: list[GaussianBelief],
    w: Trajectory,
    poly: PolyModel,
    cfg: ScenarioConfig,
    model: CaModel,
) -> None:
    """Compare each assimilated polynomial value against the KL argmin.

    The history target starts at the polynomial's smoothed state at the
    window end and is carried forward through the motion model; its
    covariance is the fit residual covariance on the position block. R is
    the schedule's, of `cfg`'s r_base, alpha and p only.
    """
    target_mean = poly.state_at(poly.window_end)
    target_cov = _history_target_cov(w, poly)
    for k, (prior, post_poly) in enumerate(zip([b] + beliefs[:-1], beliefs), start=1):
        elapsed = k * model.dt
        target_mean = model.F @ target_mean
        target = GaussianBelief(target_mean, target_cov)
        predicted = predict(prior, model)
        z_poly = poly.position(poly.window_end + elapsed)
        R = adaptive_noise(cfg, elapsed)
        sol = kl_optimal_virtual_measurement(predicted, target, R, model.H)
        post_opt = update(predicted, sol.z, R, model.H)
        diagnostics.append(
            VirtualUpdateDiagnostic(
                elapsed=elapsed,
                z_poly=z_poly,
                z_kl=sol.z,
                delta=float(np.linalg.norm(z_poly - sol.z)),
                kl_poly=gaussian_kl(post_poly, target),
                kl_opt=gaussian_kl(post_opt, target),
            )
        )


def run_outage(
    b: GaussianBelief,
    w: Trajectory,
    cfg: ScenarioConfig,
    T_steps: int,
    model: CaModel,
    degree: int = 2,
    diagnostics: list | None = None,
) -> list[GaussianBelief]:
    """Run the full outage loop from the belief at the last real fix.

    The history polynomial is fitted once, at onset (no new data arrives
    during the outage), then each step k predicts through the motion model
    and assimilates the polynomial's position at outage age k * dt with
    the noise scheduled by `cfg`'s r_base, alpha and p only (`degree`, not
    `cfg`, sets the fit). The outage starts at the window's final timestamp.

    When `diagnostics` is a list, a VirtualUpdateDiagnostic is appended
    per step comparing the assimilated value against the analytic KL
    minimizer for the history target; the two are close but not assumed
    equal.

    Returns the beliefs after steps 1..T_steps.
    """
    if T_steps < 1:
        raise ValueError(f"T_steps must be >= 1, got {T_steps}")
    poly = fit_polynomial(w, degree)
    out = []
    belief = b
    for k in range(1, T_steps + 1):
        belief = vhd_outage_step(belief, poly, cfg, k * model.dt, model)
        out.append(belief)
    if diagnostics is not None:
        _fill_diagnostics(diagnostics, b, out, w, poly, cfg, model)
    return out
