"""Outage-time prediction: virtual measurements with adaptive confidence.

While no real fixes arrive, the filter is fed synthetic position
measurements taken from the history polynomial. Their noise covariance
R*_k = R_base * (1 + alpha * elapsed^p) starts at R_base (the filter
trusts recent history) and inflates with the time elapsed since the
outage began, handing weight back to the motion model as the
extrapolation ages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimator import (
    GaussianBelief,
    gaussian_kl,
    kl_optimal_virtual_measurement,
    predict,
    update,
)
from .history import HistoryWindow, PolyModel, fit_polynomial, residual_covariance
from .kinematics import AX, AY, CaModel, VX, VY

# Variance assigned to the velocity/acceleration diagonal of the history
# target covariance: effectively uninformative, so the target constrains
# position only.
_TARGET_SOFT_VARIANCE = 1e6


def _default_r_base() -> np.ndarray:
    return np.diag([0.5, 0.5])


@dataclass(frozen=True, eq=False)
class AdaptiveConfidenceParams:
    """Schedule parameters for the virtual-measurement noise.

    Attributes
    ----------
    r_base : (2, 2) ndarray
        Noise covariance at the moment the outage starts. Symmetric
        positive definite.
    alpha : float
        Attenuation factor, >= 0. Larger values hand weight back to the
        motion model sooner.
    p : float
        Growth exponent, >= 1.
    """

    r_base: np.ndarray = field(default_factory=_default_r_base)
    alpha: float = 0.01
    p: float = 2.0

    def __post_init__(self):
        r = np.atleast_2d(np.asarray(self.r_base, dtype=float))
        if r.shape != (2, 2):
            raise ValueError(f"AdaptiveConfidenceParams invariant: r_base must be 2x2, got {r.shape}")
        if not np.all(np.isfinite(r)) or abs(r[0, 1] - r[1, 0]) > 1e-12 * max(1.0, float(np.abs(r).max())):
            raise ValueError("AdaptiveConfidenceParams invariant: r_base must be finite and symmetric")
        if np.any(np.linalg.eigvalsh(r) <= 0.0):
            raise ValueError("AdaptiveConfidenceParams invariant: r_base must be positive definite")
        if self.alpha < 0.0:
            raise ValueError(f"AdaptiveConfidenceParams invariant: alpha must be >= 0, got {self.alpha}")
        if self.p < 1.0:
            raise ValueError(f"AdaptiveConfidenceParams invariant: p must be >= 1, got {self.p}")
        object.__setattr__(self, "r_base", r)


def adaptive_noise(params: AdaptiveConfidenceParams, elapsed: float) -> np.ndarray:
    """Virtual-measurement noise covariance after `elapsed` seconds.

    Returns r_base * (1 + alpha * elapsed**p), a scalar inflation of the
    base covariance; equals r_base exactly at elapsed = 0 and is monotone
    non-decreasing in elapsed.
    """
    if elapsed < 0.0:
        raise ValueError(f"elapsed must be >= 0, got {elapsed}")
    return params.r_base * (1.0 + params.alpha * elapsed**params.p)


def vhd_outage_step(
    b: GaussianBelief,
    poly: PolyModel,
    params: AdaptiveConfidenceParams,
    elapsed: float,
    model: CaModel,
) -> GaussianBelief:
    """One outage step: predict, then assimilate the virtual measurement.

    `elapsed` is the outage age of the step being produced: the belief is
    advanced one model step, the polynomial supplies z at
    window_end + elapsed, and the schedule supplies R for that age.
    """
    predicted = predict(b, model)
    z = poly.position(poly.window_end + elapsed)
    return update(predicted, z, adaptive_noise(params, elapsed), model.H)


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


def _history_target_cov(w: HistoryWindow, poly: PolyModel) -> np.ndarray:
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
    w: HistoryWindow,
    poly: PolyModel,
    params: AdaptiveConfidenceParams,
    model: CaModel,
) -> None:
    """Compare each assimilated polynomial value against the KL argmin.

    The history target starts at the polynomial's smoothed state at the
    window end and is carried forward through the motion model; its
    covariance is the fit residual covariance on the position block.
    """
    target_mean = poly.state_at(poly.window_end)
    target_cov = _history_target_cov(w, poly)
    for k, (prior, post_poly) in enumerate(zip([b] + beliefs[:-1], beliefs), start=1):
        elapsed = k * model.dt
        target_mean = model.F @ target_mean
        target = GaussianBelief(target_mean, target_cov)
        predicted = predict(prior, model)
        z_poly = poly.position(poly.window_end + elapsed)
        R = adaptive_noise(params, elapsed)
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
    w: HistoryWindow,
    params: AdaptiveConfidenceParams,
    T_steps: int,
    model: CaModel,
    degree: int = 2,
    diagnostics: list | None = None,
) -> list[GaussianBelief]:
    """Run the full outage loop from the belief at the last real fix.

    The history polynomial is fitted once, at onset (no new data arrives
    during the outage), then each step k predicts through the motion model
    and assimilates the polynomial's position at outage age k * dt with
    the scheduled noise. The outage starts at the window's final timestamp.

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
        belief = vhd_outage_step(belief, poly, params, k * model.dt, model)
        out.append(belief)
    if diagnostics is not None:
        _fill_diagnostics(diagnostics, b, out, w, poly, params, model)
    return out
