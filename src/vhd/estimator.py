"""Gaussian beliefs, Kalman predict/update, and the Gaussian KL divergence
with its minimizing virtual measurement.

All operations are pure functions over immutable values. Covariances are
kept exactly symmetric by construction (Joseph-form update followed by an
explicit symmetrization), which keeps long prediction chains well behaved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .kinematics import CaModel


@dataclass(frozen=True, eq=False)
class GaussianBelief:
    """Gaussian state belief: mean vector plus covariance.

    Dimension is not fixed; the tracking code uses 6-D states but every
    operation below works for any consistent (mean, cov) pair. The same
    type is the target of `kl_optimal_virtual_measurement`, whose
    optimality acceptance gate 5 checks.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        n = mean.shape[0]
        if mean.ndim != 1:
            raise ValueError("GaussianBelief: mean must be a vector")
        if cov.shape != (n, n):
            raise ValueError(f"GaussianBelief: covariance shape {cov.shape} does not match mean length {n}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("GaussianBelief: non-finite entries")
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.T).max()) > 1e-9 * scale:
            raise ValueError("GaussianBelief: covariance is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def _symmetrize(P: np.ndarray) -> np.ndarray:
    # Halve before adding: P + P.T overflows for entries above half the
    # float range even when their mean does not.
    h = 0.5 * P
    return h + h.T


def predict(b: GaussianBelief, model: CaModel) -> GaussianBelief:
    """Time update: mean' = F mean, cov' = F cov F^T + Q, symmetrized."""
    return GaussianBelief(model.F @ b.mean, _symmetrize(model.F @ b.cov @ model.F.T + model.Q))


def _cholesky_or_raise(S: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{what} is singular or not positive definite") from exc


def _kalman_gain(cov: np.ndarray, R: np.ndarray, H: np.ndarray) -> np.ndarray:
    """K = P H^T S^-1 with S = H P H^T + R, through a solve against S. H P is
    computed once: H P H^T is (H P) H^T.

    Raises numpy.linalg.LinAlgError when S is not positive definite.
    """
    HP = H @ cov
    S = _symmetrize(HP @ H.T + R)
    _cholesky_or_raise(S, "innovation covariance")
    return np.linalg.solve(S, HP).T


@cache
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def update(b: GaussianBelief, z: np.ndarray, R: np.ndarray, H: np.ndarray) -> GaussianBelief:
    """Measurement update with measurement z ~ N(H s, R), for a float (m,)
    vector z and float (m, m) R and (m, n) H, which are used as given.

    Uses the Joseph-form covariance update

        P' = (I - K H) P (I - K H)^T + K R K^T

    followed by symmetrization, so the posterior covariance stays
    symmetric positive semi-definite over long call chains.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the innovation covariance H P H^T + R is not positive definite.
    """
    K = _kalman_gain(b.cov, R, H)
    A = _identity(b.cov.shape[0]) - K @ H

    innovation = z - H @ b.mean
    return GaussianBelief(b.mean + K @ innovation, _symmetrize(A @ b.cov @ A.T + K @ R @ K.T))


def open_loop_predict(b: GaussianBelief, model: CaModel, steps: int) -> list[GaussianBelief]:
    """Repeated predict() with no measurement updates.

    This is the dead-reckoning baseline: the belief at the last fix is
    propagated through the motion model alone for `steps` steps.

    Returns the sequence of beliefs after 1..steps predictions.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    out = []
    current = b
    for _ in range(steps):
        current = predict(current, model)
        out.append(current)
    return out


def gaussian_kl(a: GaussianBelief, b: GaussianBelief) -> float:
    """KL divergence KL(a || b) between two GaussianBeliefs of one
    dimension, in nats. Both covariances must be positive definite.
    """
    mu_a, S_a, mu_b, S_b = a.mean, a.cov, b.mean, b.cov
    k = mu_a.shape[0]

    La = _cholesky_or_raise(S_a, "first covariance")
    Lb = _cholesky_or_raise(S_b, "second covariance")

    # tr(S_b^-1 S_a) = ||Lb^-1 La||_F^2
    X = np.linalg.solve(Lb, La)
    trace_term = float(np.sum(X * X))

    d = mu_b - mu_a
    y = np.linalg.solve(Lb, d)
    maha_term = float(y @ y)

    logdet_term = 2.0 * float(np.sum(np.log(np.diag(Lb))) - np.sum(np.log(np.diag(La))))

    return 0.5 * (trace_term + maha_term - k + logdet_term)


@dataclass(frozen=True, eq=False)
class KlArgminResult:
    """Solution of the virtual-measurement KL minimization.

    Attributes
    ----------
    z : ndarray
        The minimizing measurement value.
    rank : int
        Rank of the gain matrix seen through the target metric.
    min_norm : bool
        True when the gain was rank deficient and z is the minimum-norm
        minimizer rather than the unique one.
    """

    z: np.ndarray
    rank: int
    min_norm: bool


def kl_optimal_virtual_measurement(
    prior: GaussianBelief,
    target: GaussianBelief,
    R: np.ndarray,
    H: np.ndarray,
) -> KlArgminResult:
    """Measurement value whose Kalman update lands closest to the target.

    A single update of `prior` with measurement z produces a posterior
    whose covariance does not depend on z and whose mean is affine in z:
    mean(z) = mu + K (z - H mu). Minimizing KL(posterior(z) || target)
    therefore reduces to the quadratic

        (mu + K w - mu_q)^T  Sigma_q^-1  (mu + K w - mu_q),   w = z - H mu,

    solved here in closed form by least squares on the whitened system.
    When K has full column rank through the target metric the minimizer is
    unique; otherwise the minimum-norm w is returned and flagged. R and H
    are float matrices, as `update` takes them.
    """
    K = _kalman_gain(prior.cov, R, H)

    Lq = _cholesky_or_raise(target.cov, "target covariance")
    A = np.linalg.solve(Lq, K)
    d = np.linalg.solve(Lq, target.mean - prior.mean)

    w, _, rank, _ = np.linalg.lstsq(A, d, rcond=None)
    z = H @ prior.mean + w
    return KlArgminResult(z=z, rank=int(rank), min_norm=bool(rank < w.shape[0]))
