"""Gaussian beliefs, Kalman predict/update, and KL-divergence diagnostics.

All operations are pure functions over immutable values. Covariances are
kept exactly symmetric by construction (Joseph-form update followed by an
explicit symmetrization), which keeps long prediction chains well behaved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import CaModel


@dataclass(frozen=True, eq=False)
class GaussianBelief:
    """Gaussian state belief: mean vector plus covariance.

    Dimension is not fixed; the tracking code uses 6-D states but every
    operation below works for any consistent (mean, cov) pair. The same
    type serves as the history target of the KL diagnostics.
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
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("GaussianBelief: non-finite entries")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if float(np.max(np.abs(cov - cov.T))) > 1e-9 * scale:
            raise ValueError("GaussianBelief: covariance is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def _symmetrize(P: np.ndarray) -> np.ndarray:
    # Halve before adding: P + P.T overflows for entries above half the
    # float range even when their mean does not.
    h = 0.5 * P
    return h + h.T


def _predicted_cov(cov: np.ndarray, model: CaModel) -> np.ndarray:
    return _symmetrize(model.F @ cov @ model.F.T + model.Q)


def predict(b: GaussianBelief, model: CaModel) -> GaussianBelief:
    """Time update: mean' = F mean, cov' = F cov F^T + Q."""
    return GaussianBelief(model.F @ b.mean, _predicted_cov(b.cov, model))


def _cholesky_or_raise(S: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{what} is singular or not positive definite") from exc


def _kalman_gain(cov: np.ndarray, R: np.ndarray, H: np.ndarray) -> np.ndarray:
    """K = P H^T S^-1 with S = H P H^T + R, through a solve against S.

    Raises numpy.linalg.LinAlgError when S is not positive definite.
    """
    S = _symmetrize(H @ cov @ H.T + R)
    _cholesky_or_raise(S, "innovation covariance")
    return np.linalg.solve(S, H @ cov).T


def _joseph_cov(cov: np.ndarray, K: np.ndarray, R: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Posterior covariance (I - K H) P (I - K H)^T + K R K^T, symmetrized."""
    A = np.eye(cov.shape[0]) - K @ H
    return _symmetrize(A @ cov @ A.T + K @ R @ K.T)


def update(b: GaussianBelief, z: np.ndarray, R: np.ndarray, H: np.ndarray) -> GaussianBelief:
    """Measurement update with measurement z ~ N(H s, R).

    Uses the Joseph-form covariance update

        P' = (I - K H) P (I - K H)^T + K R K^T

    followed by symmetrization, so the posterior covariance stays
    symmetric positive semi-definite over long call chains.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the innovation covariance H P H^T + R is not positive definite.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))

    K = _kalman_gain(b.cov, R, H)

    innovation = z - H @ b.mean
    return GaussianBelief(b.mean + K @ innovation, _joseph_cov(b.cov, K, R, H))


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


def gaussian_kl(a, b) -> float:
    """KL divergence KL(a || b) between two Gaussians, in nats.

    Accepts any objects with `mean` and `cov` attributes of matching
    dimension. Both covariances must be positive definite.
    """
    mu_a, S_a = np.asarray(a.mean, dtype=float), np.asarray(a.cov, dtype=float)
    mu_b, S_b = np.asarray(b.mean, dtype=float), np.asarray(b.cov, dtype=float)
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
    unique; otherwise the minimum-norm w is returned and flagged.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))

    K = _kalman_gain(prior.cov, R, H)

    Lq = _cholesky_or_raise(target.cov, "target covariance")
    A = np.linalg.solve(Lq, K)
    d = np.linalg.solve(Lq, target.mean - prior.mean)

    w, _, rank, _ = np.linalg.lstsq(A, d, rcond=None)
    z = H @ prior.mean + w
    return KlArgminResult(z=z, rank=int(rank), min_norm=bool(rank < w.shape[0]))
