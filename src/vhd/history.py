"""Trajectory history buffering, polynomial distillation, and extrapolation.

The sliding window keeps the most recent state estimates at a fixed
sampling cadence. During an outage the window is compressed into a small
least-squares polynomial per position axis; that polynomial supplies both
the extrapolated positions and, through its derivatives, a smoothed full
state at the window end.

All fits run on a centered, scaled time basis tau = (t - t_ref) / t_scale
with tau in [-1, 1] over the window, which keeps the normal equations and
the node interpolation well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .kinematics import AX, AY, PX, PY, VX, VY, STATE_DIM


class HistoryWindow:
    """Bounded buffer of (timestamp, state estimate) samples.

    Timestamps must be strictly increasing; once `capacity` samples are
    held, pushing a new one evicts the oldest. The window is a
    single-owner mutable structure; fitted models taken from it are
    immutable and safe to share.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._times: list[float] = []
        self._states: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._times)

    def push(self, t: float, s: np.ndarray) -> "HistoryWindow":
        """Append a sample, evicting the oldest when over capacity."""
        if self._times and t <= self._times[-1]:
            raise ValueError(
                f"timestamps must be strictly increasing: got {t} after {self._times[-1]}"
            )
        s = np.asarray(s, dtype=float)
        if s.shape != (STATE_DIM,):
            raise ValueError(f"state must have shape ({STATE_DIM},), got {s.shape}")
        self._times.append(float(t))
        self._states.append(s.copy())
        if len(self._times) > self.capacity:
            del self._times[0]
            del self._states[0]
        return self

    @property
    def times(self) -> np.ndarray:
        return np.array(self._times)

    @property
    def states(self) -> np.ndarray:
        """(n, 6) array of the buffered states; (0, 6) when empty."""
        return np.array(self._states).reshape(-1, STATE_DIM)

    @property
    def positions(self) -> np.ndarray:
        """(n, 2) array of the buffered (p_x, p_y) samples."""
        return self.states[:, [PX, PY]]

    @property
    def end_time(self) -> float:
        if not self._times:
            raise ValueError("window is empty")
        return self._times[-1]

    def recent(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Last `count` samples as (times, positions)."""
        if count < 1 or count > len(self._times):
            raise ValueError(f"cannot take {count} samples from a window of {len(self._times)}")
        return self.times[-count:], self.positions[-count:]


@dataclass(frozen=True, eq=False)
class PolyModel:
    """Per-axis position polynomials on a centered, scaled time basis.

    Coefficients are in ascending order in tau = (t - t_ref) / t_scale.
    `window_end` records the final timestamp of the fitted window, the
    anchor point for extrapolation.
    """

    degree: int
    coef_x: np.ndarray
    coef_y: np.ndarray
    t_ref: float
    t_scale: float
    window_end: float

    def _tau(self, t):
        return (np.asarray(t, dtype=float) - self.t_ref) / self.t_scale

    def position(self, t) -> np.ndarray:
        """Fitted/extrapolated (p_x, p_y) at time t (scalar or array)."""
        tau = self._tau(t)
        return np.stack(
            [npoly.polyval(tau, self.coef_x), npoly.polyval(tau, self.coef_y)], axis=-1
        )

    def velocity(self, t) -> np.ndarray:
        tau = self._tau(t)
        dx = npoly.polyval(tau, npoly.polyder(self.coef_x)) / self.t_scale
        dy = npoly.polyval(tau, npoly.polyder(self.coef_y)) / self.t_scale
        return np.stack([dx, dy], axis=-1)

    def acceleration(self, t) -> np.ndarray:
        tau = self._tau(t)
        if self.degree < 2:
            zero = np.zeros_like(np.asarray(tau, dtype=float))
            return np.stack([zero, zero], axis=-1)
        ddx = npoly.polyval(tau, npoly.polyder(self.coef_x, 2)) / self.t_scale**2
        ddy = npoly.polyval(tau, npoly.polyder(self.coef_y, 2)) / self.t_scale**2
        return np.stack([ddx, ddy], axis=-1)

    def state_at(self, t: float) -> np.ndarray:
        """Full 6-D state from the polynomial and its first two derivatives."""
        p = self.position(t)
        v = self.velocity(t)
        a = self.acceleration(t)
        s = np.zeros(STATE_DIM)
        s[PX], s[PY] = p
        s[VX], s[VY] = v
        s[AX], s[AY] = a
        return s


def _centered_basis(times: np.ndarray) -> tuple[float, float]:
    t_ref = 0.5 * (times[0] + times[-1])
    t_scale = 0.5 * (times[-1] - times[0])
    if t_scale <= 0.0:
        raise ValueError("window must span a positive time interval")
    return float(t_ref), float(t_scale)


def fit_polynomial(w: HistoryWindow, degree: int = 2) -> PolyModel:
    """Least-squares polynomial fit of the buffered positions.

    Each position axis is fitted independently with a degree-`degree`
    polynomial by solving the normal equations on the centered, scaled
    basis. Requires at least degree + 1 samples.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    n = len(w)
    if n < degree + 1:
        raise ValueError(f"need at least {degree + 1} samples to fit degree {degree}, have {n}")
    times = w.times
    t_ref, t_scale = _centered_basis(times)
    tau = (times - t_ref) / t_scale

    V = np.vander(tau, degree + 1, increasing=True)
    G = V.T @ V
    rhs = V.T @ w.positions
    coefs = np.linalg.solve(G, rhs)

    return PolyModel(
        degree=degree,
        coef_x=coefs[:, 0].copy(),
        coef_y=coefs[:, 1].copy(),
        t_ref=t_ref,
        t_scale=t_scale,
        window_end=float(times[-1]),
    )


def residual_covariance(w: HistoryWindow, p: PolyModel) -> np.ndarray:
    """Unbiased 2x2 covariance of the position fit residuals.

    Residuals are observed minus fitted positions over the whole window.
    The normalization accounts for the fitted coefficients (n - degree - 1
    degrees of freedom), and each diagonal entry is floored at 1e-6 m^2 so
    noise-free data cannot produce a degenerate measurement covariance.
    """
    n = len(w)
    dof = n - (p.degree + 1)
    if dof < 1:
        raise ValueError(f"need at least {p.degree + 2} samples for residual covariance, have {n}")
    residuals = w.positions - p.position(w.times)
    cov = (residuals.T @ residuals) / dof
    cov = 0.5 * (cov + cov.T)
    floor = 1e-6
    cov[0, 0] = max(cov[0, 0], floor)
    cov[1, 1] = max(cov[1, 1], floor)
    return cov


def lagrange_extrapolate(w: HistoryWindow, t: float, node_count: int = 8) -> np.ndarray:
    """Position at t from the interpolating polynomial through recent nodes.

    Takes the `node_count` most recent window samples and evaluates the
    unique degree-(node_count - 1) polynomial through them. The
    interpolant is computed by solving the node Vandermonde system on the
    centered, scaled basis; by uniqueness this is the Lagrange
    interpolating polynomial. Long extrapolation of many-node interpolants
    amplifies node noise enormously; that divergence is the documented
    behavior of this baseline, not a defect of the evaluation.
    """
    if node_count < 2:
        raise ValueError(f"node_count must be >= 2, got {node_count}")
    times, positions = w.recent(node_count)
    if np.unique(times).shape[0] != node_count:
        raise ValueError("node timestamps must be distinct")

    t_ref, t_scale = _centered_basis(times)
    tau = (times - t_ref) / t_scale
    V = np.vander(tau, node_count, increasing=True)
    coefs = np.linalg.solve(V, positions)

    tq = (float(t) - t_ref) / t_scale
    return np.array([npoly.polyval(tq, coefs[:, 0]), npoly.polyval(tq, coefs[:, 1])])
