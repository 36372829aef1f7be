"""Timestamped trajectories, polynomial distillation, and extrapolation.

The history window is a `Trajectory` of the filter's most recent state
estimates at a fixed sampling cadence. During an outage the window is
compressed into a small least-squares polynomial in both position axes;
that polynomial supplies both the extrapolated positions and, through its
derivatives, a smoothed full state at the window end.

All fits run on a centered, scaled time basis tau = (t - t_ref) / t_scale
with tau in [-1, 1] over the window, which keeps the normal equations and
the node interpolation well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .kinematics import AX, AY, PX, PY, VX, VY, STATE_DIM


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Timestamped 6-D states: the true path on the step grid, or a window
    of filter estimates.

    Timestamps must be strictly increasing and `states` must have shape
    (len(times), 6), or (runs, len(times), 6) for a block; both are checked.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if times.ndim != 1:
            raise ValueError(f"times must have shape (n,), got {times.shape}")
        bad = np.flatnonzero(~(np.diff(times) > 0.0))
        if bad.size:
            k = bad[0]
            raise ValueError(f"timestamps must be strictly increasing: got {times[k + 1]} after {times[k]}")
        if states.shape[-2:] != (times.shape[0], STATE_DIM):
            raise ValueError(f"states must have shape (..., {times.shape[0]}, {STATE_DIM}), got {states.shape}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """(..., n, 2) array of the (p_x, p_y) samples."""
        return self.states[..., [PX, PY]]

    @property
    def accelerations(self) -> np.ndarray:
        return self.states[..., [AX, AY]]

    def recent(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Last `count` samples as (times, positions)."""
        if count < 1 or count > len(self):
            raise ValueError(f"cannot take {count} samples from a trajectory of {len(self)}")
        return self.times[-count:], self.positions[..., -count:, :]


@dataclass(frozen=True, eq=False)
class PolyModel:
    """Position polynomial for both axes on a centered, scaled time basis.

    `coef` has shape (degree + 1, 2), or (runs, degree + 1, 2) for a block
    fitted on shared times: row k holds the tau**k coefficients of
    (p_x, p_y) in tau = (t - t_ref) / t_scale. `window_end` records the
    final timestamp of the fitted window, the anchor for extrapolation.
    """

    coef: np.ndarray
    t_ref: float
    t_scale: float
    window_end: float

    @property
    def degree(self) -> int:
        return self.coef.shape[-2] - 1

    def _derivative(self, t, order: int) -> np.ndarray:
        """`order`-th time derivative of (p_x, p_y) at t; shape (..., *t.shape, 2)."""
        tau = (np.asarray(t, dtype=float) - self.t_ref) / self.t_scale
        values = npoly.polyval(tau, npoly.polyder(np.moveaxis(self.coef, -2, 0), order)) / self.t_scale**order
        return np.moveaxis(values, self.coef.ndim - 2, -1)

    def position(self, t) -> np.ndarray:
        """Fitted/extrapolated (p_x, p_y) at time t (scalar or array)."""
        return self._derivative(t, 0)

    def velocity(self, t) -> np.ndarray:
        return self._derivative(t, 1)

    def acceleration(self, t) -> np.ndarray:
        return self._derivative(t, 2)

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


def _vandermonde(times: np.ndarray, columns: int) -> tuple[np.ndarray, float, float]:
    """The increasing Vandermonde matrix, 1, tau, .., tau**(columns - 1), of
    `times` on their centered, scaled basis tau = (t - t_ref) / t_scale,
    and t_ref and t_scale."""
    t_ref = float(0.5 * (times[0] + times[-1]))
    t_scale = float(0.5 * (times[-1] - times[0]))
    if t_scale <= 0.0:
        raise ValueError("window must span a positive time interval")
    return np.vander((times - t_ref) / t_scale, columns, increasing=True), t_ref, t_scale


def fit_polynomial(w: Trajectory, degree: int = 2) -> PolyModel:
    """Least-squares polynomial fit of the window positions.

    Each position axis of each run is fitted independently with a
    degree-`degree` polynomial by solving the normal equations on the
    centered, scaled basis. Requires at least degree + 1 samples.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    n = len(w)
    if n < degree + 1:
        raise ValueError(f"need at least {degree + 1} samples to fit degree {degree}, have {n}")
    V, t_ref, t_scale = _vandermonde(w.times, degree + 1)
    return PolyModel(np.linalg.solve(V.T @ V, V.T @ w.positions), t_ref, t_scale, float(w.times[-1]))


def residual_covariance(w: Trajectory, p: PolyModel) -> np.ndarray:
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


def lagrange_extrapolate(w: Trajectory, t, node_count: int = 8) -> np.ndarray:
    """Position at t from the interpolating polynomial through recent nodes.

    Takes the `node_count` most recent window samples and evaluates the
    unique degree-(node_count - 1) polynomial through them at t (scalar
    or array, as `PolyModel.position`), per run of a block window. The
    interpolant is solved once from the node Vandermonde system on the
    centered, scaled basis; by uniqueness this is the Lagrange
    interpolating polynomial. Long extrapolation of many-node interpolants
    amplifies node noise enormously; that divergence is the documented
    behavior of this baseline, not a defect of the evaluation.
    """
    if node_count < 2:
        raise ValueError(f"node_count must be >= 2, got {node_count}")
    times, positions = w.recent(node_count)
    V, t_ref, t_scale = _vandermonde(times, node_count)
    return PolyModel(np.linalg.solve(V, positions), t_ref, t_scale, float(times[-1])).position(t)
