"""Constant-acceleration kinematics for planar vehicle tracking.

State vectors are plain float ndarrays of length 6 with a fixed component
ordering:

    [p_x, v_x, a_x, p_y, v_y, a_y]

(position, velocity, acceleration for the x axis, then the same for y).
The module-level index constants below are the single source of truth for
that layout; everything else in the package goes through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Component indices of the 6-D state vector.
PX, VX, AX, PY, VY, AY = range(6)

STATE_DIM = 6


def make_state(p_x=0.0, v_x=0.0, a_x=0.0, p_y=0.0, v_y=0.0, a_y=0.0) -> np.ndarray:
    """Build a state vector in the fixed component ordering."""
    return np.array([p_x, v_x, a_x, p_y, v_y, a_y], dtype=float)


def ca_transition_matrix(dt: float) -> np.ndarray:
    """Discrete constant-acceleration transition matrix.

    Block diagonal with one 3x3 block per axis:

        [[1, dt, dt^2/2],
         [0,  1,     dt],
         [0,  0,      1]]

    Parameters
    ----------
    dt : float
        Step length in seconds, must be positive.

    Returns
    -------
    (6, 6) ndarray
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    block = np.array(
        [
            [1.0, dt, 0.5 * dt * dt],
            [0.0, 1.0, dt],
            [0.0, 0.0, 1.0],
        ]
    )
    F = np.zeros((STATE_DIM, STATE_DIM))
    F[:3, :3] = block
    F[3:, 3:] = block
    return F


def ca_process_noise(dt: float, sigma_jerk: float) -> np.ndarray:
    """Process-noise covariance for the CA model driven by white jerk.

    Per axis this is the covariance of continuous white jerk with spectral
    density sigma_jerk^2 integrated over one step,

        sigma_jerk^2 * [[dt^5/20, dt^4/8, dt^3/6],
                        [dt^4/8,  dt^3/3, dt^2/2],
                        [dt^3/6,  dt^2/2, dt     ]],

    which is full rank for dt > 0, so position, velocity and acceleration
    each receive fresh noise every step rather than a single shared
    direction. The two axes are independent.

    Parameters
    ----------
    dt : float
        Step length in seconds, must be positive.
    sigma_jerk : float
        Jerk noise density in m/s^3 per sqrt(s), must be non-negative.

    Returns
    -------
    (6, 6) ndarray, symmetric positive semi-definite.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not sigma_jerk >= 0.0:
        raise ValueError(f"sigma_jerk must be non-negative, got {sigma_jerk}")
    block = (sigma_jerk**2) * np.array(
        [
            [dt**5 / 20.0, dt**4 / 8.0, dt**3 / 6.0],
            [dt**4 / 8.0, dt**3 / 3.0, dt**2 / 2.0],
            [dt**3 / 6.0, dt**2 / 2.0, dt],
        ]
    )
    Q = np.zeros((STATE_DIM, STATE_DIM))
    Q[:3, :3] = block
    Q[3:, 3:] = block
    return Q


def position_measurement_matrix() -> np.ndarray:
    """Measurement matrix selecting (p_x, p_y) from the state."""
    H = np.zeros((2, STATE_DIM))
    H[0, PX] = 1.0
    H[1, PY] = 1.0
    return H


def accel_measurement_matrix() -> np.ndarray:
    """Measurement matrix selecting (a_x, a_y) from the state."""
    H = np.zeros((2, STATE_DIM))
    H[0, AX] = 1.0
    H[1, AY] = 1.0
    return H


@dataclass(frozen=True, eq=False)
class CaModel:
    """Bundled CA model matrices for a fixed step length.

    Attributes
    ----------
    dt : float
        Step length in seconds.
    F : (6, 6) ndarray
        State transition matrix.
    Q : (6, 6) ndarray
        Process-noise covariance.
    H : (2, 6) ndarray
        Position measurement matrix.
    """

    dt: float
    F: np.ndarray
    Q: np.ndarray
    H: np.ndarray = field(default_factory=position_measurement_matrix)


def ca_model(dt: float, sigma_jerk: float) -> CaModel:
    """Construct a CaModel from step length and jerk noise density."""
    return CaModel(dt=dt, F=ca_transition_matrix(dt), Q=ca_process_noise(dt, sigma_jerk))


def propagate_truth(s: np.ndarray, model: CaModel, current: tuple[float, float]) -> np.ndarray:
    """Advance a true state one step: CA dynamics plus current drift.

    `current` is the water current's (x, y) velocity in m/s. Its drift adds
    (current[0] * dt, current[1] * dt) to the position components only;
    velocity and acceleration states are untouched.
    """
    s = np.asarray(s, dtype=float)
    out = model.F @ s
    out[PX] += current[0] * model.dt
    out[PY] += current[1] * model.dt
    return out
