"""Trajectory prediction through communication outages.

The package tracks a vehicle with a constant-acceleration Kalman filter
while fixes arrive, and when the link drops it keeps the estimate alive by
distilling the recent trajectory history into a polynomial and feeding the
filter synthetic position measurements whose confidence decays with the
outage age. Open-loop prediction and Lagrange extrapolation are included
as baselines, with a Monte Carlo harness and CLI to compare all three.
"""

from .estimator import (
    GaussianBelief,
    KlArgminResult,
    gaussian_kl,
    kl_optimal_virtual_measurement,
    open_loop_predict,
    predict,
    update,
)
from .history import (
    PolyModel,
    Trajectory,
    fit_polynomial,
    lagrange_extrapolate,
)
from .kinematics import (
    CaModel,
    ca_model,
    ca_process_noise,
    ca_transition_matrix,
    make_state,
    propagate_truth,
)
from .outage import (
    adaptive_noise,
    run_outage,
    vhd_outage_step,
)
from .simkit import (
    McResult,
    OnsetState,
    PREDICTORS,
    RunRecord,
    ScenarioConfig,
    generate_truth,
    monte_carlo,
    rmse,
    run_block,
    run_scenario,
    simulate_measurements,
    track_to_outage,
)

__version__ = "0.1.0"

__all__ = [
    "CaModel",
    "GaussianBelief",
    "KlArgminResult",
    "McResult",
    "OnsetState",
    "PREDICTORS",
    "PolyModel",
    "RunRecord",
    "ScenarioConfig",
    "Trajectory",
    "adaptive_noise",
    "ca_model",
    "ca_process_noise",
    "ca_transition_matrix",
    "fit_polynomial",
    "gaussian_kl",
    "generate_truth",
    "kl_optimal_virtual_measurement",
    "lagrange_extrapolate",
    "make_state",
    "monte_carlo",
    "open_loop_predict",
    "predict",
    "propagate_truth",
    "rmse",
    "run_block",
    "run_outage",
    "run_scenario",
    "simulate_measurements",
    "track_to_outage",
    "update",
    "vhd_outage_step",
    "__version__",
]
