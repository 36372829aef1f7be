"""Trajectory prediction through communication outages.

The package tracks a vehicle with a constant-acceleration Kalman filter
while fixes arrive, and when the link drops it keeps the estimate alive by
distilling the recent trajectory history into a polynomial and feeding the
filter synthetic position measurements whose confidence decays with the
outage age. Open-loop prediction and Lagrange extrapolation are included
as baselines, with a Monte Carlo harness and CLI to compare all three.

Each public name is looked up in its home module when it is used (PEP
562), so a batch's process never loads `estimator` or `outage`: the 6x6
numpy filter and the per-run reference that the tests hold the engine to.
"""

import importlib

from . import history, kinematics, simkit

__version__ = "0.1.0"

# Public name -> the module that defines it.
_HOMES = {
    "CaModel": "kinematics",
    "GaussianBelief": "estimator",
    "KlArgminResult": "estimator",
    "McResult": "simkit",
    "OnsetState": "outage",
    "PREDICTORS": "simkit",
    "PolyModel": "history",
    "RunRecord": "simkit",
    "ScenarioConfig": "config",
    "Trajectory": "history",
    "adaptive_noise": "outage",
    "ca_model": "kinematics",
    "ca_process_noise": "kinematics",
    "ca_transition_matrix": "kinematics",
    "fit_polynomial": "history",
    "gaussian_kl": "estimator",
    "generate_truth": "simkit",
    "kl_optimal_virtual_measurement": "estimator",
    "lagrange_extrapolate": "history",
    "make_state": "kinematics",
    "monte_carlo": "simkit",
    "open_loop_predict": "estimator",
    "predict": "estimator",
    "propagate_truth": "kinematics",
    "rmse": "simkit",
    "run_block": "simkit",
    "run_outage": "outage",
    "run_scenario": "outage",
    "simulate_measurements": "simkit",
    "track_to_outage": "outage",
    "update": "estimator",
    "vhd_outage_step": "outage",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
