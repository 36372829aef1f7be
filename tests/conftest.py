"""Shared fixtures: the full default Monte Carlo batch is expensive, so it
runs once per session and is reused by the statistical tests and the
acceptance checks."""

import time
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, settings

from vhd import McResult, ScenarioConfig, monte_carlo, run_block, simkit

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@dataclass(frozen=True)
class TimedBatch:
    result: McResult
    seconds: float


@pytest.fixture(scope="session")
def default_cfg() -> ScenarioConfig:
    return ScenarioConfig()


@pytest.fixture(scope="session")
def default_mc(default_cfg) -> TimedBatch:
    """Default 100-run batch through monte_carlo, with its wall-clock time."""
    t0 = time.perf_counter()
    result = monte_carlo(default_cfg)
    return TimedBatch(result=result, seconds=time.perf_counter() - t0)


@pytest.fixture(scope="session")
def default_block(default_cfg):
    """The block record of the default seed range, for per-run statistics.
    The lockstep engine builds it; TestRunBlock ties it to run_scenario."""
    return run_block(default_cfg, range(default_cfg.base_seed, default_cfg.base_seed + default_cfg.mc_runs))


@pytest.fixture
def exact_ukf(monkeypatch):
    """Make every ukf path the truth, and so every ukf error 0, by
    construction: a noise-free ukf path is the truth only within rounding."""
    block_of = simkit.run_block

    def exact(cfg, seeds):
        block = block_of(cfg, seeds)
        block.paths["ukf"][:] = block.truth_xy
        block.errors["ukf"][:] = 0.0
        return block

    monkeypatch.setattr(simkit, "run_block", exact)


_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report() -> list[str]:
    return _acceptance_lines


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
