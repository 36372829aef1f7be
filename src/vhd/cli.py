"""Command-line front end: config loading, execution, CSV/JSON export.

Config files are flat ``section.key = value`` text: one assignment per
line, ``#`` starts a comment, blank lines are ignored. Every key is
optional; missing keys take the library defaults. The full resolved
configuration is echoed next to the outputs in the same format, so an
output directory is always reproducible from its own echo.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .simkit import PREDICTORS, ConfigError, McResult, ScenarioConfig, monte_carlo

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# key -> (ScenarioConfig section, field, converter, pretty type name); the
# section "" is ScenarioConfig itself. Order fixed for the resolved echo.
_SCHEMA = {
    "sim.duration": ("", "duration", _finite_float, "finite float"),
    "sim.dt": ("", "dt", _finite_float, "finite float"),
    "sim.outage_start": ("", "outage_start", _finite_float, "finite float"),
    "sim.outage_duration": ("", "outage_duration", _finite_float, "finite float"),
    "sim.history_window": ("", "history_window", _finite_float, "finite float"),
    "sim.mc_runs": ("", "mc_runs", int, "int"),
    "sim.base_seed": ("", "base_seed", int, "int"),
    "sim.sigma_jerk": ("", "sigma_jerk", _finite_float, "finite float"),
    "current.speed": ("", "current_speed", _finite_float, "finite float"),
    "current.heading_deg": ("", "current_heading_deg", _finite_float, "finite float"),
    "sensor.position_fix_noise": ("sensor", "position_fix_noise", _finite_float, "finite float"),
    "sensor.accel_white_noise": ("sensor", "accel_white_noise", _finite_float, "finite float"),
    "sensor.accel_bias_walk": ("sensor", "accel_bias_walk", _finite_float, "finite float"),
    "sensor.fix_rate": ("sensor", "fix_rate", _finite_float, "finite float"),
    "vhd.r_base": ("vhd_params", "r_base", _finite_float, "finite float"),
    "vhd.alpha": ("vhd_params", "alpha", _finite_float, "finite float"),
    "vhd.p": ("vhd_params", "p", _finite_float, "finite float"),
    "vhd.poly_degree": ("", "poly_degree", int, "int"),
    "baseline.lagrange_nodes": ("", "lagrange_nodes", int, "int"),
    "traj.cruise_speed": ("trajectory", "cruise_speed", _finite_float, "finite float"),
    "traj.turn_rate": ("trajectory", "turn_rate", _finite_float, "finite float"),
    "traj.turn_start": ("trajectory", "turn_start", _finite_float, "finite float"),
    "traj.turn_duration": ("trajectory", "turn_duration", _finite_float, "finite float"),
    "traj.initial_heading": ("trajectory", "initial_heading", _finite_float, "finite float"),
}


def _parse_lines(lines, source: str) -> dict[str, object]:
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        _, _, converter, type_name = _SCHEMA[key]
        try:
            values[key] = converter(text)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: value for {key!r} must be {type_name}, got {text!r}"
            ) from None
    return values


def _build_config(values: dict[str, object]) -> ScenarioConfig:
    # Fields grouped by section in schema order, so the nested configs are
    # validated in a fixed order (sensor, vhd, trajectory) before the whole.
    sections: dict[str, dict[str, object]] = {}
    for key, (section, name, _, _) in _SCHEMA.items():
        if key in values:
            sections.setdefault(section, {})[name] = values[key]
    defaults = ScenarioConfig()
    top = sections.pop("", {})
    try:
        for section, fields in sections.items():
            top[section] = replace(getattr(defaults, section), **fields)
        return replace(defaults, **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ScenarioConfig:
    """Load a config file; missing keys fall back to the defaults."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return _build_config(_parse_lines(lines, str(path)))


def config_values(cfg: ScenarioConfig) -> dict[str, object]:
    """The flat key/value view of a resolved config, in schema order."""
    return {
        key: getattr(getattr(cfg, section) if section else cfg, name)
        for key, (section, name, _, _) in _SCHEMA.items()
    }


def resolved_config_text(cfg: ScenarioConfig) -> str:
    """Round-trippable echo of every parameter the run will use."""
    lines = ["# resolved configuration (all values explicit)"]
    lines += [f"{key} = {val}" for key, val in config_values(cfg).items()]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# output writing
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OutputBundle:
    """Paths of everything run_command wrote, plus the aggregate result."""

    paths: dict[str, Path]
    result: McResult


_AGGREGATION_NOTE = (
    "per-step error series = mean across runs of Euclidean position error; "
    "RMSE pooled over all outage steps and runs; terminal = mean across runs "
    "of the final-step error"
)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _summary_text(cfg: ScenarioConfig, result: McResult, predictors) -> str:
    lines = [
        "outage prediction summary",
        f"  runs: {cfg.mc_runs}   base seed: {cfg.base_seed}   "
        f"outage: {_fmt(cfg.outage_start)} s + {_fmt(cfg.outage_duration)} s   dt: {_fmt(cfg.dt)} s",
        f"  aggregation: {_AGGREGATION_NOTE}",
        "",
        f"  {'predictor':<12}{'RMSE [m]':>14}{'terminal [m]':>16}{'reduction vs ukf [%]':>24}",
    ]
    for name in predictors:
        reduction = result.reduction_vs_ukf_pct.get(name)
        red_text = _fmt(reduction) if reduction is not None and "ukf" in predictors else "--"
        lines.append(
            f"  {name:<12}{_fmt(result.rmse_m[name]):>14}"
            f"{_fmt(result.terminal_mean_m[name]):>16}{red_text:>24}"
        )
    return "\n".join(lines) + "\n"


def _summary_json(cfg: ScenarioConfig, result: McResult, predictors) -> str:
    def sig(v: float) -> float:
        return float(f"{v:.6g}")

    metrics = {}
    for name in predictors:
        entry = {
            "rmse_m": sig(result.rmse_m[name]),
            "terminal_mean_m": sig(result.terminal_mean_m[name]),
        }
        if name in result.reduction_vs_ukf_pct and "ukf" in predictors:
            entry["reduction_vs_ukf_pct"] = sig(result.reduction_vs_ukf_pct[name])
        metrics[name] = entry
    payload = {
        "aggregation": _AGGREGATION_NOTE,
        "mc_runs": cfg.mc_runs,
        "base_seed": cfg.base_seed,
        "predictors": metrics,
        "config": {k: (v if not isinstance(v, float) else sig(v)) for k, v in config_values(cfg).items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(columns: dict[str, object]) -> str:
    rows = [",".join(columns)] + [",".join(map(_fmt, row)) for row in zip(*columns.values())]
    return "\n".join(rows) + "\n"


def _error_series_csv(result: McResult, predictors) -> str:
    times = result.designated_run.times
    return _csv({"time_s": times} | {f"{name}_mean_err_m": result.mean_err[name] for name in predictors})


def _trajectory_csv(result: McResult, predictors) -> str:
    rec = result.designated_run
    columns = {"time_s": rec.times, "truth_x": rec.truth_xy[:, 0], "truth_y": rec.truth_xy[:, 1]}
    for name in predictors:
        columns[f"{name}_x"], columns[f"{name}_y"] = rec.paths[name].T
    return _csv(columns)


def run_command(
    cfg: ScenarioConfig,
    out_dir,
    predictors=PREDICTORS,
    quiet: bool = False,
    jobs: int = 1,
) -> OutputBundle:
    """Execute the Monte Carlo batch and write the output bundle.

    Writes resolved_config.cfg, summary.txt, summary.json,
    error_series.csv (mean error series), and trajectory.csv (the
    base-seed run). Column sets follow the `predictors` selection in the
    fixed order ukf, lagrange, vhd.
    """
    predictors = tuple(name for name in PREDICTORS if name in predictors)
    if not predictors:
        raise ConfigError("predictor selection is empty")

    result = monte_carlo(cfg, jobs=jobs)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    contents = {
        "resolved_config": (out_dir / "resolved_config.cfg", resolved_config_text(cfg)),
        "summary_text": (out_dir / "summary.txt", _summary_text(cfg, result, predictors)),
        "summary_json": (out_dir / "summary.json", _summary_json(cfg, result, predictors)),
        "error_series": (out_dir / "error_series.csv", _error_series_csv(result, predictors)),
        "trajectory": (out_dir / "trajectory.csv", _trajectory_csv(result, predictors)),
    }
    paths = {}
    for key, (path, text) in contents.items():
        path.write_text(text, encoding="utf-8", newline="\n")
        paths[key] = path

    if not quiet:
        sys.stdout.write(contents["summary_text"][1])

    return OutputBundle(paths=paths, result=result)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vhd-sim",
        description="Monte Carlo comparison of outage-time trajectory predictors.",
    )
    parser.add_argument("--config", metavar="PATH", help="config file (flat key = value lines)")
    parser.add_argument("--runs", type=int, metavar="N", help="override sim.mc_runs")
    parser.add_argument("--seed", type=int, metavar="S", help="override sim.base_seed")
    parser.add_argument("--out-dir", default="out", metavar="PATH", help="output directory (default: out)")
    parser.add_argument(
        "--predictors",
        default=",".join(PREDICTORS),
        metavar="LIST",
        help="comma-separated subset of ukf,lagrange,vhd",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N", help="parallel worker processes")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary on stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else ScenarioConfig()
        overrides = {}
        if args.runs is not None:
            overrides["mc_runs"] = args.runs
        if args.seed is not None:
            overrides["base_seed"] = args.seed
        if overrides:
            cfg = replace(cfg, **overrides)
        names = tuple(part.strip() for part in args.predictors.split(",") if part.strip())
        unknown = [name for name in names if name not in PREDICTORS]
        if unknown:
            raise ConfigError(f"unknown predictors: {', '.join(unknown)} (choose from {', '.join(PREDICTORS)})")
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        run_command(cfg, args.out_dir, predictors=names, quiet=args.quiet, jobs=args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
