"""Command-line front end: config loading, execution, CSV/JSON export.

Config files are flat ``section.key = value`` text: one assignment per
line, ``#`` starts a comment, blank lines are ignored. Every key is
optional; missing keys take the library defaults. The full resolved
configuration is echoed next to the outputs in the same format, so an
output directory is always reproducible from its own echo.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .simkit import PREDICTORS, ConfigError, McResult, ScenarioConfig, monte_carlo

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# A field's declared type -> (converter, pretty type name); with postponed
# annotations the type is the annotation's text.
_CONVERTERS = {"int": (int, "int"), "float": (_finite_float, "finite float")}

# key -> ScenarioConfig field. Field order fixes the resolved echo's.
_SCHEMA = {f.metadata["key"]: f for f in fields(ScenarioConfig)}


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
        converter, type_name = _CONVERTERS[_SCHEMA[key].type]
        try:
            values[key] = converter(text)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: value for {key!r} must be {type_name}, got {text!r}"
            ) from None
    return values


def _build_config(values: dict[str, object]) -> ScenarioConfig:
    try:
        return ScenarioConfig(**{_SCHEMA[key].name: value for key, value in values.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ScenarioConfig:
    """Load a config file; missing keys fall back to the defaults. A UTF-8
    byte-order mark, as some editors write one, is skipped; a file that is
    not UTF-8 is named with the line of its first bad byte."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # The text before the bad byte decodes; its line breaks are the
        # ones splitlines counts below.
        lineno = len((exc.object[: exc.start].decode("utf-8-sig") + ".").splitlines())
        raise ConfigError(
            f"cannot read config {path}: line {lineno} is not UTF-8: "
            f"cannot decode byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
        ) from None
    return _build_config(_parse_lines(text.splitlines(), str(path)))


def config_values(cfg: ScenarioConfig) -> dict[str, object]:
    """The flat key/value view of a resolved config, in schema order."""
    return {key: getattr(cfg, f.name) for key, f in _SCHEMA.items()}


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


def _csv(columns: dict[str, np.ndarray]) -> str:
    # One `%` per row, on the row's Python floats, which format as `_fmt`
    # formats numpy's; only one row of them is alive at a time.
    row = ",".join(["%.6g"] * len(columns)) + "\n"
    table = np.column_stack(list(columns.values()))
    return "".join([",".join(columns) + "\n"] + [row % tuple(values.tolist()) for values in table])


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
    fixed order ukf, lagrange, vhd. A selection that is empty or names an
    unknown predictor raises ConfigError before anything runs.
    """
    unknown = [name for name in predictors if name not in PREDICTORS]
    if unknown:
        raise ConfigError(f"unknown predictors: {', '.join(unknown)} (choose from {', '.join(PREDICTORS)})")
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
    # Imported here: only `main` parses flags, and a batch run through
    # `run_command` need not load argparse.
    import argparse

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
