"""Command-line front end: config loading, execution, CSV/JSON export.

Config files are flat ``section.key = value`` text: one assignment per
line, ``#`` starts a comment, blank lines are ignored. Every key is
optional; missing keys take the library defaults. The full resolved
configuration is echoed next to the outputs in the same format, so an
output directory is always reproducible from its own echo.
"""

from __future__ import annotations

import codecs
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig
from .simkit import PREDICTORS, McResult, monte_carlo

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
    not UTF-8 is named with the line of its first bad byte. The mark is cut
    here, as the `utf-8-sig` codec would cut it, so set-up loads no codec."""
    path = Path(path)
    try:
        data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The text before the bad byte decodes; its line breaks are the
        # ones splitlines counts below.
        lineno = len((exc.object[: exc.start].decode("utf-8") + ".").splitlines())
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


# Rows per `%` in `_csv`: far fewer calls than one a row, far fewer live floats than one a table.
_CSV_ROWS = 256


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _summary_payload(cfg: ScenarioConfig, result: McResult, predictors) -> dict:
    """summary.json's payload, which summary.txt renders: each float rounded to `_fmt`'s 6 digits, which
    `_fmt` prints as it prints the float. A reduction is present where there is one and ukf is selected."""
    metrics = {}
    for name in predictors:
        entry = {"rmse_m": result.rmse_m[name], "terminal_mean_m": result.terminal_mean_m[name]}
        if name in result.reduction_vs_ukf_pct and "ukf" in predictors:
            entry["reduction_vs_ukf_pct"] = result.reduction_vs_ukf_pct[name]
        metrics[name] = {key: float(_fmt(value)) for key, value in entry.items()}
    return {
        "aggregation": _AGGREGATION_NOTE,
        "mc_runs": cfg.mc_runs,
        "base_seed": cfg.base_seed,
        "predictors": metrics,
        "config": {k: float(_fmt(v)) if isinstance(v, float) else v for k, v in config_values(cfg).items()},
    }


def _summary_text(payload: dict) -> str:
    """summary.txt: the payload's figures, with `--` for an absent reduction."""
    config = payload["config"]
    lines = [
        "outage prediction summary",
        f"  runs: {payload['mc_runs']}   base seed: {payload['base_seed']}   "
        f"outage: {_fmt(config['sim.outage_start'])} s + {_fmt(config['sim.outage_duration'])} s   "
        f"dt: {_fmt(config['sim.dt'])} s",
        f"  aggregation: {payload['aggregation']}",
        "",
        f"  {'predictor':<12}{'RMSE [m]':>14}{'terminal [m]':>16}{'reduction vs ukf [%]':>24}",
    ]
    for name, entry in payload["predictors"].items():
        reduction = _fmt(entry["reduction_vs_ukf_pct"]) if "reduction_vs_ukf_pct" in entry else "--"
        lines.append(f"  {name:<12}{_fmt(entry['rmse_m']):>14}{_fmt(entry['terminal_mean_m']):>16}{reduction:>24}")
    return "\n".join(lines) + "\n"


def _csv(columns: dict[str, np.ndarray]):
    """Yield the CSV of `columns`: the header, then one `%` per block of _CSV_ROWS rows, stacked from
    the block's slice of each column, on its Python floats (which `%.6g` formats as numpy's)."""
    yield ",".join(columns) + "\n"
    row = ",".join(["%.6g"] * len(columns)) + "\n"
    values = list(columns.values())
    for start in range(0, len(values[0]), _CSV_ROWS):
        part = np.column_stack([column[start : start + _CSV_ROWS] for column in values])
        yield row * len(part) % tuple(part.ravel().tolist())


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
    base-seed run), each as it is formatted. Column sets follow the
    `predictors` selection in the fixed order ukf, lagrange, vhd. A
    selection that is empty or names an unknown predictor raises
    ConfigError before anything runs.
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
    payload = _summary_payload(cfg, result, predictors)
    summary = _summary_text(payload)
    rec = result.designated_run
    errors = {"time_s": rec.times} | {f"{name}_mean_err_m": result.mean_err[name] for name in predictors}
    trajectory = {"time_s": rec.times, "truth_x": rec.truth_xy[:, 0], "truth_y": rec.truth_xy[:, 1]}
    for name in predictors:
        trajectory[f"{name}_x"], trajectory[f"{name}_y"] = rec.paths[name].T
    pieces = {  # the CSVs' are generators, formatted as they are written
        "resolved_config": ("resolved_config.cfg", [resolved_config_text(cfg)]),
        "summary_text": ("summary.txt", [summary]),
        "summary_json": ("summary.json", [json.dumps(payload, indent=2, sort_keys=True), "\n"]),
        "error_series": ("error_series.csv", _csv(errors)),
        "trajectory": ("trajectory.csv", _csv(trajectory)),
    }
    paths = {}
    for key, (filename, parts) in pieces.items():
        paths[key] = out_dir / filename
        with paths[key].open("w", encoding="utf-8", newline="\n") as file:
            file.writelines(parts)

    if not quiet:
        sys.stdout.write(summary)

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
