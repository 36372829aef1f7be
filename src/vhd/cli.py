"""Command-line front end: config loading, execution, CSV/JSON export.

Config files are flat ``section.key = value`` text: one assignment per
line, ``#`` starts a comment, blank lines are ignored. Every key is
optional; missing keys take the library defaults. The full resolved
configuration is echoed next to the outputs in the same format, so an
output directory is always reproducible from its own echo.
"""

from __future__ import annotations

import codecs
import functools
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


# Rows per block in `_csv`. A block costs ~35 numpy calls whatever its size, and its arrays take up
# to ~80 bytes a cell: 256-row blocks wrote a 300 s outage's CSVs ~10 % slower, 1024-row ones ~35 %.
_CSV_ROWS = 512


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


@functools.cache
def _csv_tables():
    """`_cells`'s lookup tables, built on its first call, so that a batch's process maps them after
    the batch, in memory the batch has freed, and not at import, on top of the batch's peak.

    A cell is laid out in 24 byte slots, and the NUL ones are dropped: the sign, the '0.000' prefix
    of a fixed form below 1, six digits each followed by an optional point, the exponent 'e+XX',
    the separator and a pad. Returns, with each 24-byte row viewed as 3 native uint64 words:

    - the templates: row 14 (x + 17) + 2 nd + neg lays out a cell whose first digit has decimal
      exponent x (-17 to 28), whose significant digits number nd (1 to 6) and whose sign is neg,
      with '0' in each digit slot it prints; the rows of nd = 0 lay out '%.6g';
    - the first three and the last three digits of a 6-digit mantissa, in their slots, indexed by
      the mantissa's thousands (hi) and by its remainder (lo); hi 1000 is a mantissa rounded up
      to 10**6, which prints as 10**5 one exponent up;
    - 2 nd for hi alone, and for lo (0 where lo is 0, whose digits all drop as trailing zeros);
      hi 1000 adds 14, one exponent up.
    """
    x = np.arange(-17, 29)[:, None, None, None]
    nd = np.arange(7)[:, None, None]
    neg = np.arange(2)[:, None]
    slot = np.arange(6)
    fixed = (x >= -4) & (x < 6)
    layout = np.zeros((46, 7, 2, 24), np.uint8)
    layout[..., 0:1] = ord("-") * neg
    layout[..., 1:6] = np.frombuffer(b"0.000", np.uint8) * (fixed & (x <= [-1, -1, -2, -3, -4]))
    layout[..., 6:18:2] = ord("0") * (slot < np.where(fixed, np.maximum(nd, x + 1), nd))
    layout[..., 7:18:2] = ord(".") * ((slot == x * fixed) & (slot + 1 < nd))
    exponent = [0 * x + ord("e"), ord("+") + 2 * (x < 0), ord("0") + abs(x) // 10, ord("0") + abs(x) % 10]
    layout[..., 18:22] = np.concatenate(exponent, axis=-1) * ~fixed
    layout[..., 22] = ord(",")
    layout[:, 0] = np.frombuffer(b"%.6g".ljust(22, b"\0") + b",\0", np.uint8)

    group = np.arange(1001)
    group[1000] = 100
    hi, lo = np.zeros((1001, 24), np.uint8), np.zeros((1000, 24), np.uint8)
    hi[:, 6:12:2] = np.stack([group // 100, group // 10 % 10, group % 10], axis=-1)
    lo[:, 12:18:2] = hi[:1000, 6:12:2]
    hi_nd = 2 * (np.sign(group) + np.sign(group % 100) + np.sign(group % 10))
    hi_nd[1000] = 14 + 2
    lo_nd = np.where(group > 0, hi_nd + 6, 0)[:1000]
    return layout.reshape(-1, 24).view(np.uint64), hi.view(np.uint64), lo.view(np.uint64), hi_nd, lo_nd


# Index i scales by 10**(i - 22), as a product then a quotient by exact powers of ten.
_SCALE_MUL = np.array([float(10 ** max(i - 22, 0)) for i in range(45)])
_SCALE_DIV = np.array([float(10 ** max(22 - i, 0)) for i in range(45)])


def _cells(table: np.ndarray) -> str:
    """The rows of float64 `table` as '%.6g' cells and ',' between them, byte for byte as one `%` per
    cell would print them, laid out by numpy.

    |v| is scaled by 10**k with |k| <= 22, an exact power of ten, so the scaled s is one rounding,
    within 2**-33 of the exact value below 10**6. Where s lies in [10**5, 10**6) and its fraction
    is not within 1e-6 of .5, np.rint gives the correctly rounded 6-digit mantissa that `%.6g`
    prints (an s just off either end rounds to the end's mantissa, as the exact value would), and a
    mantissa of 10**6 carries into the exponent. Every other cell -- zero, non-finite, out of the
    scale's range, or a near tie -- is laid out as '%.6g' and formatted by `%` on its Python float.
    Each array is reused or dropped once read, so a block holds ~80 bytes a cell at most.
    """
    template, hi_digits, lo_digits, hi_nd, lo_nd = _csv_tables()
    rows, cols = table.shape
    values = table.ravel()
    mag = np.abs(values)
    np.fmax(mag, 1e-300, out=mag)  # zero and nan
    np.fmin(mag, 1e300, out=mag)  # inf
    scaled = np.log10(mag)
    np.floor(scaled, out=scaled)
    np.subtract(27, scaled, out=scaled)
    np.clip(scaled, 0, 44, out=scaled)
    row = scaled.astype(np.intp)  # the scale's index i, then the template's row
    np.multiply(mag, _SCALE_MUL.take(row), out=scaled)
    scaled /= _SCALE_DIV.take(row)
    mantissa = np.rint(scaled, out=mag)
    fallback = (scaled < 1e5) | (scaled >= 1e6) | (np.abs(scaled - mantissa) > 0.5 - 1e-6)
    np.fmin(mantissa, 1e6, out=mantissa)
    mantissa *= ~fallback  # 0 selects the '%.6g' rows
    hi = mantissa.astype(np.intp)
    del mag, scaled, mantissa
    lo = hi % 1000
    hi //= 1000
    row *= -14
    row += 616  # 14 (x + 17) with x = 5 - (i - 22)
    row += np.maximum(hi_nd.take(hi), lo_nd.take(lo))
    row += values < 0
    words = template.take(row, axis=0)
    del row
    words += hi_digits.take(hi, axis=0)
    del hi
    words += lo_digits.take(lo, axis=0)
    del lo
    words.view(np.uint8).reshape(rows, cols, 24)[:, -1, 22] = ord("\n")
    text = words.tobytes()
    del words
    text = text.translate(None, b"\0")
    if fallback.any():
        text %= tuple(values[fallback].tolist())
    return text.decode("ascii")


def _csv(columns: dict[str, np.ndarray]):
    """Yield the CSV of `columns`: the header, then `_cells` of each block of _CSV_ROWS rows, stacked
    from the block's slice of each column, so the writer holds one block's arrays at a time."""
    yield ",".join(columns) + "\n"
    values = list(columns.values())
    for start in range(0, len(values[0]), _CSV_ROWS):
        yield _cells(np.column_stack([column[start : start + _CSV_ROWS] for column in values]))


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
    selection that is empty or names an unknown predictor, or an
    `out_dir` that is a file or lies under one, raises ConfigError
    before anything runs. The directory is made only after the batch.
    """
    unknown = [name for name in predictors if name not in PREDICTORS]
    if unknown:
        raise ConfigError(f"unknown predictors: {', '.join(unknown)} (choose from {', '.join(PREDICTORS)})")
    predictors = tuple(name for name in PREDICTORS if name in predictors)
    if not predictors:
        raise ConfigError("predictor selection is empty")
    out_dir = Path(out_dir)
    for path in (out_dir, *out_dir.parents):
        if path.is_dir():
            break
        if path.exists():
            raise ConfigError(f"output directory {out_dir} cannot be made: {path} is not a directory")

    result = monte_carlo(cfg, jobs=jobs)

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
