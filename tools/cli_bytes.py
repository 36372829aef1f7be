"""Check that the CLI writes the same bytes as another checkout.

    python3 tools/cli_bytes.py --base DIR

DIR is a checkout of the commit to compare against (for example one made
with ``git worktree add``); the other side is the checkout holding this
script. Each case runs ``python -m vhd.cli`` once per side, with that
side's ``src`` first on ``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``. A
bundle case compares every file of the two output bundles byte for byte
and names each file that differs, or that only one side wrote. The
bundles hold the truth, so the cases compare it on two geometries: the
default one, and a turn from t = 0 against a current from another
direction. One case sets all 24 config keys, each away from its default,
so every key's path from the file to the bundle is compared. An error
case runs a config that cannot run, or a file that does not parse, and
requires the same exit code, the same stderr and the same output
directory, written or not, on both sides; each case that differs is
named. Each phase's covariances are checked by one mask over its table
of per-axis floats, which fails a row on a covariance entry that is not
finite or on an innovation variance s <= 0. The configs that cannot run
fail it both ways in each phase: in the outage, a covariance that
overflows and an s that turns negative; while tracking, an s of exactly
0, a covariance that overflows, and an s that turns negative. Exit
status is 0 when every bundle and every error is identical and 1
otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600.0

# Case name -> (config lines, extra CLI arguments). They cover the default
# batch serially and through --jobs workers, the two long workloads of the
# benchmark, an outage that is not a whole number of vhd blocks (its first
# block padded with identity steps) and whose CSVs end on a part-filled
# block of rows, a denser fix rate with a high-degree fit and interpolant, a
# finer step with a sparser fix rate and an onset off the window grid (a fix
# inside a window period, and identity steps padding the first one), a
# second geometry: a turn from t = 0 the other way, from another heading,
# against a current from another direction, every key set at once, a
# predictor selection without ukf (every reduction `--` in summary.txt, none
# in summary.json, and CSVs of a subset of columns), and a 300 s outage whose
# noise law has a power other than 2.
CASES = {
    "default": ([], []),
    "default --jobs 3": ([], ["--jobs", "3"]),
    "300 s outage": (["sim.duration = 360", "sim.outage_duration = 300"], ["--runs", "3"]),
    "300.7 s outage": (["sim.duration = 361", "sim.outage_duration = 300.7"], ["--runs", "2"]),
    "1000 s track": (["sim.duration = 1040", "sim.outage_start = 1000"], ["--runs", "2"]),
    "fix_rate 2, degree 5, 12 nodes": (
        ["sensor.fix_rate = 2", "vhd.poly_degree = 5", "baseline.lagrange_nodes = 12"],
        ["--runs", "12"],
    ),
    "dt 0.05, fix_rate 0.4, onset 60.5": (
        ["sim.dt = 0.05", "sensor.fix_rate = 0.4", "sim.outage_start = 60.5", "sim.duration = 110"],
        ["--runs", "4"],
    ),
    "turn from 0 at -0.3 rad/s, heading 1.2, current at 200 deg": (
        ["traj.turn_start = 0", "traj.turn_rate = -0.3", "traj.initial_heading = 1.2", "current.heading_deg = 200"],
        ["--runs", "4"],
    ),
    # The values of tests/test_cli.py's NON_DEFAULT: each key's path from the
    # file to the bundle, at 3 runs.
    "every key at a non-default value": (
        [
            "sim.duration = 80", "sim.dt = 0.05", "sim.outage_start = 40", "sim.outage_duration = 30",
            "sim.history_window = 30", "sim.mc_runs = 3", "sim.base_seed = 99", "sim.sigma_jerk = 2.5",
            "current.speed = 0.5", "current.heading_deg = 120",
            "sensor.position_fix_noise = 2", "sensor.accel_white_noise = 0.1",
            "sensor.accel_bias_walk = 0.01", "sensor.fix_rate = 2",
            "vhd.r_base = 1.5", "vhd.alpha = 0.02", "vhd.p = 1.5", "vhd.poly_degree = 3",
            "baseline.lagrange_nodes = 6", "traj.cruise_speed = 3", "traj.turn_rate = -0.05",
            "traj.turn_start = 20", "traj.turn_duration = 8", "traj.initial_heading = 0.5",
        ],
        [],
    ),
    "--predictors lagrange,vhd": ([], ["--predictors", "lagrange,vhd"]),
    "300 s outage, vhd.p 3.7, vhd.alpha 0.002": (
        ["sim.duration = 360", "sim.outage_duration = 300", "vhd.p = 3.7", "vhd.alpha = 0.002"],
        ["--runs", "2"],
    ),
}

# Case name -> config lines of a config that cannot run: the filter fails in
# the outage, where a covariance overflows (step 925) or, with no process
# noise and a virtual-fix variance below rounding, the `vhd` innovation
# variance turns negative (step 605, a step set by rounding in the last
# bits, so it is compared between checkouts on one machine and nowhere
# pinned); while tracking, at its second step (with no process or
# accelerometer noise, s is exactly 0), in its second fix period (the
# covariance overflows), and, on the tests' short geometry with exact
# fixes, at step 50 (the fix's s is a negative rounding residue, so this
# step too is set by the last bits); the file does not parse: an int key
# given a float, a float key given nan, an unknown key, and a key set
# twice. Both sides must exit with the same code and stderr, and write the
# same output directory or none.
ERROR_CASES = {
    "sigma_jerk 1e151 (step 925)": ["sim.sigma_jerk = 1e151"],
    "sigma_jerk 0, vhd.r_base 1e-31 (outage step 605)": ["sim.sigma_jerk = 0", "vhd.r_base = 1e-31"],
    "sigma_jerk 0, accel_white_noise 0 (step 2)": ["sim.sigma_jerk = 0", "sensor.accel_white_noise = 0"],
    "sigma_jerk and sensor noises 1.3e154 (step 11)": [
        "sim.sigma_jerk = 1.3e154", "sensor.position_fix_noise = 1.3e154", "sensor.accel_white_noise = 1.3e154",
    ],
    "short run, sigma_jerk 0, position_fix_noise 0, accel_white_noise 1e150 (step 50)": [
        "sim.duration = 40", "sim.outage_start = 20", "sim.outage_duration = 10", "sim.history_window = 20",
        "traj.turn_start = 10", "traj.turn_duration = 5",
        "sim.sigma_jerk = 0", "sensor.position_fix_noise = 0", "sensor.accel_white_noise = 1e150",
    ],
    "mc_runs 1.5 (must be int)": ["sim.mc_runs = 1.5"],
    "dt nan (must be finite float)": ["sim.dt = nan"],
    "unknown key sim.bogus": ["sim.bogus = 1"],
    "fix_rate set twice (duplicate key)": ["sensor.fix_rate = 2", "sensor.fix_rate = 2"],
}


def run_cli(checkout: Path, config: Path, args: list[str], out_dir: Path, check: bool = True):
    """The CLI's exit code and stderr; with `check`, exit unless the code is 0."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "vhd.cli", "--config", str(config), "--out-dir", str(out_dir), "--quiet", *args]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if check and proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return proc.returncode, proc.stderr


def differing_files(base: Path, change: Path) -> list[str]:
    names = sorted({p.name for p in base.iterdir()} | {p.name for p in change.iterdir()})
    return [
        name for name in names
        if not ((base / name).is_file() and (change / name).is_file()
                and (base / name).read_bytes() == (change / name).read_bytes())
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="checkout to compare against")
    args = parser.parse_args()
    sides = {"base": args.base.resolve(), "change": ROOT}

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        failed = False
        for k, (name, (lines, cli_args)) in enumerate(CASES.items()):
            config = work / f"case{k}.cfg"
            config.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
            outs = {side: work / f"case{k}-{side}" for side in sides}
            for side, checkout in sides.items():
                run_cli(checkout, config, cli_args, outs[side])
            diff = differing_files(outs["base"], outs["change"])
            print(f"{name}: " + (f"differs in {', '.join(diff)}" if diff else "identical"))
            failed |= bool(diff)
        for k, (name, lines) in enumerate(ERROR_CASES.items()):
            config = work / f"error{k}.cfg"
            config.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
            got = {}
            for side, checkout in sides.items():
                out_dir = work / f"error{k}-{side}"
                got[side] = (*run_cli(checkout, config, [], out_dir, check=False), out_dir.exists())
            if got["base"] == got["change"]:
                print(f"{name}: identical exit {got['change'][0]}")
            else:
                print(f"{name}: differs: base {got['base']!r}, change {got['change']!r}")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
