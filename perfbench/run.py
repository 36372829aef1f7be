"""Benchmark of the vhd Monte Carlo batch, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's config file is
generated from --seed (it becomes ``sim.base_seed``) and is all the
program sees. A closed loop then runs one batch after another, each
repetition a fresh interpreter (rep.py), until --seconds have passed:

* ``--trace 0`` times set-up (``import vhd`` plus ``load_config``) and one
  ``vhd.cli.run_command`` call per repetition, and reports medians of
  ``sim_steps_per_s``, ``setup_s`` and ``peak_rss_mb``;
* ``--trace 1`` alternates untraced, traced and other-``--jobs``
  repetitions and reports the per-layer metrics of the traced ones.

Times are scaled to a reference machine speed. On a shared 2-vCPU host the
same batch takes anywhere from 1x to 1.7x its best time, in phases of
seconds to minutes, so unscaled medians of two runs minutes apart differ by
more than any useful bound. Each repetition therefore also times a fixed
calibration loop (rep.py) right before and right after its batch, on as
many processes as the batch uses, and the batch's time is divided by how
much slower than CALIBRATION_REFERENCE_S that loop ran. The unscaled
medians are printed on the line before the result.

Before timing, an untimed oracle repetition runs ``vhd.run_scenario`` for
every seed of the batch. Every repetition's ``summary.json`` and
``error_series.csv`` must match the oracle's aggregates, the first one's
designated run must match the oracle's run to 1e-9 m, and for the seeds in
reference.json the oracle must match the recorded values. A repetition
that exits non-zero or fails a check counts in ``failed``.

The last line of stdout is the JSON result; the metric names and units
come from BENCHMARK.json. Everything written goes under .perfbench_work/.

    python3 perfbench/run.py --record-reference

rewrites reference.json from the current sources.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import mean, median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"

_PAPER = {
    "sim.duration": 110.0,
    "sim.dt": 0.1,
    "sim.outage_start": 60.0,
    "sim.outage_duration": 40.0,
    "sim.mc_runs": 6,
}
# Workload -> (config keys handed to the program, --jobs). The reasons for
# each are in BENCHMARK.json. Batches are sized to take about one second on
# a 2-vCPU Xeon, far below the paper's 100 runs, so that a 25 s run takes the
# median of a dozen or more repetitions; steps per second keep workloads of
# different shapes comparable.
WORKLOADS = {
    "paper_default": (_PAPER, 1),
    "long_blackout": (
        {**_PAPER, "sim.duration": 360.0, "sim.outage_duration": 300.0, "sim.mc_runs": 1},
        1,
    ),
    "single_long_track": (
        {**_PAPER, "sim.duration": 1040.0, "sim.outage_start": 1000.0, "sim.mc_runs": 1},
        1,
    ),
    "pool2": (_PAPER, 2),
}

DEFAULT_SEED = 1234
HELD_OUT_SEED = 4242
REFERENCE_EVERY = 10  # reference.json keeps every 10th step of the error series
OUTPUT_RTOL = 2e-5  # the output files round to 6 significant digits
REFERENCE_RTOL = 1e-6
DESIGNATED_ATOL_M = 1e-9
MIN_REPS = 3
CALIBRATION_REFERENCE_S = 0.05
REP_TIMEOUT_S = 150.0

# One thread per process, so that --jobs 2 uses no more threads than cores.
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Workload:
    """A workload's generated config and the directories its repetitions use."""

    def __init__(self, name: str, seed: int):
        keys, self.jobs = WORKLOADS[name]
        keys = {**keys, "sim.base_seed": seed}
        self.steps = keys["sim.mc_runs"] * round(keys["sim.duration"] / keys["sim.dt"])
        self.dir = WORK / name
        self.out = self.dir / "out"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "workload.cfg"
        self.config.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
        self.env = {**os.environ, "PYTHONPATH": str(SRC), **{var: "1" for var in _THREAD_VARS}}

    def rep(self, mode: str, jobs: int, *extra: str) -> tuple[int, float, dict | None]:
        """Run one repetition; returns (exit code, peak RSS in MB, report)."""
        result = self.dir / f"{mode}.json"
        result.unlink(missing_ok=True)
        shutil.rmtree(self.out, ignore_errors=True)  # no output may outlive its batch
        argv = [sys.executable, str(BENCH_DIR / "rep.py"), mode, str(self.config),
                str(self.out), str(jobs), str(result), *extra]
        proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL, start_new_session=True)
        timer = threading.Timer(REP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # pool workers of a repetition that crashed
        report = json.loads(result.read_text(encoding="utf-8")) if proc.returncode == 0 else None
        return proc.returncode, usage.ru_maxrss / 1024.0, report


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _close(got: float, want: float, rtol: float) -> bool:
    return math.isclose(got, want, rel_tol=rtol, abs_tol=1e-12)


def check_outputs(out_dir: Path, oracle: dict) -> list[str]:
    """Compare a repetition's summary.json and error_series.csv with the oracle."""
    problems = []
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        with open(out_dir / "error_series.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        for name in oracle["rmse_m"]:
            entry = summary["predictors"][name]
            for key in ("rmse_m", "terminal_mean_m"):
                got, want = float(entry[key]), oracle[key][name]
                if name != "lagrange" and not math.isfinite(got):
                    problems.append(f"{name} {key} is {got}")
                elif not _close(got, want, OUTPUT_RTOL):
                    problems.append(f"{name} {key} = {got}, oracle {want}")
        if len(rows) != len(oracle["times"]):
            problems.append(f"error_series has {len(rows)} rows, oracle {len(oracle['times'])}")
        columns = {name: header.index(f"{name}_mean_err_m") for name in oracle["mean_err"]}
        for k, row in enumerate(rows[: len(oracle["times"])]):
            cells = [(float(row[0]), oracle["times"][k])]
            cells += [(float(row[i]), oracle["mean_err"][name][k]) for name, i in columns.items()]
            if not all(_close(got, want, OUTPUT_RTOL) for got, want in cells):
                problems.append(f"error_series row {k + 1} = {row}")
                break
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable outputs: {exc!r}")
    return problems


def reference_entry(oracle: dict) -> dict:
    return {
        "rmse_m": oracle["rmse_m"],
        "terminal_mean_m": oracle["terminal_mean_m"],
        "mean_err_every_10": {k: v[::REFERENCE_EVERY] for k, v in oracle["mean_err"].items()},
    }


def check_reference(name: str, seed: int, oracle: dict) -> list[str]:
    """Compare the oracle with the values recorded for this seed, if any."""
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8")).get(name, {}).get(str(seed))
    if recorded is None:
        return []
    entry = reference_entry(oracle)
    problems = []
    for key in ("rmse_m", "terminal_mean_m"):
        for predictor, want in recorded[key].items():
            got = entry[key].get(predictor, math.nan)
            if not _close(got, want, REFERENCE_RTOL):
                problems.append(f"{predictor} {key} = {got}, recorded {want}")
    for predictor, want in recorded["mean_err_every_10"].items():
        got = entry["mean_err_every_10"].get(predictor, [])
        if len(got) != len(want) or not all(map(_close, got, want, [REFERENCE_RTOL] * len(want))):
            problems.append(f"{predictor} mean error series differs from the recorded one")
    return problems


def run_oracle(workload: Workload) -> dict:
    code, _, oracle = workload.rep("oracle", 1)
    if oracle is None:
        sys.exit(f"oracle repetition exited with code {code}")
    return oracle


def machine_info(oracle: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": oracle["numpy"],
        "blas": oracle["blas"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def src_loc() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def cycle(workload: Workload, trace: bool) -> list[tuple[str, int]]:
    """(mode, --jobs) of the repetitions the closed loop repeats in turn.

    The traced loop interleaves the untraced batch, the traced batch and
    the batch at the other --jobs, so that the tracing overhead and the
    pool's parallel efficiency compare batches run close together in time.
    """
    if not trace:
        return [("time", workload.jobs)]
    return [("time", workload.jobs), ("trace", workload.jobs), ("time", 3 - workload.jobs)]


def measure(workload: Workload, oracle: dict, seconds: float, trace: bool) -> dict:
    """The closed loop: repetitions back to back until `seconds` have passed."""
    kinds = cycle(workload, trace)
    samples = {"attempted": 0, "failed": 0, "problems": [], "reps": {}}
    deadline = time.perf_counter() + seconds
    designated = str(workload.dir / "designated.npz")
    n = 0
    while True:
        mode, jobs = kinds[n % len(kinds)]
        started = time.perf_counter()
        extra = (designated,) if n == 0 else ()
        code, rss_mb, report = workload.rep(mode, jobs, *extra)
        problems = [f"exit code {code}"] if report is None else check_outputs(workload.out, oracle)
        if report is not None and n == 0 and not report["designated_max_diff_m"] <= DESIGNATED_ATOL_M:
            problems.append(f"designated run differs from run_scenario by {report['designated_max_diff_m']} m")
        samples["attempted"] += 1
        if problems:
            samples["failed"] += 1
            samples["problems"].append(f"{mode} jobs={jobs}: {'; '.join(problems)}")
        if report is not None:  # a wrong result was still timed; `failed` reports it
            samples["reps"].setdefault(f"{mode}{jobs}", []).append({**report, "peak_rss_mb": rss_mb})
        n += 1
        now = time.perf_counter()
        if n >= max(MIN_REPS, len(kinds)) and n % len(kinds) == 0 and now + (now - started) > deadline:
            return samples


def slowness(rep: dict) -> float:
    """How much slower than the reference the machine ran around this batch."""
    return mean(rep["calibration_s"]) / CALIBRATION_REFERENCE_S


def end_to_end(workload: Workload, reps: dict) -> dict:
    """Medians of the untraced batches; the last two keys are not scaled."""
    timed = reps[f"time{workload.jobs}"]
    return {
        "sim_steps_per_s": median([workload.steps / r["wall_s"] * slowness(r) for r in timed]),
        "setup_s": median([r["setup_s"] / slowness(r) for r in timed]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in timed]),
        "unscaled_sim_steps_per_s": median([workload.steps / r["wall_s"] for r in timed]),
        "unscaled_setup_s": median([r["setup_s"] for r in timed]),
    }


def per_layer(workload: Workload, reps: dict) -> dict:
    untraced = reps[f"time{workload.jobs}"]
    traced = reps[f"trace{workload.jobs}"]
    # Unscaled: the calibration of a --jobs 2 batch runs on two processes at
    # once, which would divide out the cost of running two. The loop
    # interleaves both kinds, so machine drift reaches both alike.
    rate = {jobs: median([workload.steps / r["wall_s"] for r in reps[f"time{jobs}"]]) for jobs in (1, 2)}
    values = {name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    values["simkit.monte_carlo.parallel_efficiency"] = rate[2] / (2.0 * rate[1])
    values["cli.output_bytes"] = median([r["output_bytes"] for r in traced])
    values["trace.overhead_frac"] = (
        median([r["wall_s"] / slowness(r) for r in traced])
        / median([r["wall_s"] / slowness(r) for r in untraced])
        - 1.0
    )
    values["repo.src_loc"] = src_loc()
    for name in traced[0]["missing"]:
        print(f"warning: traced boundary {name} does not exist", file=sys.stderr)
    return values


def record_reference() -> None:
    recorded = {}
    for name in WORKLOADS:
        recorded[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            recorded[name][str(seed)] = reference_entry(run_oracle(Workload(name, seed)))
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not (SRC / "vhd" / "__init__.py").is_file():
        print(f"no vhd sources under {SRC}: run from the root of a vhd checkout", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        parser.error("--workload is required; --seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = Workload(args.workload, args.seed)
    oracle = run_oracle(workload)
    reference_problems = check_reference(args.workload, args.seed, oracle)
    samples = measure(workload, oracle, args.seconds, bool(args.trace))
    reps = samples["reps"]
    if not all(f"{mode}{jobs}" in reps for mode, jobs in cycle(workload, bool(args.trace))):
        print("\n".join(samples["problems"]), file=sys.stderr)
        print("every repetition of some kind crashed", file=sys.stderr)
        return 1

    if args.trace:
        values, listed = per_layer(workload, reps), spec["per_layer"]
    else:
        values, listed = end_to_end(workload, reps), spec["end_to_end"]
    failed = samples["attempted"] if reference_problems else samples["failed"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": {k: len(v) for k, v in reps.items()},
        "problems": reference_problems + samples["problems"],
        "values": values,
        "machine": machine_info(oracle),
    }
    result = {
        "correct": failed == 0,
        "attempted": samples["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    (workload.dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({**info, "samples": samples, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    for problem in info["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
