"""One benchmark repetition, run by run.py in a fresh interpreter.

    python3 perfbench/rep.py MODE CONFIG OUT_DIR JOBS RESULT [DESIGNATED]

MODE is one of
  time    set up (import vhd, load CONFIG), then time one run_command call
          between two timings of the calibration loop; with DESIGNATED, also
          compare the batch's designated run against the per-run oracle
          paths saved there (untimed, after the batch).
  trace   the same batch with every traced boundary wrapped (tracer.py);
          the spans are written next to RESULT when the batch ends.
  oracle  untimed reference: run_scenario for every seed of the batch, the
          aggregates computed here, the designated run's paths saved to
          designated.npz next to RESULT.

The JSON written to RESULT is the repetition's only report.
"""

import time

# Set-up time counts from here: before vhd, numpy or anything they import.
T0 = time.perf_counter()

import sys  # noqa: E402

CALIBRATION_STEPS = 1500


def calibrate(np) -> float:
    """Seconds taken by a fixed loop of 6x6 Kalman predict/update arithmetic.

    The loop belongs to the benchmark, not to vhd, so its time moves only
    with the speed of the machine. Timing it next to each batch lets run.py
    scale the batch's time to a reference machine speed.
    """
    F = np.eye(6) + 0.1 * np.eye(6, k=1)
    Q = 1e-3 * np.eye(6)
    H = np.zeros((2, 6))
    H[0, 0] = H[1, 3] = 1.0
    R = np.eye(2)
    I6 = np.eye(6)
    z = np.ones(2)
    m, P = np.zeros(6), np.eye(6)
    start = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        m = F @ m
        P = F @ P @ F.T + Q
        P = 0.5 * (P + P.T)
        S = H @ P @ H.T + R
        np.linalg.cholesky(S)
        K = np.linalg.solve(S, H @ P).T
        m = m + K @ (z - H @ m)
        A = I6 - K @ H
        P = A @ P @ A.T + K @ R @ K.T
        P = 0.5 * (P + P.T)
    return time.perf_counter() - start


def calibrate_on(np, jobs: int) -> float:
    """Mean calibration time of `jobs` processes running it at once.

    A batch at --jobs 2 runs on two cores, so the machine speed it sees is
    that of both; the extra processes are forked and waited for here.
    """
    import os

    readers = []
    for _ in range(jobs - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                os.write(write_fd, repr(calibrate(np)).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        readers.append((pid, read_fd))
    times = [calibrate(np)]
    for pid, read_fd in readers:
        with os.fdopen(read_fd, "rb") as fh:
            times.append(float(fh.read()))
        os.waitpid(pid, 0)
    return sum(times) / len(times)


def _output_bytes(bundle) -> int:
    return sum(path.stat().st_size for path in bundle.paths.values())


def time_batch(vhd, np, cfg, out_dir, jobs, designated=None) -> dict:
    before = calibrate_on(np, jobs)
    start = time.perf_counter()
    bundle = vhd.cli.run_command(cfg, out_dir, quiet=True, jobs=jobs)
    wall = time.perf_counter() - start
    after = calibrate_on(np, jobs)
    report = {"wall_s": wall, "calibration_s": [before, after], "output_bytes": _output_bytes(bundle)}
    if designated is not None:
        with np.load(designated) as reference:
            paths = bundle.result.designated_run.paths
            report["designated_max_diff_m"] = max(
                float(np.max(np.abs(paths[name] - reference[name]))) for name in reference.files
            )
    return report


def trace_batch(vhd, np, config, out_dir, jobs, work_dir) -> dict:
    import json

    from tracer import Tracer, layer_metrics

    worker_dir = work_dir / "workers"
    worker_dir.mkdir(exist_ok=True)
    tracer = Tracer(worker_dir)
    missing = tracer.install()
    cfg = vhd.cli.load_config(config)
    before = calibrate_on(np, jobs)
    start = time.perf_counter()
    bundle = vhd.cli.run_command(cfg, out_dir, quiet=True, jobs=jobs)
    wall = time.perf_counter() - start
    after = calibrate_on(np, jobs)
    tracer.collect()
    with open(work_dir / "spans.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return {
        "wall_s": wall,
        "calibration_s": [before, after],
        "output_bytes": _output_bytes(bundle),
        "missing": missing,
        "layers": layer_metrics(tracer.spans, tracer.distinct),
    }


def oracle(np, cfg, work_dir) -> dict:
    from vhd.simkit import PREDICTORS, run_scenario

    records = [run_scenario(cfg, cfg.base_seed + k) for k in range(cfg.mc_runs)]
    np.savez(work_dir / "designated.npz", **records[0].paths)
    errors = {name: np.stack([rec.errors[name] for rec in records]) for name in PREDICTORS}
    return {
        "times": records[0].times.tolist(),
        "mean_err": {name: e.mean(axis=0).tolist() for name, e in errors.items()},
        "rmse_m": {name: float(np.sqrt(np.mean(np.square(e)))) for name, e in errors.items()},
        "terminal_mean_m": {name: float(e[:, -1].mean()) for name, e in errors.items()},
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}),
    }


def main(argv) -> None:
    mode, config, out_dir, jobs, result = argv[:5]
    import vhd.cli

    cfg = None if mode == "trace" else vhd.cli.load_config(config)
    setup_s = time.perf_counter() - T0

    import json
    from pathlib import Path

    import numpy as np

    out_dir, result = Path(out_dir), Path(result)
    if mode == "time":
        report = time_batch(vhd, np, cfg, out_dir, int(jobs), argv[5] if len(argv) > 5 else None)
    elif mode == "trace":
        report = trace_batch(vhd, np, config, out_dir, int(jobs), result.parent)
    else:
        report = oracle(np, cfg, result.parent)
    report["setup_s"] = setup_s
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
