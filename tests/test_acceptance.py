"""End-to-end acceptance checks.

Each test covers one numbered criterion, appends a one-line PASS/FAIL
summary (with the measured numbers) to the report printed at the end of
the session, and then asserts. The expensive default batch comes from the
session fixtures.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

import vhd
from vhd import (
    GaussianBelief,
    ScenarioConfig,
    Trajectory,
    adaptive_noise,
    ca_model,
    fit_polynomial,
    gaussian_kl,
    kl_optimal_virtual_measurement,
    lagrange_extrapolate,
    make_state,
    open_loop_predict,
    predict,
    run_outage,
    track_to_outage,
    update,
)
from vhd.kinematics import PX, PY, position_measurement_matrix

RUNNER = [sys.executable, "-c", "import sys; from vhd.cli import main; sys.exit(main(sys.argv[1:]))"]
# The CLI subprocess runs in another directory, where an inherited relative
# PYTHONPATH entry does not resolve, so the environment carries the absolute
# one.
SRC_ROOT = str(Path(vhd.__file__).resolve().parent.parent)
RUNNER_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC_ROOT, os.environ.get("PYTHONPATH")])),
}


def record(report, num, label, ok, detail):
    report.append(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_outage_error_separation(default_mc, default_cfg, acceptance_report):
    res = default_mc.result
    ukf, lag, vhd = res.rmse_m["ukf"], res.rmse_m["lagrange"], res.rmse_m["vhd"]
    reduction = res.reduction_vs_ukf_pct["vhd"]
    lag_tail = res.mean_err["lagrange"][-101:]  # final 10 s of the outage
    checks = {
        "time": default_mc.seconds < 120.0,
        "ukf": ukf > 60.0,
        "lagrange": (vhd < lag < ukf) or (lag >= ukf),
        "lagrange divergent": bool(np.all(np.diff(lag_tail) > 0.0)),
        "vhd": vhd < 25.0,
        "reduction": reduction >= 70.0,
    }
    detail = (
        f"{default_cfg.mc_runs} runs in {default_mc.seconds:.1f} s; RMSE ukf {ukf:.1f} m, "
        f"lagrange {lag:.3g} m (tail increasing: {checks['lagrange divergent']}), "
        f"vhd {vhd:.2f} m; reduction {reduction:.1f}%"
    )
    record(acceptance_report, 1, "error separation", all(checks.values()), detail)
    for name, ok in checks.items():
        assert ok, f"{name}: {detail}"


def test_criterion_2_bounded_vs_divergent(default_mc, acceptance_report):
    res = default_mc.result
    vhd_ratio = res.mean_err["vhd"][400] / res.mean_err["vhd"][100]
    ukf_ratio = res.mean_err["ukf"][400] / res.mean_err["ukf"][100]
    ok = vhd_ratio < 3.0 and ukf_ratio > 3.0
    detail = f"mean error at 40 s vs 10 s: vhd x{vhd_ratio:.2f} (< 3), ukf x{ukf_ratio:.2f} (> 3)"
    record(acceptance_report, 2, "bounded vs divergent", ok, detail)
    assert vhd_ratio < 3.0, detail
    assert ukf_ratio > 3.0, detail


def test_criterion_3_schedule_limit_regimes(default_cfg, acceptance_report):
    onset = track_to_outage(default_cfg, default_cfg.base_seed)
    T = default_cfg.outage_steps

    # regime A: the noise schedule blows up within one step, so the
    # virtual updates must become no-ops and match pure prediction
    params_a = dataclasses.replace(default_cfg, alpha=1e24)
    factor = adaptive_noise(params_a, default_cfg.dt)[0, 0] / params_a.r_base
    seq_a = run_outage(onset.belief, onset.window, params_a, T, onset.model)
    ref = open_loop_predict(onset.belief, onset.model, T)
    diff_a = max(
        float(np.linalg.norm(a.mean[[PX, PY]] - b.mean[[PX, PY]]))
        for a, b in zip(seq_a, ref)
    )

    # regime B: flat tiny noise pins the state to the fitted polynomial
    params_b = dataclasses.replace(default_cfg, r_base=1e-6, alpha=0.0)
    seq_b = run_outage(onset.belief, onset.window, params_b, T, onset.model)
    poly = fit_polynomial(onset.window, degree=default_cfg.poly_degree)
    onset_t = onset.window.times[-1]
    diff_b = max(
        float(np.linalg.norm(b.mean[[PX, PY]] - poly.position(onset_t + default_cfg.dt * k)))
        for k, b in enumerate(seq_b, start=1)
    )

    ok = factor > 1e6 and diff_a <= 1e-3 and diff_b <= 1e-2
    detail = (
        f"one-step inflation x{factor:.3g}; open-loop match {diff_a:.3g} m (<= 1e-3); "
        f"polynomial match {diff_b:.3g} m (<= 1e-2)"
    )
    record(acceptance_report, 3, "schedule limit regimes", ok, detail)
    assert factor > 1e6, detail
    assert diff_a <= 1e-3, detail
    assert diff_b <= 1e-2, detail


def test_criterion_4_filter_update_properties(acceptance_report):
    H = position_measurement_matrix()
    worst_sym = worst_psd = worst_zero = worst_inf = 0.0
    for chain in range(10_000):
        rng = np.random.default_rng(900_000 + chain)
        model = ca_model(rng.uniform(0.05, 0.5), rng.uniform(0.0, 2.0))
        A = rng.normal(size=(6, 6))
        b = GaussianBelief(rng.normal(scale=5.0, size=6), A @ A.T + 6.0 * np.eye(6))
        for _ in range(3):
            b = predict(b, model)
            B = rng.normal(size=(2, 2))
            R = B @ B.T + 0.5 * np.eye(2)
            b = update(b, H @ b.mean + rng.normal(scale=2.0, size=2), R, H)

        scale = max(1.0, float(np.abs(b.cov).max()))
        worst_sym = max(worst_sym, float(np.abs(b.cov - b.cov.T).max()) / scale)
        worst_psd = max(
            worst_psd, max(0.0, -float(np.linalg.eigvalsh(b.cov).min())) / np.trace(b.cov)
        )

        frozen = update(b, H @ b.mean, R, H)
        worst_zero = max(worst_zero, float(np.abs(frozen.mean - b.mean).max()))

        inert = update(b, rng.normal(scale=5.0, size=2), 1e9 * np.eye(2), H)
        mean_scale = max(1.0, float(np.abs(b.mean).max()))
        worst_inf = max(
            worst_inf,
            float(np.abs(inert.mean - b.mean).max()) / mean_scale,
            float(np.abs(inert.cov - b.cov).max()) / scale,
        )

    ok = worst_sym <= 1e-9 and worst_psd <= 1e-9 and worst_zero <= 1e-12 and worst_inf <= 1e-3
    detail = (
        f"10k chains: symmetry {worst_sym:.1e} (<= 1e-9), psd deficit {worst_psd:.1e} "
        f"(<= 1e-9), zero-innovation drift {worst_zero:.1e} (<= 1e-12), "
        f"inert update drift {worst_inf:.1e} (<= 1e-3)"
    )
    record(acceptance_report, 4, "filter update properties", ok, detail)
    assert worst_sym <= 1e-9, detail
    assert worst_psd <= 1e-9, detail
    assert worst_zero <= 1e-12, detail
    assert worst_inf <= 1e-3, detail


def test_criterion_5_kl_argmin_grid_optimality(acceptance_report):
    H = position_measurement_matrix()
    offsets = np.linspace(-5.0, 5.0, 41)
    worst_margin = -np.inf
    for instance in range(100):
        rng = np.random.default_rng(70_000 + instance)
        A = rng.normal(size=(6, 6))
        prior = GaussianBelief(rng.normal(scale=10.0, size=6), A @ A.T + 6.0 * np.eye(6))
        B = rng.normal(size=(6, 6))
        target = GaussianBelief(
            prior.mean + rng.normal(scale=3.0, size=6), B @ B.T + 6.0 * np.eye(6)
        )
        C = rng.normal(size=(2, 2))
        R = C @ C.T + 0.5 * np.eye(2)

        sol = kl_optimal_virtual_measurement(prior, target, R, H)
        kl_star = gaussian_kl(update(prior, sol.z, R, H), target)
        for dx in offsets:
            for dy in offsets:
                kl_here = gaussian_kl(
                    update(prior, sol.z + np.array([dx, dy]), R, H), target
                )
                worst_margin = max(worst_margin, kl_star - kl_here)

    prior1 = GaussianBelief(np.array([0.0]), np.array([[1.0]]))
    target1 = GaussianBelief(np.array([1.0]), np.array([[1.0]]))
    sol1 = kl_optimal_virtual_measurement(prior1, target1, np.array([[1.0]]), np.array([[1.0]]))
    scalar_err = abs(float(sol1.z[0]) - 2.0)

    ok = worst_margin <= 1e-12 and scalar_err <= 1e-9
    detail = (
        f"100 instances x 41x41 grid: worst argmin margin {worst_margin:.3g} (<= 1e-12); "
        f"scalar case |z - 2| = {scalar_err:.1e} (<= 1e-9)"
    )
    record(acceptance_report, 5, "kl argmin optimality", ok, detail)
    assert worst_margin <= 1e-12, detail
    assert scalar_err <= 1e-9, detail


def test_criterion_6_polynomial_exactness(acceptance_report):
    times = np.arange(51.0)
    worst_fit = 0.0
    for instance in range(25):
        rng = np.random.default_rng(50_000 + instance)
        degree = int(rng.integers(0, 3))
        cx = rng.uniform(-1, 1, size=degree + 1) * np.array([100.0, 5.0, 0.5])[: degree + 1]
        cy = rng.uniform(-1, 1, size=degree + 1) * np.array([100.0, 5.0, 0.5])[: degree + 1]
        w = Trajectory(times, [make_state(p_x=npoly.polyval(t, cx), p_y=npoly.polyval(t, cy)) for t in times])
        p = fit_polynomial(w, degree=2)
        t_end = times[-1] + 40.0
        want = np.array([npoly.polyval(t_end, cx), npoly.polyval(t_end, cy)])
        worst_fit = max(worst_fit, float(np.linalg.norm(p.position(t_end) - want)))

    worst_lagrange = 0.0
    for nodes in range(2, 9):
        rng = np.random.default_rng(60_000 + nodes)
        decay = 0.05 ** np.arange(nodes)
        cx = rng.uniform(-2, 2, size=nodes) * decay
        cy = rng.uniform(-2, 2, size=nodes) * decay
        w = Trajectory(times, [make_state(p_x=npoly.polyval(t, cx), p_y=npoly.polyval(t, cy)) for t in times])
        t_eval = times[-1] + 5.0
        want = np.array([npoly.polyval(t_eval, cx), npoly.polyval(t_eval, cy)])
        got = lagrange_extrapolate(w, t_eval, node_count=nodes)
        rel = float(np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)))
        worst_lagrange = max(worst_lagrange, rel)

    ok = worst_fit < 1e-6 and worst_lagrange <= 1e-9
    detail = (
        f"40 s extrapolation of noise-free fits: worst {worst_fit:.3g} m (< 1e-6); "
        f"interpolation through k nodes of degree k-1 data: worst rel {worst_lagrange:.3g} (<= 1e-9)"
    )
    record(acceptance_report, 6, "polynomial exactness", ok, detail)
    assert worst_fit < 1e-6, detail
    assert worst_lagrange <= 1e-9, detail


def test_criterion_7_adaptive_noise_law(acceptance_report):
    params = ScenarioConfig()
    at_zero = adaptive_noise(params, 0.0)
    at_forty = adaptive_noise(params, 40.0)
    sweep = np.array([np.diag(adaptive_noise(params, e)) for e in np.linspace(0.0, 60.0, 601)])
    exact_zero = bool(np.array_equal(at_zero, np.diag([0.5, 0.5])))
    exact_forty = bool(np.array_equal(at_forty, 17.0 * params.r_base * np.eye(2)))
    monotone = bool(np.all(np.diff(sweep, axis=0) >= 0.0))
    ok = exact_zero and exact_forty and monotone
    detail = (
        f"R(0) == diag(0.5, 0.5): {exact_zero}; R(40) == 17 R_base: {exact_forty}; "
        f"monotone over 0-60 s sweep: {monotone}"
    )
    record(acceptance_report, 7, "adaptive noise law", ok, detail)
    assert exact_zero, detail
    assert exact_forty, detail
    assert monotone, detail


def test_criterion_8_cli_determinism(tmp_path, acceptance_report):
    def invoke(out_dir, jobs):
        cmd = RUNNER + [
            "--runs", "12", "--seed", "4242", "--out-dir", str(out_dir),
            "--jobs", str(jobs), "--quiet",
        ]
        proc = subprocess.run(cmd, cwd=tmp_path, env=RUNNER_ENV, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return {
            name: (out_dir / name).read_bytes()
            for name in ("error_series.csv", "trajectory.csv", "summary.json")
        }

    first = invoke(tmp_path / "serial_a", jobs=1)
    second = invoke(tmp_path / "serial_b", jobs=1)
    parallel = invoke(tmp_path / "pool", jobs=3)

    repeat_ok = first == second
    pool_ok = first == parallel
    ok = repeat_ok and pool_ok
    detail = (
        f"12-run batch via the CLI: repeat invocation byte-identical: {repeat_ok}; "
        f"serial vs 3-worker pool byte-identical: {pool_ok}"
    )
    record(acceptance_report, 8, "end-to-end determinism", ok, detail)
    assert repeat_ok, detail
    assert pool_ok, detail
