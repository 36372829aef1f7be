import dataclasses
import importlib.util
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vhd import ScenarioConfig, adaptive_noise, simkit
from vhd.cli import (
    _CSV_ROWS,
    _SCHEMA,
    ConfigError,
    _csv,
    _parse_lines,
    config_values,
    load_config,
    main,
    resolved_config_text,
    run_command,
)

# Every config key at a valid value that differs from its default.
NON_DEFAULT = {
    "sim.duration": 80.0,
    "sim.dt": 0.05,
    "sim.outage_start": 40.0,
    "sim.outage_duration": 30.0,
    "sim.history_window": 30.0,
    "sim.mc_runs": 3,
    "sim.base_seed": 99,
    "sim.sigma_jerk": 2.5,
    "current.speed": 0.5,
    "current.heading_deg": 120.0,
    "sensor.position_fix_noise": 2.0,
    "sensor.accel_white_noise": 0.1,
    "sensor.accel_bias_walk": 0.01,
    "sensor.fix_rate": 2.0,
    "vhd.r_base": 1.5,
    "vhd.alpha": 0.02,
    "vhd.p": 1.5,
    "vhd.poly_degree": 3,
    "baseline.lagrange_nodes": 6,
    "traj.cruise_speed": 3.0,
    "traj.turn_rate": -0.05,
    "traj.turn_start": 20.0,
    "traj.turn_duration": 8.0,
    "traj.initial_heading": 0.5,
}

# Values at the edges of the float range, and ints around the default
# window capacity (51 samples), for the any-config property.
EDGE_FLOATS = [sign * v for v in (0.0, 5e-324, 1e-310, 1e154, 1e308) for sign in (1.0, -1.0)]
CAPACITY = ScenarioConfig().window_capacity
EDGE_INTS = [*range(-1, 3), *range(CAPACITY - 2, CAPACITY + 3)]
EDGE_VALUES = {key: st.sampled_from(EDGE_INTS if f.type == "int" else EDGE_FLOATS) for key, f in _SCHEMA.items()}

TINY = """
sim.duration = 40
sim.outage_start = 20
sim.outage_duration = 10
sim.history_window = 20
sim.mc_runs = 2
traj.turn_start = 10
traj.turn_duration = 5
"""


def tiny_cfg_file(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(TINY + extra, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_empty_file_gives_pure_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("", encoding="utf-8")
        assert config_values(load_config(path)) == config_values(ScenarioConfig())

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# full line comment\n\nsim.mc_runs = 7  # trailing comment\n", encoding="utf-8"
        )
        assert load_config(path).mc_runs == 7

    def test_unknown_key_named_with_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sim.mc_runs = 5\nsim.bogus = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2: unknown key 'sim\.bogus'"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("vhd.alpha = 0.01\nvhd.alpha = 0.02\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"dup\.cfg:2: duplicate key .*first set on line 1"):
            load_config(path)

    def test_type_mismatch_reported_with_line(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text("sim.mc_runs = soon\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"t\.cfg:1: .*must be int"):
            load_config(path)

    def test_non_assignment_line_rejected(self, tmp_path):
        path = tmp_path / "n.cfg"
        path.write_text("just some words\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"n\.cfg:1: expected 'key = value'"):
            load_config(path)

    def test_invalid_alpha_names_the_invariant(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("vhd.alpha = -1\n", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == "ScenarioConfig invariant: alpha must be >= 0, got -1.0"

    def test_scalar_r_base_becomes_isotropic_matrix(self, tmp_path):
        path = tmp_path / "r.cfg"
        path.write_text("vhd.r_base = 2.5\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.r_base == 2.5
        np.testing.assert_array_equal(adaptive_noise(cfg, 0.0), np.diag([2.5, 2.5]))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Windows editors save UTF-8 with a BOM, which must not become part
        # of the first key
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text("sim.mc_runs = 5\nvhd.alpha = 0.02\n", encoding="utf-8")
        bom.write_text("sim.mc_runs = 5\nvhd.alpha = 0.02\n", encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert config_values(load_config(bom)) == config_values(load_config(plain))
        assert load_config(bom).mc_runs == 5

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "nope.cfg")

    def test_echo_round_trips_to_the_same_config(self, tmp_path):
        original = load_config(tiny_cfg_file(tmp_path))
        echo = tmp_path / "echo.cfg"
        echo.write_text(resolved_config_text(original), encoding="utf-8")
        reloaded = load_config(echo)
        assert config_values(reloaded) == config_values(original)
        # a second echo is textually identical, not merely equivalent
        assert resolved_config_text(reloaded) == resolved_config_text(original)

    def test_schema_covers_every_config_field_once(self):
        names = [f.name for f in _SCHEMA.values()]
        assert len(names) == len(set(names)) == 24
        assert names == [f.name for f in dataclasses.fields(ScenarioConfig)]
        assert all(re.fullmatch(r"[a-z]+\.[a-z_]+", key) for key in _SCHEMA)

    def test_every_key_round_trips_at_a_non_default_value(self, tmp_path):
        defaults = config_values(ScenarioConfig())
        assert list(NON_DEFAULT) == list(_SCHEMA)
        assert all(NON_DEFAULT[key] != defaults[key] for key in NON_DEFAULT)
        path = tmp_path / "all.cfg"
        path.write_text(
            "".join(f"{key} = {value}\n" for key, value in NON_DEFAULT.items()),
            encoding="utf-8",
        )
        loaded = load_config(path)
        assert config_values(loaded) == NON_DEFAULT
        echo = tmp_path / "echo.cfg"
        echo.write_text(resolved_config_text(loaded), encoding="utf-8")
        assert config_values(load_config(echo)) == NON_DEFAULT
        assert load_config(echo) == loaded

    def test_cli_bytes_every_key_case_is_non_default(self):
        # tools/cli_bytes.py keeps its own copy of NON_DEFAULT as config lines.
        path = Path(__file__).resolve().parents[1] / "tools" / "cli_bytes.py"
        spec = importlib.util.spec_from_file_location("cli_bytes", path)
        cli_bytes = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cli_bytes)
        lines, args = cli_bytes.CASES["every key at a non-default value"]
        assert args == []
        assert _parse_lines(lines, str(path)) == NON_DEFAULT

    def test_configs_compare_by_value(self):
        assert ScenarioConfig() == ScenarioConfig()
        assert ScenarioConfig(r_base=1.5) != ScenarioConfig()

    def test_readme_config_table_is_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", readme, flags=re.MULTILINE)
        assert rows == [(key, str(value)) for key, value in config_values(ScenarioConfig()).items()]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    cfg = load_config(tiny_cfg_file(out))
    return run_command(cfg, out / "res", quiet=True), cfg


class TestRunCommand:
    def test_writes_the_full_bundle(self, bundle):
        out, _ = bundle
        names = {p.name for p in out.paths.values()}
        assert names == {
            "resolved_config.cfg", "summary.txt", "summary.json",
            "error_series.csv", "trajectory.csv",
        }
        for p in out.paths.values():
            assert p.is_file()

    def test_error_series_schema(self, bundle):
        out, cfg = bundle
        lines = out.paths["error_series"].read_text().splitlines()
        assert lines[0] == "time_s,ukf_mean_err_m,lagrange_mean_err_m,vhd_mean_err_m"
        assert len(lines) == 1 + cfg.outage_steps + 1
        first = lines[1].split(",")
        assert first[0] == "20"
        assert float(first[1]) == float(first[2]) == float(first[3])  # shared branch point

    def test_trajectory_schema(self, bundle):
        out, cfg = bundle
        lines = out.paths["trajectory"].read_text().splitlines()
        assert lines[0] == (
            "time_s,truth_x,truth_y,ukf_x,ukf_y,lagrange_x,lagrange_y,vhd_x,vhd_y"
        )
        assert len(lines) == 1 + cfg.outage_steps + 1

    def test_cells_use_six_significant_digits(self, bundle):
        out, _ = bundle
        row = out.paths["error_series"].read_text().splitlines()[2].split(",")
        for cell in row:
            mantissa = cell.lstrip("-").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 6

    # Around one block of `_csv`'s rows, and a 300 s outage's 3001 rows. "wide" draws magnitudes from
    # 1e-320 to 1e308, most outside the scale `_cells` lays out by numpy and so left to `%`, with special
    # values at the table's edges; the other inputs lie inside that scale and are cycled down each
    # column: a decimal grid, 6-digit ties and carries, and each form's edges. Every third row is
    # negated, and every seventh cell is -0.0, from a row that moves with the column.
    @pytest.mark.parametrize("rows", [1, _CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 3001])
    @pytest.mark.parametrize(
        "inputs",
        [
            "wide",
            [60.1, 120.2, 60.2, 120.4, 60.300000000000004, 0.1, 0.2, 0.30000000000000004, 360.0, 299.90000000000003],
            [0.5, 2.5, 1234565.0, 999999.5, 9.999995e-05, 0.1234565, 123456.5, 999999.7, 9.999996, 99999.96],
            [1e-05, 1e-04, 99999.95, 1e05, 1e06, 9.99999e-05, 999999.4, 1e-17, 9.999994e27, 9.9999951e27],
        ],
        ids=["wide", "decimal-grid", "ties-and-carries", "form-edges"],
    )
    def test_csv_is_one_percent_per_row_byte_for_byte(self, rows, inputs):
        rng = np.random.default_rng(rows)
        if inputs == "wide":
            columns = {f"c{j}": rng.normal(size=rows) * 10.0 ** rng.integers(-320, 308, size=rows) for j in range(9)}
            specials = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308]
            for j, values in enumerate(columns.values()):
                values[[0, -1]] = specials[j % len(specials)], specials[(j + 3) % len(specials)]
        else:
            columns = {f"c{j}": np.resize(np.roll(inputs, j), rows) for j in range(9)}
            for j, values in enumerate(columns.values()):
                values[1::3] *= -1
                values[j % 7 :: 7] = -0.0
        row = ",".join(["%.6g"] * len(columns)) + "\n"
        table = np.column_stack(list(columns.values()))
        want = ",".join(columns) + "\n" + "".join(row % tuple(values.tolist()) for values in table)
        assert "".join(_csv(columns)) == want

    def test_summary_json_structure(self, bundle):
        out, cfg = bundle
        payload = json.loads(out.paths["summary_json"].read_text())
        assert payload["mc_runs"] == 2
        assert payload["base_seed"] == cfg.base_seed
        assert set(payload["predictors"]) == {"ukf", "lagrange", "vhd"}
        assert "reduction_vs_ukf_pct" in payload["predictors"]["vhd"]
        assert "reduction_vs_ukf_pct" not in payload["predictors"]["ukf"]
        assert payload["config"]["sim.duration"] == 40.0
        assert "mean across runs" in payload["aggregation"]

    @pytest.mark.parametrize("predictors", [("ukf", "lagrange", "vhd"), ("lagrange", "vhd"), ("ukf", "vhd")])
    def test_summary_text_prints_summary_json_figures(self, tmp_path, predictors):
        # Each predictor row prints its summary.json figures, and `--` where
        # summary.json has no reduction; the header prints the config's.
        cfg = load_config(tiny_cfg_file(tmp_path))
        out = run_command(cfg, tmp_path / "out", predictors=predictors, quiet=True)
        payload = json.loads(out.paths["summary_json"].read_text(encoding="utf-8"))
        lines = out.paths["summary_text"].read_text(encoding="utf-8").splitlines()
        assert [row.split()[0] for row in lines[5:]] == list(predictors)
        assert set(payload["predictors"]) == set(predictors)
        for row in lines[5:]:
            name, rmse, terminal, reduction = row.split()
            entry = payload["predictors"][name]
            assert (float(rmse), float(terminal)) == (entry["rmse_m"], entry["terminal_mean_m"])
            assert ("reduction_vs_ukf_pct" in entry) == ("ukf" in predictors and name != "ukf")
            if "reduction_vs_ukf_pct" in entry:
                assert float(reduction) == entry["reduction_vs_ukf_pct"]
            else:
                assert reduction == "--"
        config = payload["config"]
        assert f"outage: {config['sim.outage_start']:.6g} s + {config['sim.outage_duration']:.6g} s" in lines[1]

    @given(st.floats())
    @example(5e-324)
    @example(-0.0)
    @example(1.7976931348623157e308)
    def test_six_digit_rounding_prints_as_the_float_itself(self, value):
        # summary.txt prints summary.json's rounded figures; no byte moves.
        assert f"{float(f'{value:.6g}'):.6g}" == f"{value:.6g}"

    def test_summary_text_has_one_row_per_predictor(self, bundle):
        out, _ = bundle
        text = out.paths["summary_text"].read_text()
        for name in ("ukf", "lagrange", "vhd"):
            assert f"\n  {name}" in text

    def test_vhd_only_selection_filters_columns(self, tmp_path):
        cfg = load_config(tiny_cfg_file(tmp_path))
        out = run_command(cfg, tmp_path / "only", predictors=("vhd",), quiet=True)
        assert out.paths["error_series"].read_text().splitlines()[0] == "time_s,vhd_mean_err_m"
        assert out.paths["trajectory"].read_text().splitlines()[0] == (
            "time_s,truth_x,truth_y,vhd_x,vhd_y"
        )
        payload = json.loads(out.paths["summary_json"].read_text())
        assert set(payload["predictors"]) == {"vhd"}
        # no ukf in the selection, so no reduction column anywhere
        assert "reduction_vs_ukf_pct" not in payload["predictors"]["vhd"]
        assert "--" in out.paths["summary_text"].read_text()

    def test_selection_is_reordered_canonically(self, tmp_path):
        cfg = load_config(tiny_cfg_file(tmp_path))
        out = run_command(cfg, tmp_path / "pair", predictors=("vhd", "ukf"), quiet=True)
        header = out.paths["error_series"].read_text().splitlines()[0]
        assert header == "time_s,ukf_mean_err_m,vhd_mean_err_m"

    def test_empty_selection_rejected(self, tmp_path):
        cfg = load_config(tiny_cfg_file(tmp_path))
        with pytest.raises(ConfigError, match="empty"):
            run_command(cfg, tmp_path / "none", predictors=())

    def test_unknown_predictor_rejected_before_running(self, tmp_path, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("the batch ran")

        monkeypatch.setattr("vhd.cli.monte_carlo", ran)
        cfg = load_config(tiny_cfg_file(tmp_path))
        with pytest.raises(ConfigError) as info:
            run_command(cfg, tmp_path / "bogus", predictors=("vhd", "bogus"))
        assert str(info.value) == "unknown predictors: bogus (choose from ukf, lagrange, vhd)"
        assert not (tmp_path / "bogus").exists()

    def test_stdout_control(self, tmp_path, capsys):
        cfg = load_config(tiny_cfg_file(tmp_path))
        out = run_command(cfg, tmp_path / "loud")
        stdout = capsys.readouterr().out
        assert "outage prediction summary" in stdout
        assert stdout == out.paths["summary_text"].read_text(encoding="utf-8")
        run_command(cfg, tmp_path / "quiet", quiet=True)
        assert capsys.readouterr().out == ""

    def test_repeat_invocations_byte_identical(self, tmp_path):
        cfg = load_config(tiny_cfg_file(tmp_path))
        a = run_command(cfg, tmp_path / "a", quiet=True)
        b = run_command(cfg, tmp_path / "b", quiet=True)
        for key in a.paths:
            assert a.paths[key].read_bytes() == b.paths[key].read_bytes()


# Values for the keys TINY sets itself that still give a runnable config;
# the other keys take NON_DEFAULT.
EFFECT_VALUES = {
    **NON_DEFAULT,
    "sim.duration": 35.0,
    "sim.outage_start": 22.0,
    "sim.outage_duration": 8.0,
    "sim.history_window": 15.0,
    "traj.turn_start": 12.0,
    "traj.turn_duration": 4.0,
}

DURATION_HAS_NO_EFFECT = pytest.mark.xfail(
    strict=True,
    reason="nothing after the outage is simulated, so the key only bounds the outage; "
    "it stays while the benchmark writes it into every workload config",
)


class TestEveryKeyHasAnEffect:
    @pytest.mark.parametrize(
        "key",
        [pytest.param(key, marks=DURATION_HAS_NO_EFFECT) if key == "sim.duration" else key for key in _SCHEMA],
    )
    def test_non_default_value_changes_the_outputs(self, tmp_path, bundle, key):
        values = dict(line.split(" = ") for line in TINY.strip().splitlines())
        values[key] = EFFECT_VALUES[key]
        path = tmp_path / "key.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        changed = run_command(load_config(path), tmp_path / "res", quiet=True)
        names = ("summary_text", "error_series", "trajectory")
        assert [changed.paths[n].read_bytes() for n in names] != [bundle[0].paths[n].read_bytes() for n in names]


class TestMain:
    def test_success_path(self, tmp_path, capsys):
        cfg_path = tiny_cfg_file(tmp_path)
        code = main(["--config", str(cfg_path), "--runs", "1", "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "summary.json").is_file()
        assert "outage prediction summary" in capsys.readouterr().out

    def test_flag_overrides_land_in_the_echo(self, tmp_path):
        cfg_path = tiny_cfg_file(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["--config", str(cfg_path), "--runs", "1", "--seed", "42",
             "--out-dir", str(out), "--quiet"]
        )
        assert code == 0
        echo = (out / "resolved_config.cfg").read_text()
        assert "sim.mc_runs = 1" in echo
        assert "sim.base_seed = 42" in echo

    def test_determinism_from_the_command_line(self, tmp_path):
        cfg_path = tiny_cfg_file(tmp_path)
        for sub in ("one", "two"):
            assert main(
                ["--config", str(cfg_path), "--runs", "1", "--seed", "42",
                 "--out-dir", str(tmp_path / sub), "--quiet"]
            ) == 0
        for name in ("error_series.csv", "trajectory.csv", "summary.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sim.mc_runs = many\n", encoding="utf-8")
        assert main(["--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("raw", "line"),
        [
            (b"sim.mc_runs = 2 # caf\xe9\n", 1),
            (b"\xef\xbb\xbfsim.mc_runs = 2\r\n\r\n# caf\xe9\n", 3),
            (b"sim.mc_runs = 2\n\xff\n", 2),
        ],
        ids=["latin-1 comment", "bom and crlf", "bad first byte"],
    )
    def test_a_file_that_is_not_utf8_exits_2_naming_its_line(self, tmp_path, capsys, raw, line):
        cfg_path = tmp_path / "latin1.cfg"
        cfg_path.write_bytes(raw)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out-dir", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {cfg_path}: line {line} is not UTF-8: ")
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "ghost.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_zero_runs_exits_2(self, tmp_path, capsys):
        cfg_path = tiny_cfg_file(tmp_path)
        assert main(["--config", str(cfg_path), "--runs", "0", "--out-dir", str(tmp_path / "o")]) == 2
        assert "mc_runs" in capsys.readouterr().err

    def test_zero_jobs_exits_2(self, tmp_path, capsys):
        cfg_path = tiny_cfg_file(tmp_path)
        assert main(["--config", str(cfg_path), "--jobs", "0", "--out-dir", str(tmp_path / "o")]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_without_fork_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        def ran(cfg, seeds):
            raise AssertionError("a block ran")

        monkeypatch.delattr(os, "fork")
        cfg_path = tiny_cfg_file(tmp_path)
        assert main(["--config", str(cfg_path), "--jobs", "1", "--out-dir", str(tmp_path / "serial"), "--quiet"]) == 0
        monkeypatch.setattr(simkit, "run_block", ran)
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--jobs", "2", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "config error: --jobs 2 needs os.fork, which this platform lacks: use --jobs 1\n"
        assert not out.exists()

    def test_a_workers_config_error_exits_2_with_no_output(self, tmp_path, capsys, worker_pipes):
        cfg_path = tmp_path / "overflow.cfg"
        cfg_path.write_text("sim.sigma_jerk = 1e151\nsim.mc_runs = 4\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["--config", str(cfg_path), "--jobs", "2", "--out-dir", str(out)]) == 2
        assert "not finite at step 925" in capsys.readouterr().err
        assert not out.exists()
        worker_pipes.assert_workers_gone(2)

    def test_a_worker_that_sends_no_block_exits_3_with_no_output(self, tmp_path, capsys, monkeypatch, worker_pipes):
        monkeypatch.setattr(simkit, "run_block", lambda cfg, seeds: os._exit(1))
        out = tmp_path / "o"
        assert main(["--config", str(tiny_cfg_file(tmp_path)), "--jobs", "2", "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: a --jobs worker exited without its block")
        assert not out.exists()
        worker_pipes.assert_workers_gone(2)

    @pytest.mark.parametrize("text", ["true", "false"])
    def test_removed_imu_key_exits_2_before_running(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "imu.cfg"
        cfg_path.write_text(f"sensor.imu_during_outage = {text}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--runs", "1", "--out-dir", str(out), "--quiet"]) == 2
        assert "unknown key 'sensor.imu_during_outage'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2_before_running(self, tmp_path, capsys):
        cfg_path = tiny_cfg_file(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--seed", "-1", "--out-dir", str(out), "--quiet"]) == 2
        assert "base_seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_ukf_rmse_runs_without_reductions(self, tmp_path, capsys, exact_ukf):
        # No current, no sensor noise and no turn, and a ukf path that is the
        # truth by construction: there is no ukf RMSE to reduce.
        cfg_path = tiny_cfg_file(
            tmp_path,
            "current.speed = 0\nsensor.position_fix_noise = 0\nsensor.accel_white_noise = 0\n"
            "sensor.accel_bias_walk = 0\ntraj.turn_rate = 0\n",
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "summary.json").read_text())
        assert payload["predictors"]["ukf"]["rmse_m"] == 0.0
        assert not any("reduction_vs_ukf_pct" in entry for entry in payload["predictors"].values())
        for row in capsys.readouterr().out.splitlines()[-2:]:
            assert row.split()[-1] == "--"

    def test_fix_period_past_the_onset_means_no_fixes(self, tmp_path):
        # a fix period of 1e301 steps does not fit in int64; like 1000 s,
        # it ends after the 60 s onset, so neither run gets a fix
        outputs = []
        for rate in ("1e-300", "0.001"):
            cfg_path = tmp_path / f"rate_{rate}.cfg"
            cfg_path.write_text(f"sensor.fix_rate = {rate}\n", encoding="utf-8")
            out = tmp_path / f"out_{rate}"
            assert main(["--config", str(cfg_path), "--runs", "2", "--out-dir", str(out), "--quiet"]) == 0
            names = ("summary.txt", "error_series.csv", "trajectory.csv")
            outputs.append([(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1]

    def test_unknown_predictor_exits_2(self, tmp_path, capsys):
        cfg_path = tiny_cfg_file(tmp_path)
        assert main(
            ["--config", str(cfg_path), "--predictors", "vhd,ekf", "--out-dir", str(tmp_path / "o")]
        ) == 2
        assert "unknown predictors: ekf" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "vhd.poly_degree = 60",
            "baseline.lagrange_nodes = 80",
            "sim.history_window = 0.5",
            "vhd.alpha = inf",
            "vhd.alpha = nan",
            "vhd.p = nan",
            "sim.sigma_jerk = -1",
            "sim.sigma_jerk = nan",
            "sim.duration = nan",
            "vhd.alpha = 1e308",
            "vhd.p = 1000",
            "vhd.r_base = 1e308",
            "sensor.position_fix_noise = 1e300",
            "sensor.accel_white_noise = 1e300",
            "sim.sigma_jerk = 1e151",
            "sim.dt = 3",
            "sim.base_seed = -1",
            "sim.sigma_jerk = 1e160",
            "sensor.position_fix_noise = -0.0",
            "sensor.accel_white_noise = -0.0",
            "sensor.accel_bias_walk = -0.0",
            "traj.cruise_speed = 3e306",
            "current.speed = 1e307",
            "traj.turn_rate = 2.2250738585e-313",
            "sensor.accel_bias_walk = 7e307",
            "current.speed = 1e153",
            "traj.cruise_speed = 1e200",
            pytest.param(
                "sim.sigma_jerk = 0\nsensor.accel_white_noise = 0",
                id="sim.sigma_jerk = 0 with sensor.accel_white_noise = 0",
            ),
            pytest.param(
                "sim.history_window = 50.6\nsim.outage_start = 50.6\nsim.duration = 100\n"
                "traj.turn_start = 20\nvhd.poly_degree = 51",
                id="vhd.poly_degree = 51 with 51 samples before a 50.6 s onset",
            ),
            "sim.dt = 1e-300",
            "sim.dt = 1e-12",
            pytest.param(
                "sim.outage_start = 1e12\nsim.duration = 2e12",
                id="sim.outage_start = 1e12 with sim.duration = 2e12",
            ),
            "sim.dt = 1e-310",
            "sim.duration = 1e308",
            "sensor.fix_rate = 5e-324",
            "traj.turn_duration = 1e308",
        ],
    )
    def test_config_that_cannot_run_exits_2_before_running(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--runs", "1", "--out-dir", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("degree", [20, 45])
    def test_a_degree_with_a_rank_deficient_normal_matrix_exits_2(self, tmp_path, capsys, degree):
        # On the default 51-sample window V^T V loses rank from degree 20 on;
        # degree 45 used to run to a vhd RMSE of about 1e24 m.
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"vhd.poly_degree = {degree}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--runs", "1", "--out-dir", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "poly_degree" in err and "rank-deficient" in err
        assert not out.exists()
        assert ScenarioConfig(poly_degree=19).poly_degree == 19

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(0.0, 1e308),
        p=st.floats(1.0, 5000.0),
        r_base=st.floats(1e-300, 1e308),
    )
    def test_any_schedule_runs_or_exits_2_before_running(self, tmp_path_factory, alpha, p, r_base):
        tmp_path = tmp_path_factory.mktemp("schedule")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "sim.duration = 20\nsim.outage_start = 12\nsim.outage_duration = 5\n"
            "sim.history_window = 10\ntraj.turn_start = 2\n"
            f"vhd.alpha = {alpha!r}\nvhd.p = {p!r}\nvhd.r_base = {r_base!r}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--runs", "1", "--out-dir", str(out), "--quiet"])
        assert code == 0 or (code == 2 and not out.exists())

    @settings(max_examples=30, deadline=None)
    @given(
        position_fix_noise=st.floats(0.0, 1e308),
        accel_white_noise=st.floats(0.0, 1e308),
    )
    def test_any_sensor_noise_runs_or_exits_2_before_running(
        self, tmp_path_factory, position_fix_noise, accel_white_noise
    ):
        tmp_path = tmp_path_factory.mktemp("noise")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "sim.duration = 20\nsim.outage_start = 12\nsim.outage_duration = 5\n"
            "sim.history_window = 10\ntraj.turn_start = 2\n"
            f"sensor.position_fix_noise = {position_fix_noise!r}\n"
            f"sensor.accel_white_noise = {accel_white_noise!r}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--runs", "1", "--out-dir", str(out), "--quiet"])
        assert code == 0 or (code == 2 and not out.exists())

    @given(values=st.fixed_dictionaries({}, optional=EDGE_VALUES))
    @example(values={"sensor.fix_rate": 5e-324})
    @example(values={"traj.turn_duration": 1e308})
    def test_any_config_runs_or_exits_2_before_running(self, tmp_path_factory, values):
        tmp_path = tmp_path_factory.mktemp("any")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()), encoding="utf-8")
        try:
            cfg = load_config(cfg_path)
        except ConfigError:
            pass
        else:
            assume(cfg.onset_step + cfg.outage_steps <= 5000)
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--runs", "1", "--out-dir", str(out), "--quiet"])
        assert code == 0 or (code == 2 and not out.exists())

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["the file", "under the file"])
    def test_an_out_dir_that_cannot_be_a_directory_exits_2_before_running(self, tmp_path, capsys, monkeypatch, below):
        def ran(*args, **kwargs):
            raise AssertionError("the batch ran")

        monkeypatch.setattr("vhd.cli.monte_carlo", ran)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        out = blocker.joinpath(*below)
        code = main(["--config", str(tiny_cfg_file(tmp_path)), "--runs", "1", "--out-dir", str(out), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: output directory {out} cannot be made: {blocker} is not a directory\n"
        assert blocker.read_text(encoding="utf-8") == "a file, not a directory"
