"""End-to-end tests for the command-line surface."""

import json
from datetime import date

import numpy as np
import pytest

from dtreconcile.cli import (
    build_run_config,
    main,
    parse_config_file,
    resolve_tolerance,
)
from dtreconcile.errors import ConfigError

from conftest import REFERENCE_FORECASTS, write_daily_csv


def write_config(tmp_path, data_path, out_dir, extra=()):
    lines = [
        f"data_path = {data_path}",
        "train_start = 2019-01",
        "train_end = 2020-02",
        "test_month = 2020-03",
        "tolerance = 20%",
        "exploration = 0.05",
        "seed = 7",
        f"output_dir = {out_dir}",
        "# a comment",
    ]
    lines.extend(extra)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_parse_config_file_and_overrides(tmp_path, daily_csv):
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "out")
    mapping = parse_config_file(cfg_path)
    assert mapping["tolerance"] == "20%"
    config = build_run_config(mapping)
    assert config.test_month == "2020-03"
    assert config.seed == 7


def test_build_run_config_validation(tmp_path):
    base = {
        "data_path": "x.csv", "train_start": "2019-01",
        "train_end": "2020-02", "test_month": "2020-03",
    }
    assert build_run_config(dict(base)).forecaster == "naive"
    with pytest.raises(ConfigError):
        build_run_config({**base, "test_month": "2020-01"})  # overlaps training
    with pytest.raises(ConfigError):
        build_run_config({**base, "bogus_key": "1"})
    with pytest.raises(ConfigError):
        build_run_config({**base, "forecaster": "arima"})
    with pytest.raises(ConfigError):
        build_run_config({"data_path": "x.csv"})


def test_resolve_tolerance_percentage_of_cycle_total():
    daily = np.array(REFERENCE_FORECASTS, dtype=float)
    assert resolve_tolerance("20%", daily) == pytest.approx(0.2 * daily.sum())
    assert resolve_tolerance("5000", daily) == 5000.0
    assert resolve_tolerance(123.0, daily) == 123.0
    with pytest.raises(ConfigError):
        resolve_tolerance("abc", daily)
    with pytest.raises(ConfigError):
        resolve_tolerance("-5", daily)


def test_run_verb_end_to_end(tmp_path, daily_csv, capsys):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out)
    assert main(["run", "--config", str(cfg_path)]) == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "date,actual,forecast,rmf,mape_rec_pct,pct_f"
    assert len(metrics) == 32  # header + 31 March days
    assert metrics[1].startswith("2020-03-01,")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 7
    assert summary["resolved_tolerance"] > 0
    assert (out / "qtable.txt").exists()
    assert "final RMF" in capsys.readouterr().out


def test_run_verb_deterministic_outputs(tmp_path, daily_csv):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg_path = write_config(tmp_path, daily_csv, out1)
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert main(["run", "--config", str(cfg_path),
                 "--set", f"output_dir={out2}"]) == 0
    for name in ("metrics.csv",):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1["config"].pop("output_dir"), s2["config"].pop("output_dir")
    assert s1 == s2


def test_set_overrides_win(tmp_path, daily_csv):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out)
    assert main(["run", "--config", str(cfg_path), "--set", "seed=99"]) == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == 99


def test_grid_verb(tmp_path, daily_csv):
    out = tmp_path / "out"
    cfg_path = write_config(
        tmp_path, daily_csv, out,
        extra=["grid_tolerances = 10%,20%,30%", "grid_epsilons = 0.05,0.1,0.2"],
    )
    assert main(["grid", "--config", str(cfg_path)]) == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[0] == "tolerance,epsilon,mape_rec_pct,pct_f"
    assert len(lines) == 10


def test_grid_verb_requires_grid_config(tmp_path, daily_csv):
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "out")
    assert main(["grid", "--config", str(cfg_path)]) == 1


def test_reconcile_verb_uses_snapshot(tmp_path, daily_csv):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out)
    assert main(["run", "--config", str(cfg_path)]) == 0
    out2 = tmp_path / "out2"
    assert main([
        "reconcile", "--config", str(cfg_path),
        "--qtable", str(out / "qtable.txt"),
        "--set", f"output_dir={out2}",
    ]) == 0
    assert (out2 / "metrics.csv").exists()


def test_validate_data_verb(tmp_path, daily_csv, capsys):
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "out")
    assert main(["validate-data", "--config", str(cfg_path)]) == 0
    assert "complete months" in capsys.readouterr().out


def test_exit_codes(tmp_path, daily_csv, capsys):
    # 1: config error
    assert main(["run", "--set", "data_path=x.csv"]) == 1
    # 2: data error, message names the path
    cfg_path = write_config(tmp_path, tmp_path / "missing.csv", tmp_path / "out")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "missing.csv" in capsys.readouterr().err
    # 1: no configuration at all
    assert main(["run"]) == 1
    # 1: agent settings out of range
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "out")
    for bad in ("tolerance=0%", "exploration=2", "step_size=0", "episodes=-1",
                "discount=nan", "discount=5"):
        assert main(["run", "--config", str(cfg_path), "--set", bad]) == 1, bad
        assert "config error" in capsys.readouterr().err


def test_reconcile_rejects_malformed_snapshot(tmp_path, daily_csv, capsys):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out)
    assert main(["run", "--config", str(cfg_path)]) == 0
    snapshot = tmp_path / "truncated.txt"
    snapshot.write_text("".join((out / "qtable.txt").read_text().splitlines(True)[:-1]))
    capsys.readouterr()
    assert main(["reconcile", "--config", str(cfg_path), "--qtable", str(snapshot),
                 "--set", f"output_dir={tmp_path / 'out2'}"]) == 2
    assert f"{snapshot}:93:" in capsys.readouterr().err


def test_reconcile_refuses_to_overwrite_its_snapshot(tmp_path, daily_csv, capsys):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out)
    assert main(["run", "--config", str(cfg_path)]) == 0
    snapshot = out / "qtable.txt"
    before = snapshot.read_bytes()
    capsys.readouterr()
    assert main(["reconcile", "--config", str(cfg_path), "--qtable", str(snapshot)]) == 1
    err = capsys.readouterr().err
    assert str(snapshot) in err and str(out) in err
    assert snapshot.read_bytes() == before


def test_external_forecast_file(tmp_path, daily_csv):
    forecast_path = tmp_path / "forecast.csv"
    rows = ["date,forecast"]
    for day, value in zip(range(1, 32), REFERENCE_FORECASTS):
        rows.append(f"2020-03-{day:02d},{value}")
    rows.append("monthly_total,367706")
    forecast_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    cfg_path = write_config(
        tmp_path, daily_csv, out,
        extra=["forecaster = external",
               f"external_forecast_path = {forecast_path}"],
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["base_total"] == pytest.approx(sum(REFERENCE_FORECASTS))
    # percentage tolerance resolves against the external cycle total
    assert summary["resolved_tolerance"] == pytest.approx(
        0.2 * sum(REFERENCE_FORECASTS)
    )


def test_external_forecast_missing_days(tmp_path, daily_csv):
    forecast_path = tmp_path / "forecast.csv"
    forecast_path.write_text("date,forecast\n2020-03-01,100\n")
    cfg_path = write_config(
        tmp_path, daily_csv, tmp_path / "out",
        extra=["forecaster = external",
               f"external_forecast_path = {forecast_path}"],
    )
    assert main(["run", "--config", str(cfg_path)]) == 2


def test_adjustment_unit_per_day(tmp_path, daily_csv):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out,
                            extra=["adjustment_unit = per-day"])
    assert main(["run", "--config", str(cfg_path)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["adjustment_unit"] == pytest.approx(
        summary["resolved_tolerance"] / 31
    )


def test_seasonal_and_drift_forecasters(tmp_path, daily_csv):
    for method in ("seasonal_naive", "drift"):
        out = tmp_path / f"out_{method}"
        cfg_path = write_config(tmp_path, daily_csv, out,
                                extra=[f"forecaster = {method}"])
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (out / "metrics.csv").exists()
