"""End-to-end tests for the command-line surface."""

import builtins
import json
import math
import shutil
import string
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtreconcile
from dtreconcile import agent, cli, evaluation, forecasting
from dtreconcile.agent import AgentConfig, CycleData, init_state_values
from dtreconcile.cli import (
    RunConfig,
    build_run_config,
    main,
    parse_config_file,
    resolve_tolerance,
)
from dtreconcile.errors import ConfigError
from dtreconcile.seeding import derive_seed, rng_for

from conftest import REFERENCE_FORECASTS, nifty_like_value, write_daily_csv


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


BASE_CONFIG = {"data_path": "x.csv", "train_start": "2019-01",
               "train_end": "2020-02", "test_month": "2020-03"}
CONFIG_TEXT = st.lists(
    st.sampled_from([*"0123456789-/%,.e", *string.ascii_letters, "nan"]), max_size=12,
).map("".join)


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(RunConfig._fields), raw=CONFIG_TEXT)
def test_build_run_config_returns_config_or_config_error(key, raw):
    try:
        config = build_run_config({**BASE_CONFIG, key: raw})
    except ConfigError:
        return
    assert isinstance(config, RunConfig)


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


GRID_KEYS = ["grid_tolerances = 10%,20%", "grid_epsilons = 0.05,0.1,0.2"]


def test_grid_verb_reports_failed_cells(tmp_path, daily_csv, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out, extra=GRID_KEYS)
    train = evaluation.train

    def failing_train(history, cfg):
        if cfg.exploration == 0.1:
            raise ValueError("injected cell failure")
        return train(history, cfg)

    monkeypatch.setattr(evaluation, "train", failing_train)
    assert main(["grid", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"grid: 6 cells -> {out / 'grid.csv'}\n"
    failed = [line for line in captured.err.splitlines() if line.startswith("grid: cell")]
    assert len(failed) == 2
    assert all("epsilon=0.1 failed: injected cell failure" in line for line in failed)
    assert (out / "grid.csv").read_text().count(",error,error") == 2


def test_only_grid_verb_sweeps(tmp_path, daily_csv, monkeypatch):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out, extra=GRID_KEYS)
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert not (out / "grid.csv").exists()

    def no_training(*args):
        raise AssertionError("reconcile trained an agent")

    forecasts = []
    forecast_month = cli.forecast_month

    def recording_forecast(history, month, *rest):
        forecasts.append(month.label)
        return forecast_month(history, month, *rest)

    monkeypatch.setattr(cli, "train", no_training)
    monkeypatch.setattr(evaluation, "train", no_training)
    monkeypatch.setattr(cli, "forecast_month", recording_forecast)
    out2 = tmp_path / "out2"
    assert main(["reconcile", "--config", str(cfg_path), "--qtable", str(out / "qtable.txt"),
                 "--set", f"output_dir={out2}"]) == 0
    assert sorted(path.name for path in out2.iterdir()) == [
        "metrics.csv", "qtable.txt", "summary.json"]
    assert forecasts == ["2020-03"]  # the test month only, no training cycles


def test_prepare_builds_grid_cells_row_major(tmp_path, daily_csv):
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "out", extra=GRID_KEYS)
    for unit in (None, "per-day", "250"):
        mapping = parse_config_file(cfg_path)
        if unit is not None:
            mapping["adjustment_unit"] = unit
        prep = cli.prepare(build_run_config(mapping))
        base = prep.agent_cfg
        tolerances = [resolve_tolerance(raw, prep.test.forecasts) for raw in ("10%", "20%")]
        # A per-day unit follows the cell's own tolerance; an absolute one stays.
        units = {None: [None, None], "per-day": [tol / 31 for tol in tolerances],
                 "250": [250.0, 250.0]}[unit]
        assert [(cell.tolerance, cell.adjustment_unit, cell.exploration, cell.seed)
                for cell in prep.grid_cells] == [
            (tol, cell_unit, eps, derive_seed(7, f"grid:{i}:{j}"))
            for i, (tol, cell_unit) in enumerate(zip(tolerances, units))
            for j, eps in enumerate((0.05, 0.1, 0.2))
        ], unit
        for cell in prep.grid_cells:  # every other setting is the base config's
            assert cell._replace(tolerance=base.tolerance, adjustment_unit=base.adjustment_unit,
                                 exploration=base.exploration, seed=base.seed) == base


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
    # 1: a value its key's type does not accept, named with the key
    for bad in ("online_updates=ture", "clamp_nonnegative=2", "train_start=2020/02",
                "train_end=2020/02", "test_month=2020/02", "seasonal_period=0",
                "train_start=0-01", "test_month=20200-03"):
        assert main(["run", "--config", str(cfg_path), "--set", bad]) == 1, bad
        err = capsys.readouterr().err
        assert err.startswith("config error") and bad.split("=")[0] in err, bad
    # 1: a grid cell out of range, before any file is written
    for verb in ("grid", "run"):
        assert main([verb, "--config", str(cfg_path), "--set", "grid_tolerances=10%",
                     "--set", "grid_epsilons=0.1,2"]) == 1, verb
        assert "grid_epsilons=2.0" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir()), verb
    # 2: a non-finite value, named with its file and line
    for bad in ("nan", "inf", "-Infinity"):
        rows = [line.split(",") for line in daily_csv.read_text().splitlines()]
        rows[4][1] = bad  # the Open value on line 5
        bad_csv = tmp_path / f"{bad}.csv"
        bad_csv.write_text("".join(",".join(row) + "\n" for row in rows))
        assert main(["validate-data", "--config", str(cfg_path),
                     "--set", f"data_path={bad_csv}"]) == 2, bad
        assert f"{bad_csv}: line 5: value {bad!r} is not finite" in capsys.readouterr().err
    # 2: a zero actual or base total, naming the test month and the file at
    # fault, before any tolerance is resolved or any file is written
    trained = tmp_path / "trained"
    assert main(["run", "--config", str(cfg_path), "--set", f"output_dir={trained}"]) == 0
    # 1: an infinite tolerance, unit or grid tolerance, before any file is written
    out = tmp_path / "inf_out"
    for verb in (["run"], ["grid"], ["reconcile", "--qtable", str(trained / "qtable.txt")]):
        for bad, message in (
            ("tolerance=inf", "tolerance"), ("tolerance=inf%", "tolerance"),
            ("tolerance=1e400", "tolerance"), ("adjustment_unit=inf", "adjustment unit"),
            ("grid_tolerances=inf%", "grid_tolerances=inf%, grid_epsilons=0.1: tolerance"),
        ):
            assert main([*verb, "--config", str(cfg_path), "--set", f"output_dir={out}",
                         "--set", "grid_tolerances=10%", "--set", "grid_epsilons=0.1",
                         "--set", bad]) == 1, (verb, bad)
            assert (f"config error: {message} must be positive and finite"
                    in capsys.readouterr().err), (verb, bad)
            assert not out.exists(), (verb, bad)
    # 1: a tolerance, unit or grid tolerance so large that moving every test
    # day by one unit overflows, named with its key, before any file is written
    for verb in (["run"], ["grid"], ["reconcile", "--qtable", str(trained / "qtable.txt")]):
        for bad, message in (
            ("tolerance=1e308", "tolerance: "), ("adjustment_unit=1e307", "adjustment_unit: "),
            ("grid_tolerances=1e308", "grid_tolerances=1e308, grid_epsilons=0.1: "),
        ):
            assert main([*verb, "--config", str(cfg_path), "--set", f"output_dir={out}",
                         "--set", "grid_tolerances=10%", "--set", "grid_epsilons=0.1",
                         "--set", bad]) == 1, (verb, bad)
            err = capsys.readouterr().err
            assert (f"config error: {message}moving each of the 31 daily forecasts of "
                    "test month 2020-03 by " in err
                    and err.endswith(" overflows MAPE_rec or %_f\n")), (verb, bad)
            assert not out.exists(), (verb, bad)
    zero_actuals = tmp_path / "zero_actuals.csv"
    write_daily_csv(zero_actuals, date(2018, 12, 1), date(2020, 3, 31),
                    lambda d: 0.0 if d >= date(2020, 3, 1) else nifty_like_value(d),
                    skip_weekends=False)
    zero_base = tmp_path / "zero_base.csv"  # naive repeats February's last day
    write_daily_csv(zero_base, date(2018, 12, 1), date(2020, 3, 31),
                    lambda d: 0.0 if d == date(2020, 2, 29) else nifty_like_value(d),
                    skip_weekends=False)
    zero_forecast = tmp_path / "zero_forecast.csv"
    zero_forecast.write_text("date,forecast\n" + "".join(
        f"2020-03-{day:02d},0\n" for day in range(1, 32)))
    out = tmp_path / "zero_out"
    for keys, at_fault, what in (
        ([f"data_path={zero_actuals}"], zero_actuals, "actuals"),
        ([f"data_path={zero_base}"], zero_base, "base forecasts"),
        (["forecaster=external", f"external_forecast_path={zero_forecast}"], zero_forecast,
         "base forecasts"),
    ):
        for verb in (["run"], ["grid"], ["reconcile", "--qtable", str(trained / "qtable.txt")]):
            for tolerance in ("20%", "5000"):
                argv = [*verb, "--config", str(cfg_path), "--set", f"output_dir={out}",
                        "--set", f"tolerance={tolerance}", "--set", "grid_tolerances=10%,500",
                        "--set", "grid_epsilons=0.1"]
                for key in keys:
                    argv += ["--set", key]
                assert main(argv) == 2, (at_fault, verb, tolerance)
                assert (f"data error: {at_fault}: the {what} of test month 2020-03 sum to 0"
                        in capsys.readouterr().err), (at_fault, verb, tolerance)
                assert not out.exists() or not any(out.iterdir()), (at_fault, verb)
    # 2: a percentage tolerance, or grid tolerance, on base forecasts that sum
    # below 0 names the file at fault and the test month, before any file is
    # written; an absolute tolerance still runs
    negative = tmp_path / "negative.csv"  # negated: naive forecasts below 0
    write_daily_csv(negative, date(2018, 12, 1), date(2020, 3, 31),
                    lambda d: -nifty_like_value(d))
    negative_forecast = tmp_path / "negative_forecast.csv"
    negative_forecast.write_text("date,forecast\n" + "".join(
        f"2020-03-{day:02d},{-value}\n" for day, value in zip(range(1, 32), REFERENCE_FORECASTS)))
    out = tmp_path / "negative_out"
    for keys, at_fault in (
        ([f"data_path={negative}"], negative),
        (["forecaster=external", f"external_forecast_path={negative_forecast}"],
         negative_forecast),
    ):
        keys = [arg for key in [*keys, f"output_dir={out}", "grid_epsilons=0.1"]
                for arg in ("--set", key)]
        for verb in (["run"], ["grid"], ["reconcile", "--qtable", str(trained / "qtable.txt")]):
            for tolerances in (["tolerance=20%", "grid_tolerances=500"],
                               ["tolerance=5000", "grid_tolerances=500,10%"]):
                argv = [*verb, "--config", str(cfg_path), *keys]
                for key in tolerances:
                    argv += ["--set", key]
                assert main(argv) == 2, (at_fault, verb, tolerances)
                assert (f"data error: {at_fault}: the base forecasts of test month 2020-03 "
                        "sum to -" in capsys.readouterr().err), (at_fault, verb, tolerances)
                assert not out.exists() or not any(out.iterdir()), (at_fault, verb)
        assert main(["run", "--config", str(cfg_path), *keys, "--set", "tolerance=5000",
                     "--set", "grid_tolerances=500"]) == 0, at_fault
        shutil.rmtree(out)
    # 2: test-month totals that overflow, or base forecasts so far from the
    # actuals that MAPE_rec overflows, name the data file before any file
    # is written
    march = date(2020, 3, 1)
    out = tmp_path / "huge_out"
    for name, value_fn, message in (
        ("huge_actuals", lambda d: 1e307 if d >= march else nifty_like_value(d),
         "the actuals of test month 2020-03 overflow when summed"),
        ("huge_base", lambda d: 1e307 if d == date(2020, 2, 29) else nifty_like_value(d),
         "the base forecasts of test month 2020-03 overflow when summed"),
        ("tiny_actuals", lambda d: (1e306 if d == date(2020, 2, 29) else 0.01 if d >= march
                                    else nifty_like_value(d)),
         "the base forecasts of test month 2020-03 (total 3.099999999999999e+307) against "
         "actuals that sum to 0.31000000000000005 overflow MAPE_rec or %_f"),
    ):
        path = tmp_path / f"{name}.csv"
        write_daily_csv(path, date(2018, 12, 1), date(2020, 3, 31), value_fn,
                        skip_weekends=False)
        for verb in (["run"], ["grid"], ["reconcile", "--qtable", str(trained / "qtable.txt")]):
            assert main([*verb, "--config", str(cfg_path), "--set", f"data_path={path}",
                         "--set", "tolerance=5000", "--set", "grid_tolerances=500",
                         "--set", "grid_epsilons=0.1", "--set", f"output_dir={out}"]) == 2, (
                name, verb)
            assert f"data error: {path}: {message}" in capsys.readouterr().err, (name, verb)
            assert not out.exists(), (name, verb)
    # 2: so do a training month's base forecasts that overflow when summed,
    # before training; `reconcile` trains nothing and runs
    huge_training = tmp_path / "huge_training.csv"  # naive repeats January's last day
    write_daily_csv(huge_training, date(2018, 12, 1), date(2020, 3, 31),
                    lambda d: 1e307 if date(2020, 1, 1) <= d < date(2020, 2, 1)
                    else nifty_like_value(d), skip_weekends=False)
    argv = ["--config", str(cfg_path), "--set", f"data_path={huge_training}",
            "--set", "tolerance=5000", "--set", "grid_tolerances=500",
            "--set", "grid_epsilons=0.1", "--set", f"output_dir={out}"]
    for verb in ("run", "grid"):
        assert main([verb, *argv]) == 2, verb
        assert (f"data error: {huge_training}: the base forecasts of training month 2020-02 "
                "overflow when summed" in capsys.readouterr().err), verb
        assert not out.exists(), verb
    assert main(["reconcile", "--qtable", str(trained / "qtable.txt"), *argv]) == 0
    shutil.rmtree(out)
    # 1: on test-month totals near 0.31, a unit of 1e306 keeps every RMF
    # finite but would carry %_f past the largest float
    small = tmp_path / "small.csv"
    write_daily_csv(small, date(2018, 12, 1), date(2020, 3, 31),
                    lambda d: 0.01 if d >= date(2020, 2, 1) else nifty_like_value(d),
                    skip_weekends=False)
    for verb in (["run"], ["grid"], ["reconcile", "--qtable", str(trained / "qtable.txt")]):
        for bad, message in (
            ("tolerance=1e306", "tolerance: "),
            ("grid_tolerances=1e306", "grid_tolerances=1e306, grid_epsilons=0.1: "),
        ):
            assert main([*verb, "--config", str(cfg_path), "--set", f"data_path={small}",
                         "--set", "tolerance=0.05", "--set", "grid_tolerances=0.05",
                         "--set", "grid_epsilons=0.1", "--set", f"output_dir={out}",
                         "--set", bad]) == 1, (verb, bad)
            assert (f"config error: {message}moving each of the 31 daily forecasts of test "
                    "month 2020-03 by 1e+306 overflows MAPE_rec or %_f"
                    in capsys.readouterr().err), (verb, bad)
            assert not out.exists(), (verb, bad)
    # 2: a calendar gap whose interpolation overflows names the data file
    # and the gap's two days
    overflow = tmp_path / "overflow.csv"
    overflow.write_text("Date,Open\n2020-01-01,1.7e308\n2020-01-03,-1.7e308\n")
    out = tmp_path / "overflow_out"
    for verb in (["validate-data"], ["run"],
                 ["reconcile", "--qtable", str(trained / "qtable.txt")]):
        assert main([*verb, "--config", str(cfg_path), "--set", f"data_path={overflow}",
                     "--set", f"output_dir={out}"]) == 2, verb
        assert (f"data error: {overflow}: interpolating the gap between 2020-01-01 and "
                "2020-01-03 overflows" in capsys.readouterr().err), verb
        assert not out.exists(), verb
    # 2: a field past the csv module's size limit names the file and line
    wide = tmp_path / "wide.csv"
    wide.write_text("Date,Open\n2020-01-01,1\n2020-01-02," + "1" * 200_000 + "\n")
    assert main(["validate-data", "--config", str(cfg_path),
                 "--set", f"data_path={wide}"]) == 2
    assert (f"data error: {wide}: line 3: field larger than field limit"
            in capsys.readouterr().err)
    # 2: a month missing from the data names the data file
    short = tmp_path / "short.csv"
    write_daily_csv(short, date(2018, 12, 1), date(2020, 3, 30), nifty_like_value)
    for verb in ("run", "validate-data"):
        assert main([verb, "--config", str(cfg_path), "--set", f"data_path={short}"]) == 2
        assert f"data error: {short}: month 2020-03 incomplete" in capsys.readouterr().err


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
    snapshot.write_text("".join((out / "qtable.txt").read_text().splitlines(True)[1:]))
    assert main(["reconcile", "--config", str(cfg_path), "--qtable", str(snapshot),
                 "--set", f"output_dir={tmp_path / 'out2'}"]) == 2
    assert f"{snapshot}: missing snapshot header" in capsys.readouterr().err
    missing = tmp_path / "nope.txt"
    assert main(["reconcile", "--config", str(cfg_path), "--qtable", str(missing),
                 "--set", f"output_dir={tmp_path / 'out2'}"]) == 2
    assert f"data error: {missing}: cannot open" in capsys.readouterr().err


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


@pytest.mark.parametrize("verb, key, name, link", [
    ("run", "data_path", "metrics.csv", False),
    ("run", "data_path", "metrics.csv", True),
    ("run", "external_forecast_path", "summary.json", False),
    ("grid", "data_path", "grid.csv", False),
    ("reconcile", "data_path", "qtable.txt", False),
    ("reconcile", "external_forecast_path", "metrics.csv", False),
    ("run", "--config", "summary.json", False),
    ("grid", "--config", "grid.csv", False),
    ("reconcile", "--config", "metrics.csv", True),
])
def test_verbs_refuse_to_overwrite_an_input(tmp_path, daily_csv, capsys, verb, key, name, link):
    # An input at one of the verb's output paths, or a link to one, exits
    # 1 naming the key and both paths, before any file is read or written.
    forecast_path = tmp_path / "forecast.csv"
    forecast_path.write_text("date,forecast\n" + "".join(
        f"2020-03-{day:02d},{value}\n" for day, value in zip(range(1, 32), REFERENCE_FORECASTS)))
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out, extra=[
        "forecaster = external", f"external_forecast_path = {forecast_path}", *GRID_KEYS])
    snapshot = tmp_path / "trained" / "qtable.txt"
    assert main(["run", "--config", str(cfg_path), "--set",
                 f"output_dir={snapshot.parent}"]) == 0
    target = out / name
    out.mkdir()
    target.write_bytes({"data_path": daily_csv, "external_forecast_path": forecast_path,
                        "--config": cfg_path}[key].read_bytes())
    before = target.read_bytes()
    path = target
    if link:
        path = tmp_path / "link.csv"
        path.symlink_to(target)
    # The config file's copy keeps its `output_dir`, the directory it is in.
    config = (["--config", str(path)] if key == "--config"
              else ["--config", str(cfg_path), "--set", f"{key}={path}"])
    extra = ["--qtable", str(snapshot)] if verb == "reconcile" else []
    capsys.readouterr()
    assert main([verb, *config, *extra]) == 1
    assert (f"config error: {key} {path} would be overwritten by {target}"
            in capsys.readouterr().err)
    assert target.read_bytes() == before
    assert sorted(out.iterdir()) == [target]


def test_output_dir_that_is_not_a_directory_is_a_config_error(tmp_path, daily_csv, capsys,
                                                             monkeypatch):
    # An output_dir that is a file, lies under one or is a broken link
    # would fail only at the first write; it exits 1 before any file is read.
    def prepare(config):
        raise AssertionError("the data was read")

    monkeypatch.setattr(cli, "prepare", prepare)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "out", extra=GRID_KEYS)
    snapshot = tmp_path / "qtable.txt"
    for output_dir, existing in ((taken, taken), (taken / "sub" / "dir", taken),
                                 (dangling, dangling)):
        for verb, extra in (("run", []), ("grid", []), ("reconcile", ["--qtable", str(snapshot)])):
            assert main([verb, "--config", str(cfg_path), "--set", f"output_dir={output_dir}",
                         *extra]) == 1, (verb, output_dir)
            assert (f"config error: output_dir {output_dir}: {existing} is not a directory"
                    in capsys.readouterr().err)
    assert taken.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == sorted([daily_csv, dangling, cfg_path, taken])


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


def test_external_monthly_total_row_reaches_no_output(tmp_path, daily_csv, recwarn):
    # An incoherent `monthly_total` row warns, and that is all it does.
    outputs, warned = [], []
    for name, total_row in (("plain", ""), ("with_total", "monthly_total,400000\n")):
        forecast_path = tmp_path / f"{name}.csv"
        forecast_path.write_text("date,forecast\n" + "".join(
            f"2020-03-{day:02d},{value}\n" for day, value in zip(range(1, 32),
                                                                REFERENCE_FORECASTS))
            + total_row)
        out = tmp_path / name
        cfg_path = write_config(tmp_path, daily_csv, out,
                                extra=["forecaster = external",
                                       f"external_forecast_path = {forecast_path}"])
        recwarn.clear()  # records every warning, repeats too
        assert main(["run", "--config", str(cfg_path)]) == 0
        warned.append([str(w.message) for w in recwarn
                       if str(w.message).startswith("monthly total")])
        summary = json.loads((out / "summary.json").read_text())
        summary.pop("config")
        outputs.append(((out / "metrics.csv").read_bytes(), (out / "qtable.txt").read_bytes(),
                        summary))
    assert outputs[0] == outputs[1]
    assert warned[0] == [] and len(warned[1]) == 1
    assert warned[1][0].startswith("monthly total 400000.0 differs from sum of daily forecasts")


def test_external_forecast_missing_days(tmp_path, daily_csv):
    forecast_path = tmp_path / "forecast.csv"
    forecast_path.write_text("date,forecast\n2020-03-01,100\n")
    cfg_path = write_config(
        tmp_path, daily_csv, tmp_path / "out",
        extra=["forecaster = external",
               f"external_forecast_path = {forecast_path}"],
    )
    assert main(["run", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("row, message", [
    ("2020-03-05", "too few fields"),
    ("2020-03-05,abc", "unparseable value 'abc'"),
    ("monthly_total,abc", "unparseable value 'abc'"),
    ("monthly_total", "too few fields"),
    ("2020-03-05,nan", "value 'nan' is not finite"),
    ("2020-13-05,1", "unparseable date '2020-13-05'"),
    pytest.param("2020-03-05," + "1" * 200_000, "field larger than field limit",
                 id="field-over-csv-limit"),
    # Two rows; the error names the second.
    pytest.param("2020-03-05,1\n2020-03-05,2", "duplicate date 2020-03-05",
                 id="repeated-date"),
    pytest.param("monthly_total,1\nmonthly_total,2", "duplicate monthly_total row",
                 id="repeated-monthly-total"),
])
def test_external_forecast_bad_row_names_file_and_line(tmp_path, daily_csv, capsys,
                                                       row, message):
    forecast_path = tmp_path / "forecast.csv"
    rows = ["date,forecast", row]
    rows += [f"2020-03-{day:02d},{value}" for day, value in zip(range(1, 32),
                                                              REFERENCE_FORECASTS)]
    forecast_path.write_text("\n".join(rows) + "\n")
    cfg_path = write_config(
        tmp_path, daily_csv, tmp_path / "out",
        extra=["forecaster = external",
               f"external_forecast_path = {forecast_path}"],
    )
    assert main(["run", "--config", str(cfg_path)]) == 2
    line = 2 + row.count("\n")
    assert f"{forecast_path}: line {line}: {message}" in capsys.readouterr().err


# The names `perfbench/tracing.py` wraps for a traced benchmark run, by
# owner; the test id is the bare name for a `cli` attribute.
TRACED_NAMES = [(cli, name) for name in (
    "load_ohlcv_csv", "fill_calendar", "month_partition", "prepare", "train",
    "reconcile_online", "save_table", "load_table", "build_metric_report", "run_grid",
)] + [(agent, "run_episode"), (evaluation, "train"), (evaluation, "reconcile_online"),
      (forecasting, "naive"), (forecasting, "seasonal_naive"), (forecasting, "drift"),
      (evaluation.MetricReport, "to_csv"), (evaluation.GridReport, "to_csv")]


@pytest.mark.parametrize("owner, name", TRACED_NAMES, ids=[
    name if owner is cli else f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
    for owner, name in TRACED_NAMES])
def test_cli_exposes_traced_names(owner, name):
    assert callable(getattr(owner, name))


def test_run_episode_keeps_the_traced_shape():
    # The tracer counts `len(args[0].forecasts)` and `len(result[1])` of a
    # training episode, which records nothing, and `len(result)` of an
    # online revision: one `DayRecord` per streamed day.
    cycle = CycleData([10.0, 20.0], [11.0, 19.0], 30.0)
    table = init_state_values(30.0, cycle.forecasts)
    cfg = AgentConfig(tolerance=1.0)
    result = agent.run_episode(cycle, table, cfg, rng_for(0, "t").random)
    assert result == (table, ()) and result[0] is table
    for stream in ([], [11.0], cycle.actuals):
        records = agent.reconcile_online(table, cycle.forecasts, stream, cfg, rng_for(0, "o"))
        assert type(records) is tuple and len(records) == len(stream)
        assert all(type(rec) is agent.DayRecord for rec in records)


# Run in a fresh interpreter with the config, the snapshot and an output
# directory as arguments; prints the exit codes and the modules loaded.
DAILY_VERBS_SCRIPT = """
import contextlib, io, json, sys
from dtreconcile import cli

def loaded(names=("dtreconcile.hierarchy", "dtreconcile.baselines",
                  "dataclasses", "inspect", "calendar")):
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "numpy" or name in names)

cfg, snapshot, out = sys.argv[1:]
report = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    report["daily"] = [cli.main(["validate-data", "--config", cfg]),
                       cli.main(["reconcile", "--config", cfg, "--qtable", snapshot,
                                 "--set", "output_dir=" + out])]
    report["after_daily"] = loaded()
    report["run"] = cli.main(["run", "--config", cfg, "--set", "output_dir=" + out])
# numpy, which training imports, loads inspect itself.
report["after_run"] = [name for name in ("dataclasses", "calendar") if name in sys.modules]
print(json.dumps(report))
"""


def test_cli_import_loads_no_hierarchy_code(tmp_path, daily_csv):
    # `validate-data` and `reconcile` load neither numpy nor the baselines:
    # a top-level `import numpy` anywhere on their path fails here. `run`
    # imports numpy inside training and still succeeds. No verb loads
    # `dataclasses` or `calendar`, and the daily verbs not `inspect`:
    # each costs start-up that every fresh process pays.
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "trained")
    assert main(["run", "--config", str(cfg_path)]) == 0
    src = str(Path(dtreconcile.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", DAILY_VERBS_SCRIPT, str(cfg_path),
         str(tmp_path / "trained" / "qtable.txt"), str(tmp_path / "daily_out")],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src})
    report = json.loads(result.stdout)
    assert report == {"import": [], "daily": [0, 0], "after_daily": [], "run": 0,
                      "after_run": []}, result.stderr
    assert (tmp_path / "daily_out" / "metrics.csv").exists()
    # The module graph: the agent and the metrics never load the forecasters,
    # and the forecasters load nothing of the package but its errors.
    for modules, expected in (
        ("agent, evaluation",
         {"agent", "errors", "evaluation", "seeding", "totals"}),
        ("forecasting", {"errors", "forecasting"}),
    ):
        result = subprocess.run(
            [sys.executable, "-c", f"import sys\nfrom dtreconcile import {modules}\n"
             "print(' '.join(n for n in sys.modules if n.startswith('dtreconcile.')))"],
            capture_output=True, text=True, check=True, env={"PYTHONPATH": src})
        assert {name.split(".")[1] for name in result.stdout.split()} == expected, modules


def test_module_entry_point_exits_with_the_documented_code(tmp_path, daily_csv, capsys):
    # `python -m dtreconcile.cli` in a fresh process: `sys.exit(main())`
    # hands the shell 0, 2 for bad data and 1 for bad config, never a
    # traceback. A usage error is a config error, not argparse's exit 2.
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "out")
    rows = [line.split(",") for line in daily_csv.read_text().splitlines()]
    rows[4][1] = "abc"  # the Open value on line 5
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("".join(",".join(row) + "\n" for row in rows))
    src = str(Path(dtreconcile.__file__).parents[1])
    validate = ["validate-data", "--config", str(cfg_path)]
    for args, code, message in (
        (validate, 0, "complete months"),
        ([*validate, "--set", f"data_path={bad_csv}"], 2,
         f"{bad_csv}: line 5: unparseable value 'abc'"),
        ([*validate, "--set", "nonsense=1"], 1, "config error: unknown config key 'nonsense'"),
        (["reconcile", "--set", "data_path=x"], 1, "config error: dtreconcile reconcile: "
         "the following arguments are required: --qtable"),
        (["bogus"], 1, "config error: dtreconcile: argument verb: invalid choice: 'bogus'"),
        (["--help"], 0, "usage: dtreconcile"),
    ):
        result = subprocess.run(
            [sys.executable, "-m", "dtreconcile.cli", *args],
            capture_output=True, text=True, env={"PYTHONPATH": src})
        assert result.returncode == code, result.stderr
        assert message in result.stdout + result.stderr
        assert "Traceback" not in result.stderr
    # In process, `main` returns the code rather than raising SystemExit.
    for args, message in ((["run", "--bogus"], "unrecognized arguments: --bogus"),
                          ([], "the following arguments are required: verb"),
                          (["reconcile", "--config", str(cfg_path)], "required: --qtable")):
        assert main(args) == 1
        assert message in capsys.readouterr().err


def _neumaier_sum(builtin_sum):
    """`sum` as Python 3.12 computes it: compensated (Neumaier) over floats."""
    def compensated(iterable, /, start=0):
        items = list(iterable)
        if type(start) is not int or not all(type(x) is float for x in items):
            return builtin_sum(items, start)
        total, compensation = float(start), 0.0
        for x in items:
            t = total + x
            if abs(total) >= abs(x):
                compensation += (total - t) + x
            else:
                compensation += (x - t) + total
            total = t
        return total + compensation if compensation and math.isfinite(compensation) else total
    return compensated


def test_output_bytes_do_not_depend_on_compensated_sum(tmp_path, daily_csv, monkeypatch):
    # Runs on an emulation of Python 3.12's `sum`, so it also guards on 3.11.
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out,
                            extra=["adjustment_unit = per-day", "exploration = 0.3"])
    assert main(["run", "--config", str(cfg_path)]) == 0
    plain = {name: (out / name).read_bytes() for name in ("metrics.csv", "summary.json")}
    monkeypatch.setattr(builtins, "sum", _neumaier_sum(builtins.sum))
    assert main(["run", "--config", str(cfg_path)]) == 0
    monkeypatch.undo()
    for name, content in plain.items():
        assert (out / name).read_bytes() == content, name


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
