"""End-to-end tests for the command-line surface."""

import ast
import builtins
import json
import math
import os
import shlex
import shutil
import string
import subprocess
import sys
import warnings
from collections import Counter, defaultdict
from datetime import date
from pathlib import Path
from unittest import mock

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
from dtreconcile.data import Calendar
from dtreconcile.errors import ConfigError
from dtreconcile.seeding import derive_seed, rng_for
from dtreconcile.totals import pairwise_sum

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
    total = float(np.array(REFERENCE_FORECASTS, dtype=float).sum())
    assert resolve_tolerance("20%", total) == pytest.approx(0.2 * total)
    assert resolve_tolerance(" 20 %", total) == resolve_tolerance("20%", total)
    assert resolve_tolerance("5000", total) == 5000.0
    assert resolve_tolerance(123.0, total) == 123.0
    for bad in ("abc", "20%%", "%"):
        with pytest.raises(ConfigError):
            resolve_tolerance(bad, total)


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


def test_each_call_computes_its_own_training_start(tmp_path, daily_csv, monkeypatch):
    # A grid computes the start of training once for all its cells, and each
    # `main` call builds its own cycles, so no call reuses another's start.
    calls = []
    init = agent.init_state_values
    monkeypatch.setattr(agent, "init_state_values",
                        lambda *args: calls.append(args) or init(*args))
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "out", extra=GRID_KEYS)
    assert main(["grid", "--config", str(cfg_path)]) == 0
    assert len(calls) == 1
    for _ in range(2):
        assert main(["run", "--config", str(cfg_path)]) == 0
    assert len(calls) == 3 and calls[1] == calls[2]


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
        config = build_run_config(mapping)
        prep = cli.prepare(config, cli.load(config)[1])
        base = prep.agent_cfg
        base_total = pairwise_sum(prep.test.forecasts)
        tolerances = [resolve_tolerance(raw, base_total) for raw in ("10%", "20%")]
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


@pytest.mark.parametrize("forecaster", ["naive", "seasonal_naive", "drift"])
def test_shorter_training_is_a_prefix_of_a_longer_one(tmp_path, daily_csv, forecaster):
    # `forecast_month` reads only the calendar before the month, so one
    # loaded calendar serves every origin of a rolling backtest, and the
    # calendar past the training range is never read.
    mapping = {**parse_config_file(write_config(tmp_path, daily_csv, tmp_path / "out")),
               "forecaster": forecaster}
    config = build_run_config(mapping)
    _, filled, _ = cli.load(config)

    def bits(cycles):
        return [(tuple(map(float.hex, c.forecasts)), tuple(map(float.hex, c.actuals)))
                for c in cycles]

    longer = bits(cli.training(config, filled))
    months = [f"2019-{m:02d}" for m in range(1, 13)] + ["2020-01", "2020-02"]
    assert len(longer) == len(months)
    for k in range(1, len(months)):
        shorter = build_run_config({**mapping, "train_end": months[k - 1],
                                    "test_month": months[k]})
        assert bits(cli.training(shorter, filled)) == longer[:k], (forecaster, k)
        end = (date(*map(int, months[k].split("-")), 1) - filled.start).days
        cut = Calendar(filled.start, filled.values[:end])
        assert bits(cli.training(shorter, cut)) == longer[:k], (forecaster, k)


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


def test_validate_data_prints_the_range_and_names_an_incomplete_month(tmp_path, daily_csv,
                                                                      capsys):
    # The weekday rows run from Monday 2018-12-03 through 2020-03-31.
    validate = ["validate-data", "--config", str(write_config(tmp_path, daily_csv,
                                                             tmp_path / "out"))]
    assert main([*validate, "--set", "train_start=2019-1"]) == 0
    rows = len(daily_csv.read_text().splitlines()) - 1
    days = (date(2020, 3, 31) - date(2018, 12, 3)).days + 1
    assert capsys.readouterr().out == (f"{daily_csv}: {rows} rows, {days} after calendar "
                                       "fill, 15 complete months 2019-01..2020-03\n")
    for overrides, message in (
        (["train_start=2018-11"], "month 2018-11 incomplete: 30 missing days (first 2018-11-01)"),
        (["train_start=2018-12"], "month 2018-12 incomplete: 2 missing days (first 2018-12-01)"),
        (["train_end=2020-04", "test_month=2020-05"],
         "month 2020-04 incomplete: 30 missing days (first 2020-04-01)"),
    ):
        sets = [arg for override in overrides for arg in ("--set", override)]
        assert main([*validate, *sets]) == 2, overrides
        assert capsys.readouterr().err == f"data error: {daily_csv}: {message}\n"


def test_each_verb_partitions_only_the_months_it_reads(tmp_path, daily_csv, capsys,
                                                       monkeypatch):
    # `validate-data` only counts the months, and `reconcile` never
    # trains; the counter changes no byte a verb writes or prints.
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out)
    snapshot = tmp_path / "snapshot" / "qtable.txt"
    assert main(["run", "--config", str(cfg_path), "--set",
                 f"output_dir={snapshot.parent}"]) == 0
    capsys.readouterr()
    original = cli.month_partition

    def outputs(verb):
        shutil.rmtree(out, ignore_errors=True)
        assert main([*verb, "--config", str(cfg_path)]) == 0
        files = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else {}
        return capsys.readouterr().out, files

    for verb, expected in (
        (["validate-data"], []),
        (["reconcile", "--qtable", str(snapshot)], [("2020-03", "2020-03")]),
        (["run"], [("2020-03", "2020-03"), ("2019-01", "2020-02")]),
    ):
        plain = outputs(verb)
        partitioned = []
        monkeypatch.setattr(cli, "month_partition", lambda calendar, month_range:
                            partitioned.append(month_range) or original(calendar, month_range))
        assert outputs(verb) == plain, verb
        monkeypatch.setattr(cli, "month_partition", original)
        assert partitioned == expected, verb
        assert plain[1] or verb == ["validate-data"]


def test_each_verb_fills_only_the_days_it_reads(tmp_path, daily_csv, capsys, monkeypatch):
    # `validate-data` fills no day, `reconcile` the test month and the
    # forecaster's lookback, `run` train_start less the lookback through
    # the test month; the counter changes no byte a verb writes or prints.
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out)
    snapshot = tmp_path / "snapshot" / "qtable.txt"
    assert main(["run", "--config", str(cfg_path), "--set",
                 f"output_dir={snapshot.parent}"]) == 0
    capsys.readouterr()
    original = cli.fill_calendar

    def outputs(verb):
        shutil.rmtree(out, ignore_errors=True)
        assert main([*verb, "--config", str(cfg_path)]) == 0
        files = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else {}
        return capsys.readouterr().out, files

    last = date(2020, 3, 31)  # the test month's last day
    for verb, first in (
        (["validate-data"], None),
        (["reconcile", "--qtable", str(snapshot)], date(2020, 2, 29)),
        (["reconcile", "--qtable", str(snapshot), "--set", "forecaster=seasonal_naive"],
         date(2020, 2, 23)),
        (["run"], date(2018, 12, 31)),
        (["run", "--set", "forecaster=seasonal_naive"], date(2018, 12, 25)),
        # The data's first day, a Monday, clips drift's whole history.
        (["run", "--set", "forecaster=drift"], date(2018, 12, 3)),
    ):
        plain = outputs(verb)
        filled = []
        monkeypatch.setattr(cli, "fill_calendar", lambda *args: filled.append(
            original(*args)) or filled[-1])
        assert outputs(verb) == plain, verb
        monkeypatch.setattr(cli, "fill_calendar", original)
        (calendar,) = filled
        days = 0 if first is None else (last - first).days + 1
        assert len(calendar) == days, verb
        assert first is None or calendar.start == first, verb
        assert plain[1] or verb == ["validate-data"]


@pytest.mark.parametrize("forecaster", ["naive", "seasonal_naive"])
@pytest.mark.parametrize("first_day, last_day, months", [
    (date.min, date(2, 4, 10), ("0001-01", "0002-02", "0002-03")),
    (date(9998, 11, 2), date.max, ("9998-12", "9999-11", "9999-12")),
])
def test_verbs_on_data_at_the_calendar_ends(tmp_path, capsys, forecaster, first_day,
                                            last_day, months):
    # Data that start on the first day a date can name, with train_start
    # its month, and data that end on the last, with test_month its month:
    # no verb may reach for a day before the one or after the other.
    path = tmp_path / "daily.csv"
    days = (date.fromordinal(n) for n in range(first_day.toordinal(), last_day.toordinal() + 1))
    path.write_text("Date,Open\n" + "".join(f"{day.isoformat()},{100 + day.day + day.month}\n"
                                            for day in days if day.weekday() < 5))
    train_start, train_end, test_month = months
    cfg_path = write_config(tmp_path, path, tmp_path / "out", extra=[
        f"train_start = {train_start}", f"train_end = {train_end}",
        f"test_month = {test_month}", f"forecaster = {forecaster}", *GRID_KEYS])
    reconcile = ["reconcile", "--qtable", str(tmp_path / "out" / "qtable.txt"),
                 "--set", f"output_dir={tmp_path / 'out2'}"]
    for verb in (["validate-data"], ["run"], ["grid"], reconcile):
        assert main([verb[0], "--config", str(cfg_path), *verb[1:]]) == 0, verb
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out2" / "metrics.csv").exists()


def test_exit_codes(tmp_path, daily_csv, capsys):
    # 1: config error
    assert main(["run", "--set", "data_path=x.csv"]) == 1
    # 2: data error, message names the path
    cfg_path = write_config(tmp_path, tmp_path / "missing.csv", tmp_path / "out")
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "missing.csv" in capsys.readouterr().err
    # 1: no configuration at all
    assert main(["run"]) == 1
    assert "no configuration given" in capsys.readouterr().err
    # 1: an empty config path is a config file that cannot be read
    for empty in (["--config="], ["--config", ""]):
        assert main(["validate-data", *empty, "--set", "data_path=x.csv"]) == 1, empty
        assert capsys.readouterr().err == ("config error: cannot read config : [Errno 2] "
                                           "No such file or directory: ''\n"), empty
    # 1: agent settings out of range
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "out")
    for bad in ("tolerance=0%", "exploration=2", "step_size=0", "episodes=-1",
                "discount=nan", "discount=5"):
        assert main(["run", "--config", str(cfg_path), "--set", bad]) == 1, bad
        assert "config error" in capsys.readouterr().err
    # 1: a key its companion contradicts, or a --set with no `=`, named
    # exactly, before any file is written
    for bad, message in (
        (["forecaster=external"], "external forecaster needs external_forecast_path"),
        (["train_start=2020-02", "train_end=2020-01"], "train_start is after train_end"),
        (["foo"], "--set expects KEY=VALUE, got 'foo'"),
    ):
        sets = [arg for item in bad for arg in ("--set", item)]
        assert main(["run", "--config", str(cfg_path), *sets]) == 1, bad
        assert capsys.readouterr().err == f"config error: {message}\n", bad
        assert not (tmp_path / "out").exists(), bad
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
    # 2: a value that is not finite or is past the limit, named with its
    # file and line
    for bad in ("nan", "inf", "-Infinity", "1e301"):
        rows = [line.split(",") for line in daily_csv.read_text().splitlines()]
        rows[4][1] = bad  # the Open value on line 5
        bad_csv = tmp_path / f"{bad}.csv"
        bad_csv.write_text("".join(",".join(row) + "\n" for row in rows))
        assert main(["validate-data", "--config", str(cfg_path),
                     "--set", f"data_path={bad_csv}"]) == 2, bad
        assert (f"{bad_csv}: line 5: value {bad!r} is not finite or exceeds 1e+300 in magnitude"
                in capsys.readouterr().err)
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
    # 2: base forecasts so far from the actuals that MAPE_rec overflows name
    # the data file; values past the limit, which made test-month and
    # training-month totals overflow, name the file and the line of the
    # first, for every verb; all before any file is written
    march = date(2020, 3, 1)
    out = tmp_path / "huge_out"
    for name, value_fn, message in (
        ("huge_actuals", lambda d: 1e307 if d >= march else nifty_like_value(d),
         "line 458: value '1e+307' is not finite or exceeds 1e+300 in magnitude"),
        ("huge_base", lambda d: 1e307 if d == date(2020, 2, 29) else nifty_like_value(d),
         "line 457: value '1e+307' is not finite or exceeds 1e+300 in magnitude"),
        ("huge_training", lambda d: 1e307 if date(2020, 1, 1) <= d < date(2020, 2, 1)
         else nifty_like_value(d),
         "line 398: value '1e+307' is not finite or exceeds 1e+300 in magnitude"),
        ("tiny_actuals", lambda d: (1e300 if d == date(2020, 2, 29) else 1e-300 if d >= march
                                    else nifty_like_value(d)),
         "the base forecasts of test month 2020-03 (total 3.1000000000000006e+301) against "
         "actuals that sum to 3.100000000000001e-299 overflow MAPE_rec or %_f"),
    ):
        path = tmp_path / f"{name}.csv"
        day = date(2018, 12, 1)
        with open(path, "w") as fh:  # each value as `repr` writes it
            fh.write("Date,Open\n")
            while day <= date(2020, 3, 31):
                fh.write(f"{day},{value_fn(day)!r}\n")
                day = date.fromordinal(day.toordinal() + 1)
        for verb in (["run"], ["grid"], ["reconcile", "--qtable", str(trained / "qtable.txt")]):
            assert main([*verb, "--config", str(cfg_path), "--set", f"data_path={path}",
                         "--set", "tolerance=5000", "--set", "grid_tolerances=500",
                         "--set", "grid_epsilons=0.1", "--set", f"output_dir={out}"]) == 2, (
                name, verb)
            assert capsys.readouterr().err == f"data error: {path}: {message}\n", (name, verb)
            assert not out.exists(), (name, verb)
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
    # 2: values past the limit around a calendar gap, whose interpolation
    # used to overflow, name the data file and the first one's line, also
    # before the days a verb fills (`reconcile` fills from 2020-02-29) and
    # when the data cover every month
    overflow = tmp_path / "overflow.csv"
    overflow.write_text("Date,Open\n2020-01-01,1.7e308\n2020-01-03,-1.7e308\n")
    early = tmp_path / "early_overflow.csv"
    huge = {"2019-01-04": "1.7e308", "2019-01-07": "-1.7e308"}  # a Friday and a Monday
    lines = daily_csv.read_text().splitlines()
    early.write_text("".join(
        f"{line[:10]},{huge[line[:10]]},1,1,1,1000\n" if line[:10] in huge else line + "\n"
        for line in lines))
    out = tmp_path / "overflow_out"
    for path, line in ((overflow, 2),
                       (early, 1 + next(k for k, text in enumerate(lines)
                                        if text.startswith("2019-01-04")))):
        for verb in (["validate-data"], ["run"],
                     ["reconcile", "--qtable", str(trained / "qtable.txt")]):
            assert main([*verb, "--config", str(cfg_path), "--set", f"data_path={path}",
                         "--set", f"output_dir={out}"]) == 2, verb
            assert capsys.readouterr().err == (
                f"data error: {path}: line {line}: value '1.7e308' is not finite or exceeds "
                "1e+300 in magnitude\n"), verb
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
    # Every verb names the first month not covered, here one between the
    # training range and the test month, before any file is written.
    early = tmp_path / "early.csv"
    write_daily_csv(early, date(2018, 12, 1), date(2020, 1, 15), nifty_like_value)
    out = tmp_path / "early_out"
    for verb in (["run"], ["grid"], ["reconcile", "--qtable", str(trained / "qtable.txt")],
                 ["validate-data"]):
        assert main([*verb, "--config", str(cfg_path), "--set", f"data_path={early}",
                     "--set", "train_end=2019-12", "--set", f"output_dir={out}",
                     "--set", "grid_tolerances=10%", "--set", "grid_epsilons=0.1"]) == 2, verb
        assert capsys.readouterr().err == (f"data error: {early}: month 2020-01 incomplete: "
                                           "16 missing days (first 2020-01-16)\n"), verb
        assert not out.exists(), verb


def test_a_bad_agent_setting_is_refused_with_one_message(tmp_path, daily_csv, capsys):
    # The tolerance is read before the unit, the base setting before the
    # grid cells; only a cell's message is prefixed with its coordinates.
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "out")
    trained = tmp_path / "trained"
    assert main(["run", "--config", str(cfg_path), "--set", f"output_dir={trained}"]) == 0
    capsys.readouterr()
    out = tmp_path / "bad_out"
    for verb in (["run"], ["grid"], ["reconcile", "--qtable", str(trained / "qtable.txt")]):
        for bad, message in (
            (["adjustment_unit=abc"], "bad adjustment_unit 'abc'"),
            (["tolerance=abc"], "bad tolerance 'abc'"),
            (["grid_tolerances=10%,abc"],
             "grid_tolerances=abc, grid_epsilons=0.1: bad tolerance 'abc'"),
            (["tolerance=-5"], "tolerance must be positive and finite"),
            (["grid_tolerances=-5"],
             "grid_tolerances=-5, grid_epsilons=0.1: tolerance must be positive and finite"),
            (["exploration=3"], "exploration probability must be in [0, 1]"),
            (["grid_epsilons=0.1,3"],
             "grid_tolerances=10%, grid_epsilons=3.0: exploration probability must be in [0, 1]"),
            (["tolerance=abc", "adjustment_unit=abc"], "bad tolerance 'abc'"),
            (["tolerance=20%%"], "bad tolerance '20%%'"),
            (["grid_tolerances=10%%"],
             "grid_tolerances=10%%, grid_epsilons=0.1: bad tolerance '10%%'"),
        ):
            argv = [*verb, "--config", str(cfg_path), "--set", f"output_dir={out}",
                    "--set", "grid_tolerances=10%,500", "--set", "grid_epsilons=0.1"]
            for key in bad:
                argv += ["--set", key]
            assert main(argv) == 1, (verb, bad)
            assert capsys.readouterr().err == f"config error: {message}\n", (verb, bad)
            assert not out.exists(), (verb, bad)
    # `run` and `reconcile` check the grid tolerances even with no epsilons,
    # and the grid epsilons with no tolerances.
    overflow = ("moving each of the 31 daily forecasts of test month 2020-03 by 1e+308 "
                "overflows MAPE_rec or %_f")
    for verb in (["run"], ["reconcile", "--qtable", str(trained / "qtable.txt")]):
        for grid, message in (
            ("grid_tolerances=10%,abc", "grid_tolerances=abc: bad tolerance 'abc'"),
            ("grid_tolerances=-5", "grid_tolerances=-5: tolerance must be positive and finite"),
            ("grid_tolerances=inf", "grid_tolerances=inf: tolerance must be positive and finite"),
            ("grid_tolerances=1e400%",
             "grid_tolerances=1e400%: tolerance must be positive and finite"),
            ("grid_tolerances=1e308", f"grid_tolerances=1e308: {overflow}"),
            ("grid_epsilons=0.1,2",
             "grid_epsilons=2.0: exploration probability must be in [0, 1]"),
        ):
            assert main([*verb, "--config", str(cfg_path), "--set", f"output_dir={out}",
                         "--set", grid]) == 1, (verb, grid)
            assert capsys.readouterr().err == f"config error: {message}\n", (verb, grid)
            assert not out.exists(), (verb, grid)


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


@pytest.mark.parametrize("verb", ["validate-data", "run", "reconcile"])
def test_a_byte_order_mark_reads_as_none(tmp_path, daily_csv, capsys, monkeypatch, verb):
    # Spreadsheets save a UTF-8 CSV with a leading byte-order mark. A data,
    # external forecast, config and snapshot file each saved with one give
    # the exit code, stdout and output bytes of the same files without it.
    trained = tmp_path / "trained"
    assert main(["run", "--config", str(write_config(tmp_path, daily_csv, trained))]) == 0
    inputs = {
        "daily.csv": daily_csv.read_bytes(),
        "forecast.csv": ("date,forecast\n" + "".join(
            f"2020-03-{day:02d},{value}\n"
            for day, value in zip(range(1, 32), REFERENCE_FORECASTS))).encode(),
        "run.cfg": write_config(tmp_path, "daily.csv", "out", extra=[
            "forecaster = external", "external_forecast_path = forecast.csv"]).read_bytes(),
        "qtable.txt": (trained / "qtable.txt").read_bytes(),
    }
    extra = ["--qtable", "qtable.txt"] if verb == "reconcile" else []
    outcomes = []
    for mark in (b"", b"\xef\xbb\xbf"):
        where = tmp_path / ("marked" if mark else "plain")
        where.mkdir()
        for name, content in inputs.items():
            (where / name).write_bytes(mark + content)
        monkeypatch.chdir(where)  # the same relative paths, so the same stdout
        capsys.readouterr()
        code = main([verb, "--config", "run.cfg", *extra])
        out = where / "out"
        written = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        outcomes.append((code, capsys.readouterr(), written))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and len(outcomes[0][2]) == (0 if verb == "validate-data" else 3)


@pytest.mark.parametrize("verb, key, name, link", [
    ("run", "data_path", "metrics.csv", False),
    ("run", "data_path", "metrics.csv", True),
    ("run", "data_path", "metrics.csv", "hard"),
    ("run", "data_path", "metrics.csv", "dir"),
    ("run", "external_forecast_path", "summary.json", False),
    ("grid", "data_path", "grid.csv", False),
    ("reconcile", "data_path", "qtable.txt", False),
    ("reconcile", "external_forecast_path", "metrics.csv", False),
    ("run", "--config", "summary.json", False),
    ("grid", "--config", "grid.csv", False),
    ("grid", "--config", "grid.csv", "hard"),
    ("reconcile", "--config", "metrics.csv", True),
])
def test_verbs_refuse_to_overwrite_an_input(tmp_path, daily_csv, capsys, verb, key, name, link):
    # An input at one of the verb's output paths, or a symbolic (``link``
    # True) or hard ("hard") link to one, or an input under an output's name
    # in the directory that ``output_dir`` links to ("dir"), exits 1 naming
    # the key and both paths, before any file is read or written.
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
    path, output_dir = target, out
    if link == "hard":
        path = tmp_path / "link.csv"
        os.link(target, path)
    elif link == "dir":
        output_dir = tmp_path / "out-link"
        output_dir.symlink_to(out)
    elif link:
        path = tmp_path / "link.csv"
        path.symlink_to(target)
    # The config file's copy keeps its `output_dir`, the directory it is in.
    config = (["--config", str(path)] if key == "--config"
              else ["--config", str(cfg_path), "--set", f"{key}={path}"])
    extra = ["--qtable", str(snapshot)] if verb == "reconcile" else []
    extra += ["--set", f"output_dir={output_dir}"] if link == "dir" else []
    capsys.readouterr()
    assert main([verb, *config, *extra]) == 1
    assert (f"config error: {key} {path} would be overwritten by {output_dir / name}"
            in capsys.readouterr().err)
    assert target.read_bytes() == before
    assert sorted(out.iterdir()) == [target]


@pytest.mark.parametrize("verb, key, name", [
    ("run", "data_path", "metrics.csv"),
    ("grid", "data_path", "grid.csv"),
    ("run", "external_forecast_path", "summary.json"),
    ("reconcile", "--qtable", "qtable.txt"),
])
def test_a_missing_input_at_an_output_path_fails_at_its_read(tmp_path, daily_csv, capsys,
                                                            verb, key, name):
    # An input that names an output not yet written is no existing file, so
    # the guard lets it pass; it exits 2 at its own read, before any write.
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out, extra=GRID_KEYS)
    missing = out / name
    if key == "--qtable":
        option = ["--qtable", str(missing)]
    elif key == "external_forecast_path":
        option = ["--set", "forecaster=external", "--set", f"{key}={missing}"]
    else:
        option = ["--set", f"{key}={missing}"]
    assert main([verb, "--config", str(cfg_path), *option]) == 2
    assert f"data error: {missing}" in capsys.readouterr().err
    assert not out.exists()


def test_output_dir_that_is_not_a_directory_is_a_config_error(tmp_path, daily_csv, capsys,
                                                             monkeypatch):
    # An output_dir that is a file, lies under one or is a broken link
    # would fail only at the first write; it exits 1 before any file is read.
    def load_ohlcv_csv(*args):
        raise AssertionError("the data was read")

    monkeypatch.setattr(cli, "load_ohlcv_csv", load_ohlcv_csv)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "out", extra=GRID_KEYS)
    snapshot = tmp_path / "qtable.txt"
    verbs = (("run", []), ("grid", []), ("reconcile", ["--qtable", str(snapshot)]))
    for output_dir, existing in ((taken, taken), (taken / "sub" / "dir", taken),
                                 (dangling, dangling)):
        for verb, extra in verbs:
            assert main([verb, "--config", str(cfg_path), "--set", f"output_dir={output_dir}",
                         *extra]) == 1, (verb, output_dir)
            assert (f"config error: output_dir {output_dir}: {existing} is not a directory"
                    in capsys.readouterr().err)
    # An empty output_dir, which `Path` reads as the current directory.
    monkeypatch.chdir(tmp_path)
    for verb, extra in verbs:
        assert main([verb, "--config", str(cfg_path), "--set", "output_dir=", *extra]) == 1, verb
        assert capsys.readouterr().err == "config error: output_dir is empty\n", verb
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
TRACED_IDS = [name if owner is cli else f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
              for owner, name in TRACED_NAMES]


@pytest.mark.parametrize("owner, name", TRACED_NAMES, ids=TRACED_IDS)
def test_cli_exposes_traced_names(owner, name):
    assert callable(getattr(owner, name))


def test_verbs_reach_every_traced_name_through_its_owner(tmp_path, daily_csv, capsys,
                                                         monkeypatch):
    # A call that bypasses the attribute the tracer wraps would leave that
    # layer's spans short in a traced benchmark run. The profiler counts
    # every call of each function; the wrappers count those made through
    # the attribute (`cli.train` and `evaluation.train` share one function).
    reached, through, entered = set(), Counter(), Counter()
    names = defaultdict(list)  # code -> the ids of the attributes bound to it

    def counting(name_id, original):
        def wrapper(*args, **kwargs):
            reached.add(name_id)
            through[original.__code__] += 1
            return original(*args, **kwargs)
        return wrapper

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            entered[frame.f_code] += 1

    for (owner, name), name_id in zip(TRACED_NAMES, TRACED_IDS):
        original = getattr(owner, name)
        names[original.__code__].append(name_id)
        monkeypatch.setattr(owner, name, counting(name_id, original))
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out, extra=GRID_KEYS)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for verb in (["run"], ["grid", "--set", "forecaster=seasonal_naive"],
                     ["reconcile", "--qtable", str(out / "qtable.txt"),
                      "--set", "forecaster=drift", "--set", f"output_dir={tmp_path / 'out2'}"]):
            assert main([verb[0], "--config", str(cfg_path), *verb[1:]]) == 0, verb
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert [name_id for name_id in TRACED_IDS if name_id not in reached] == []
    assert ({"/".join(names[code]): n for code, n in entered.items()}
            == {"/".join(names[code]): n for code, n in through.items()})


def test_run_episode_keeps_the_traced_shape():
    # The tracer counts `len(args[0].forecasts)` and `len(result[1])` of a
    # training episode, which records nothing, and `len(result)` of an
    # online revision: one `DayRecord` per streamed day.
    cycle = CycleData([10.0, 20.0], [11.0, 19.0])
    table = init_state_values(30.0, cycle.forecasts)
    cfg = AgentConfig(tolerance=1.0)
    result = agent.run_episode(cycle, table, cfg, iter(rng_for(0, "t").random, None))
    assert result == (table, ()) and result[0] is table
    for stream in ([], [11.0], cycle.actuals):
        records = agent.reconcile_online(table, cycle.forecasts, stream, cfg, rng_for(0, "o"))
        assert type(records) is tuple and len(records) == len(stream)
        assert all(type(rec) is agent.DayRecord for rec in records)


def run_fresh(*args, check=False):
    """``python *args`` in a fresh interpreter that imports this checkout's
    package. It keeps the caller's PYTHONDONTWRITEBYTECODE, so that a run
    with it set writes no bytecode, and a child that hangs fails its test."""
    env = {"PYTHONPATH": str(Path(dtreconcile.__file__).parents[1])}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=check, env=env, timeout=120)


# Run in a fresh interpreter with the config, the snapshot and an output
# directory as arguments; prints the exit codes and the modules loaded.
DAILY_VERBS_SCRIPT = """
import contextlib, io, json, sys
from dtreconcile import cli

def loaded(names=("dtreconcile.hierarchy", "dtreconcile.baselines",
                  "dataclasses", "inspect", "calendar", "argparse", "gettext")):
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
report["after_run"] = [name for name in ("dataclasses", "calendar", "argparse", "gettext")
                       if name in sys.modules]
print(json.dumps(report))
"""


def test_cli_import_loads_no_hierarchy_code(tmp_path, daily_csv):
    # `validate-data` and `reconcile` load neither numpy nor the baselines:
    # a top-level `import numpy` anywhere on their path fails here. `run`
    # imports numpy inside training and still succeeds. No verb loads
    # `dataclasses`, `calendar`, `argparse` or `gettext`, and the daily
    # verbs not `inspect`: each costs start-up that every fresh process pays.
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "trained")
    assert main(["run", "--config", str(cfg_path)]) == 0
    result = run_fresh("-c", DAILY_VERBS_SCRIPT, str(cfg_path),
                       str(tmp_path / "trained" / "qtable.txt"), str(tmp_path / "daily_out"),
                       check=True)
    report = json.loads(result.stdout)
    assert report == {"import": [], "daily": [0, 0], "after_daily": [], "run": 0,
                      "after_run": []}, result.stderr
    assert (tmp_path / "daily_out" / "metrics.csv").exists()
    # The module graph: the command line loads exactly these modules, the
    # agent and the metrics never load the forecasters, and the forecasters
    # load nothing of the package but its errors.
    for modules, expected in (
        ("cli", {"agent", "cli", "data", "errors", "evaluation", "forecasting", "seeding",
                 "totals"}),
        ("agent, evaluation",
         {"agent", "errors", "evaluation", "seeding", "totals"}),
        ("forecasting", {"errors", "forecasting"}),
    ):
        result = run_fresh("-c", f"import sys\nfrom dtreconcile import {modules}\n"
                           "print(' '.join(n for n in sys.modules "
                           "if n.startswith('dtreconcile.')))", check=True)
        assert {name.split(".")[1] for name in result.stdout.split()} == expected, modules


def test_no_module_of_the_package_has_a_global_statement():
    # State lives in objects the caller passes, such as `agent.History`, not
    # in module globals that one call leaves behind for the next.
    package = Path(dtreconcile.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []


def test_module_entry_point_exits_with_the_documented_code(tmp_path, daily_csv, capsys):
    # `python -m dtreconcile.cli` in a fresh process: `sys.exit(main())`
    # hands the shell 0, 2 for bad data and 1 for bad config, never a
    # traceback. A usage error is a config error, not argparse's exit 2.
    cfg_path = write_config(tmp_path, daily_csv, tmp_path / "out")
    rows = [line.split(",") for line in daily_csv.read_text().splitlines()]
    rows[4][1] = "abc"  # the Open value on line 5
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("".join(",".join(row) + "\n" for row in rows))
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
        result = run_fresh("-m", "dtreconcile.cli", *args)
        assert result.returncode == code, result.stderr
        assert message in result.stdout + result.stderr
        assert "Traceback" not in result.stderr
    # argparse reads these, imported by `_argparse` alone: pytest imports it
    # itself, so only a fresh interpreter runs that import. Writing to a pipe
    # with no COLUMNS set, argparse lays the help out for 80 columns.
    for args, expected in ((["run", "--help"], (0, HELP["run"], "")),
                           (["run", "--conf"], (1, "", "config error: dtreconcile run: "
                                                "argument --config: expected one argument\n"))):
        result = run_fresh("-m", "dtreconcile.cli", *args)
        assert (result.returncode, result.stdout, result.stderr) == expected, args
    # In process, `main` returns the code rather than raising SystemExit.
    for args, message in ((["run", "--bogus"], "unrecognized arguments: --bogus"),
                          ([], "the following arguments are required: verb"),
                          (["reconcile", "--config", str(cfg_path)], "required: --qtable")):
        assert main(args) == 1
        assert message in capsys.readouterr().err


def test_a_warning_prints_as_one_line(tmp_path, daily_csv):
    # Without the source path and line of code Python's default format adds;
    # `main` puts the default format back when it returns.
    forecasts = tmp_path / "forecast.csv"
    forecasts.write_text("date,forecast\n" + "".join(
        f"2020-03-{day:02d},{value}\n" for day, value in enumerate(REFERENCE_FORECASTS, 1))
        + "monthly_total,1\n")
    argv = ["run", "--config", str(write_config(tmp_path, daily_csv, tmp_path / "out")),
            "--set", "forecaster=external", "--set", f"external_forecast_path={forecasts}"]
    result = run_fresh("-m", "dtreconcile.cli", *argv)
    assert (result.returncode, result.stderr) == (
        0, f"warning: monthly total 1.0 differs from sum of daily forecasts "
           f"{float(sum(REFERENCE_FORECASTS))} by more than 0.1%\n")
    formatwarning = warnings.formatwarning
    with pytest.warns(UserWarning, match="monthly total 1.0 differs"):
        assert main([*argv, "--set", f"output_dir={tmp_path / 'in_process'}"]) == 0
    assert warnings.formatwarning is formatwarning


def write_first_quarter(path, value):
    """Daily Date,Open rows 2020-01-01..2020-03-31, each ``value(day)`` as
    `repr` writes it."""
    path.write_text("Date,Open\n" + "".join(
        f"{date.fromordinal(day)},{value(date.fromordinal(day))!r}\n"
        for day in range(date(2020, 1, 1).toordinal(), date(2020, 4, 1).toordinal())))
    return path


def update_overflow(day):
    # A second training episode over the 1.5e308 days overflowed a TD update.
    return 1.5e308 if date(2020, 1, 10) <= day <= date(2020, 1, 20) else 100.0 + day.day


def running_overflow(day):
    # January sums to 0 pairwise, but its running sum passed 1.8e308.
    if day.month == 1:
        return 3e307 if day.day <= 8 else -3e307 if day.day <= 16 else 0.0
    return 100.0 + day.day


def unread_overflow(day):
    # Day 1's update of row 1 in February overflowed; no later day read it.
    if day.month == 1:
        return 1e300
    return 1.7976931348623157e308 if day == date(2020, 2, 1) else 100.0


@pytest.mark.parametrize("value, line, text", [
    (update_overflow, 11, "1.5e+308"),
    (running_overflow, 2, "3e+307"),
    (unread_overflow, 33, "1.7976931348623157e+308"),
], ids=["update_overflow", "running_overflow", "unread_overflow"])
def test_data_that_overflowed_training_is_refused_as_read(tmp_path, capsys, value, line, text):
    # Data that made a TD update overflow, whose first training month's
    # running sum overflowed the initial table, or that left an infinite Q
    # entry only the online walk would read: each holds a value past the
    # limit, so `run` and `grid` exit 2 naming its file and line before
    # anything is trained or written.
    data = write_first_quarter(tmp_path / "overflow.csv", value)
    out = tmp_path / "out"
    argv = ["--set", f"data_path={data}", "--set", "train_start=2020-01",
            "--set", "train_end=2020-02", "--set", "test_month=2020-03",
            "--set", f"output_dir={out}", "--set", "grid_tolerances=10%",
            "--set", "grid_epsilons=0.1"]
    for verb in ("run", "grid"):
        assert main([verb, *argv]) == 2, verb
        assert capsys.readouterr().err == (
            f"data error: {data}: line {line}: value {text!r} is not finite or exceeds 1e+300 "
            "in magnitude\n"), verb
        assert not out.exists(), verb


def test_a_snapshot_entry_past_the_agent_limit_is_a_data_error(tmp_path, daily_csv, capsys):
    # Rows alternating +-1.7e308, whose online updates used to overflow Q:
    # `reconcile` exits 2 naming the snapshot and the line, with nothing
    # written. Rows alternating +-AGENT_LIMIT revise, and it exits 0.
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, daily_csv, out)
    snapshots = {}
    for value in (1.7e308, 1e306):
        snapshots[value] = tmp_path / f"{value!r}.txt"
        snapshots[value].write_text("# config_hash=0 seed=0\n" + "".join(
            f"{t},{a},{(value if t % 2 else -value)!r}\n"
            for t in range(1, 32) for a in range(3)))
    assert main(["reconcile", "--config", str(cfg_path), "--qtable", str(snapshots[1.7e308])]) == 2
    assert capsys.readouterr().err == (
        f"data error: {snapshots[1.7e308]}:2: q value '1.7e+308' is not finite or exceeds "
        "1e+306 in magnitude\n")
    assert not out.exists()
    assert main(["reconcile", "--config", str(cfg_path), "--qtable", str(snapshots[1e306])]) == 0
    assert capsys.readouterr().err == "" and (out / "metrics.csv").exists()


# Calls a verb three times in one interpreter, with the verb, the output
# directory and the verb's --set arguments as arguments; prints each call's
# exit code and count of step-size warning lines.
REPEATED_RUN_SCRIPT = """
import contextlib, io, sys
from dtreconcile.cli import main
verb, out = sys.argv[1:3]
for call in range(3):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([verb, *sys.argv[3:], "--set", f"output_dir={out}/{call}"])
    print(code, err.getvalue().count("warning: step size"))
"""


def test_each_call_prints_its_warnings(tmp_path):
    # Python shows a warning once per location and process; `main` resets
    # that record, so a second call prints its step-size warning too. Pytest
    # records warnings rather than printing them, hence a fresh interpreter.
    # Every `grid` cell trains with the same step size on the same data, so
    # a call prints the warning once, not once per cell.
    # Values at the limit on 2020-01-10..20: the step size times that reward
    # dwarfs the initial values, so training warns.
    data = write_first_quarter(tmp_path / "spiky.csv", lambda day: (
        1e300 if date(2020, 1, 10) <= day <= date(2020, 1, 20) else 100.0 + day.day))
    for verb, cells in (("run", []), ("grid", ["--set", "grid_tolerances=10%,20%",
                                               "--set", "grid_epsilons=0.05,0.1"])):
        result = run_fresh("-c", REPEATED_RUN_SCRIPT, verb, str(tmp_path / verb),
                           "--set", f"data_path={data}", "--set", "train_start=2020-01",
                           "--set", "train_end=2020-02", "--set", "test_month=2020-03",
                           "--set", "episodes=1", *cells, check=True)
        assert result.stdout.splitlines() == ["0 1"] * 3, (verb, result.stderr)


def test_the_readme_example_runs(tmp_path, daily_csv, monkeypatch, capsys):
    # The README's config file and its four commands, as written but for
    # the data and output paths, so that a renamed key or verb fails here.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```ini\n# run.cfg\n", 1)[1].split("```", 1)[0]
    paths = {"data_path": daily_csv, "output_dir": tmp_path / "out"}
    lines = [f"{key} = {paths[key]}" if (key := line.partition("=")[0].strip()) in paths
             else line for line in example.splitlines()]
    assert len(set(lines) - set(example.splitlines())) == len(paths)
    (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n")
    commands = [shlex.split(line)[1:] for line in readme.splitlines()
                if line.startswith("dtreconcile ")]
    assert [argv[0] for argv in commands] == ["run", "grid", "reconcile", "validate-data"]
    monkeypatch.chdir(tmp_path)  # where the commands' relative paths lead
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


VERB_OPTIONS_HELP = """
options:
  -h, --help       show this help message and exit
  --config CONFIG  flat key=value config file
  --set KEY=VALUE  override a config key (repeatable; wins over the file)
"""
HELP = {
    "": """usage: dtreconcile [-h] {run,grid,reconcile,validate-data} ...

Revise a monthly forecast from streaming daily actuals

positional arguments:
  {run,grid,reconcile,validate-data}
  options               the verb's options

options:
  -h, --help            show this help message and exit
""",
    "run": "usage: dtreconcile run [-h] [--config CONFIG] [--set KEY=VALUE]\n"
           + VERB_OPTIONS_HELP,
    "grid": "usage: dtreconcile grid [-h] [--config CONFIG] [--set KEY=VALUE]\n"
            + VERB_OPTIONS_HELP,
    "reconcile": "usage: dtreconcile reconcile [-h] [--config CONFIG] [--set KEY=VALUE] --qtable\n"
                 "                             QTABLE\n" + VERB_OPTIONS_HELP
                 + "  --qtable QTABLE  Q-table snapshot to load\n",
    "validate-data": "usage: dtreconcile validate-data [-h] [--config CONFIG] [--set KEY=VALUE]\n"
                     + VERB_OPTIONS_HELP,
}
CHOICES = "(choose from 'run', 'grid', 'reconcile', 'validate-data')"
# argv -> ("parsed", (verb, config, sets, qtable)), ("help", stdout text,
# exit 0) or ("error", the `config error: ` line, exit 1). The help texts
# are argparse's at 80 columns.
COMMAND_LINES = (
    (["run", "--config=a.cfg"], "parsed", ("run", "a.cfg", [], None)),
    (["run", "--conf", "a.cfg"], "parsed", ("run", "a.cfg", [], None)),
    (["run", "--se", "seed=3"], "parsed", ("run", None, ["seed=3"], None)),
    (["grid", "--set", "a=1", "--config", "a.cfg", "--set", "b=2"], "parsed",
     ("grid", "a.cfg", ["a=1", "b=2"], None)),
    (["validate-data", "--c=a.cfg", "--s=k=v", "--set="], "parsed",
     ("validate-data", "a.cfg", ["k=v", ""], None)),
    (["reconcile", "--q", "q.txt", "--config", "a.cfg"], "parsed",
     ("reconcile", "a.cfg", [], "q.txt")),
    (["reconcile", "--qtable=q.txt", "--qtable", "r.txt", "--config", "a", "--config", "b"],
     "parsed", ("reconcile", "b", [], "r.txt")),
    (["run", "--config", "-5", "--set", "-x y"], "parsed", ("run", "-5", ["-x y"], None)),
    (["run", "--", "--config", "a.cfg"], "parsed", ("run", "a.cfg", [], None)),
    (["--", "run", "--config", "a.cfg"], "parsed", ("run", "a.cfg", [], None)),
    (["run", "--config"], "error", "dtreconcile run: argument --config: expected one argument"),
    (["run", "--set", "--config", "a.cfg"], "error",
     "dtreconcile run: argument --set: expected one argument"),
    (["run", "--config", "--", "a.cfg"], "error",
     "dtreconcile run: argument --config: expected one argument"),
    (["reconcile", "--qtable"], "error",
     "dtreconcile reconcile: argument --qtable: expected one argument"),
    (["run", "--bogus", "-h"], "help", HELP["run"]),
    (["run", "--config", "a.cfg", "--", "x"], "error",
     "dtreconcile run: unrecognized arguments: -- x"),
    (["run", "x", "--config", "a.cfg", "-c", "y"], "error",
     "dtreconcile run: unrecognized arguments: x -c y"),
    (["grid", "--qtable", "q"], "error", "dtreconcile grid: unrecognized arguments: --qtable q"),
    (["reconcile"], "error",
     "dtreconcile reconcile: the following arguments are required: --qtable"),
    (["reconcile", "--bogus", "--config", "a.cfg"], "error",
     "dtreconcile reconcile: the following arguments are required: --qtable"),
    (["run", "-h", "--=x"], "error",
     "dtreconcile run: ambiguous option: --=x could match --help, --config, --set"),
    (["run", "--help=x"], "error",
     "dtreconcile run: argument -h/--help: ignored explicit argument 'x'"),
    (["run", "-hhx"], "error",
     "dtreconcile run: argument -h/--help: ignored explicit argument 'x'"),
    ([], "error", "dtreconcile: the following arguments are required: verb"),
    (["bogus"], "error", f"dtreconcile: argument verb: invalid choice: 'bogus' {CHOICES}"),
    (["bogus", "-h"], "error", f"dtreconcile: argument verb: invalid choice: 'bogus' {CHOICES}"),
    (["--config", "a.cfg", "run"], "error",
     f"dtreconcile: argument verb: invalid choice: 'a.cfg' {CHOICES}"),
    (["--version", "run"], "error", "dtreconcile: unrecognized arguments: --version"),
    (["--version"], "error", "dtreconcile: the following arguments are required: verb"),
    (["--help"], "help", HELP[""]),
    (["-h", "bogus"], "help", HELP[""]),
    (["--he", "run"], "help", HELP[""]),
    (["run", "--help"], "help", HELP["run"]),
    (["grid", "--h"], "help", HELP["grid"]),
    (["reconcile", "--help"], "help", HELP["reconcile"]),
    (["validate-data", "--config", "a.cfg", "-hh"], "help", HELP["validate-data"]),
)


def test_command_line_forms_keep_their_meaning(capsys, monkeypatch):
    # The forms argparse accepts, its usage errors and its help, whether
    # the scan or argparse reads the line.
    monkeypatch.setenv("COLUMNS", "80")
    for argv, kind, expected in COMMAND_LINES:
        if kind == "parsed":
            args = cli._parse_args(argv)
            parsed = (args.verb, args.config, list(args.set), getattr(args, "qtable", None))
            assert parsed == expected, argv
            assert capsys.readouterr() == ("", ""), argv
        elif kind == "help":
            with pytest.raises(SystemExit) as stop:
                main(argv)
            assert stop.value.code == 0, argv
            assert capsys.readouterr() == (expected, ""), argv
        else:
            assert main(argv) == 1, argv
            assert capsys.readouterr() == ("", f"config error: {expected}\n"), argv


# A value the scan reads: any text, empty or holding `=`, but one that
# starts with `-`.
SCANNED_VALUE = st.text(alphabet="ab=.% /-", max_size=6).filter(lambda v: not v.startswith("-"))


@st.composite
def canonical_command_lines(draw):
    """The verb, then its options written in full, in any order and any
    number, each value after `=` or as the next argument."""
    verb = draw(st.sampled_from(cli._VERBS))
    names = ["--config", "--set"] + ["--qtable"] * (verb == "reconcile")
    options = draw(st.lists(st.tuples(st.sampled_from(names), SCANNED_VALUE, st.booleans()),
                            max_size=6))
    if verb == "reconcile":  # required there
        options.insert(draw(st.integers(0, len(options))),
                       ("--qtable", draw(SCANNED_VALUE), draw(st.booleans())))
    argv = [verb]
    for name, value, attached in options:
        argv += [f"{name}={value}"] if attached else [name, value]
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=canonical_command_lines())
def test_the_scan_reads_a_canonical_line_as_argparse_does(argv):
    with mock.patch.object(cli, "_argparse", wraps=cli._argparse) as spy:
        scanned = cli._parse_args(argv)
    assert spy.call_count == 0, argv
    assert scanned == cli._argparse(argv), argv


def test_argparse_reads_every_other_line():
    for argv, expected in (
        (["run", "--config", "-5"], ("run", "-5", [], None)),
        (["run", "--set=-x"], ("run", None, ["-x"], None)),
        (["run", "--conf", "a.cfg"], ("run", "a.cfg", [], None)),
        (["reconcile", "--q=q.txt"], ("reconcile", None, [], "q.txt")),
        (["run", "--", "--config", "a.cfg"], ("run", "a.cfg", [], None)),
        # Python 3.11's argparse reads this value as [], which `_argparse` undoes.
        (["reconcile", "--conf=--", "--se=--", "--qt=--"], ("reconcile", "--", ["--"], "--")),
    ):
        with mock.patch.object(cli, "_argparse", wraps=cli._argparse) as spy:
            assert cli._parse_args(argv) == expected, argv
        assert spy.call_count == 1, argv


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
