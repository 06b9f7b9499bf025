"""The magnitude limits: every entry point refuses a number past its limit,
and within the limits no Q entry, V entry or RMF overflows."""

import math
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtreconcile import data
from dtreconcile.agent import (
    MAX_CYCLE_DAYS,
    AgentConfig,
    CycleData,
    ValueTable,
    init_state_values,
    load_table,
    reconcile_online,
    save_table,
    train,
)
from dtreconcile.cli import main
from dtreconcile.data import Calendar, TimeSeries, days_in_month, month_partition
from dtreconcile.errors import AGENT_LIMIT, LIMIT, DataError
from dtreconcile.forecasting import forecast_month
from dtreconcile.seeding import rng_for
from dtreconcile.totals import pairwise_sum

KINDS = ("past", "inf", "-inf", "nan")


def bad(kind, limit):
    """A value just past ``limit``, or an infinity or NaN."""
    return math.nextafter(limit, math.inf) if kind == "past" else float(kind)


def assert_refused(load, path, line, text):
    """``load()`` raises a `DataError` naming ``path``, ``line`` and ``text``."""
    with pytest.raises(DataError) as info:
        load()
    assert str(info.value) == (f"{path}: line {line}: value {text!r} is not finite or exceeds "
                               "1e+300 in magnitude")


def row_reader(tmp_path, kind):
    # DD/MM/YY dates are read row by row.
    text = repr(bad(kind, LIMIT))
    path = tmp_path / "daily.csv"
    path.write_text(f"Date,Open\n01/01/20,1\n02/01/20,{text}\n03/01/20,1\n")
    assert_refused(lambda: data.load_ohlcv_csv(path), path, 3, text)


def column_pass(tmp_path, kind):
    # The value is not first, so `min` and `max` alone would pass a NaN. The
    # pass takes a value at the limit and leaves one past it to the row reader.
    path = tmp_path / "daily.csv"
    for text in (repr(LIMIT), repr(bad(kind, LIMIT))):
        path.write_text(f"Date,Open\n2020-01-01,1\n2020-01-02,{text}\n2020-01-03,1\n")
        columns = data._sorted_iso_columns(path, "Date", "Open")
        assert (columns is not None) == (text == repr(LIMIT)), text
    assert_refused(lambda: data.load_ohlcv_csv(path), path, 3, text)


def time_series(tmp_path, kind):
    # Past the limit, such values used to overflow their gap's interpolation.
    with pytest.raises(ValueError,
                       match=r"^time series values must be at most 1e\+300 in magnitude$"):
        TimeSeries((date(2020, 1, 1), date(2020, 1, 4)), (0.0, bad(kind, LIMIT)))


def forecast_file(tmp_path, daily, total):
    path = tmp_path / "forecast.csv"
    path.write_text("date,forecast\n" + "".join(
        f"2020-03-{day:02d},{daily if day == 5 else 1.0}\n" for day in range(1, 32))
        + f"monthly_total,{total}\n")
    return path, lambda: data.load_external_forecasts(
        path, Calendar(date(2020, 3, 1), (1.0,) * 31))


def forecast_row(tmp_path, kind):
    text = repr(bad(kind, LIMIT))
    path, load = forecast_file(tmp_path, text, 31.0)
    assert_refused(load, path, 6, text)


def monthly_total_row(tmp_path, kind):
    text = repr(bad(kind, LIMIT))
    path, load = forecast_file(tmp_path, 1.0, text)
    assert_refused(load, path, 33, text)


def snapshot_line(tmp_path, kind):
    text = repr(bad(kind, AGENT_LIMIT))
    path = tmp_path / "qtable.txt"
    save_table(init_state_values(3.0, [1.0] * 3), path, AgentConfig(tolerance=1.0))
    lines = path.read_text().splitlines()
    lines[4] = f"2,0,{text}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as info:
        load_table(path)
    assert str(info.value) == (f"{path}:5: q value {text!r} is not finite or exceeds 1e+306 "
                               "in magnitude")


def agent_message(what):
    return f"^{what} must be finite and at most 1e\\+306 in magnitude$"


def agent_entry(build, what):
    """An entry that raises `ValueError` naming ``what`` for ``build(value)``."""
    def entry(tmp_path, kind):
        with pytest.raises(ValueError, match=agent_message(what)):
            build(bad(kind, AGENT_LIMIT))
    return entry


def online_stream(tmp_path, kind):
    actuals = iter([1.0, bad(kind, AGENT_LIMIT), 5.0])
    with pytest.raises(ValueError, match=agent_message("streamed actuals")):
        reconcile_online(init_state_values(3.0, [1.0] * 3), [1.0] * 3, actuals,
                         AgentConfig(tolerance=1.0), rng_for(0, "online"))
    assert next(actuals) == 5.0  # checked as read: no further than the value past the limit


ENTRIES = {
    "row_reader": row_reader,
    "column_pass": column_pass,
    "time_series": time_series,
    "forecast_row": forecast_row,
    "monthly_total_row": monthly_total_row,
    "snapshot_line": snapshot_line,
    "cycle_actuals": agent_entry(lambda x: CycleData([1.0] * 3, [1.0, x, 1.0], 3.0),
                                 "forecasts, actuals and monthly total"),
    "value_table": agent_entry(
        lambda x: ValueTable([[0.0] * 3] * 5 + [[0.0, x, 0.0]] + [[0.0] * 3] * 25, [0.0] * 31),
        "value table entries"),
    "init_state_values": agent_entry(lambda x: init_state_values(3.0, [1.0, x]),
                                     "monthly total and forecasts"),
    "online_stream": online_stream,
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_every_entry_refuses_a_number_past_its_limit(tmp_path, entry, kind):
    entry(tmp_path, kind)


def limit_argv(path, even):
    """Daily data from 2019-12 through 2020-03 at `LIMIT` on odd days and
    ``even`` on even ones, and the --set arguments that read it."""
    days = map(date.fromordinal, range(date(2019, 12, 1).toordinal(),
                                       date(2020, 4, 1).toordinal()))
    path.write_text("Date,Open\n" + "".join(
        f"{day},{(LIMIT if day.day % 2 else even)!r}\n" for day in days))
    return ["--set", f"data_path={path}", "--set", "train_start=2019-12",
            "--set", "train_end=2020-02", "--set", "test_month=2020-03"]


def test_run_then_reconcile_on_data_at_the_limit(tmp_path, capsys):
    # Values alternating +-LIMIT: each forecaster's `run` trains and writes a
    # snapshot that `reconcile` loads and revises, and so does the next.
    data_argv = limit_argv(tmp_path / "limit.csv", -LIMIT)
    for forecaster in ("naive", "seasonal_naive", "drift"):
        argv = [*data_argv, "--set", f"forecaster={forecaster}", "--set", "episodes=3"]
        runs = [tmp_path / forecaster / str(k) for k in range(3)]
        assert main(["run", *argv, "--set", f"output_dir={runs[0]}"]) == 0, forecaster
        for before, after in zip(runs, runs[1:]):
            assert main(["reconcile", "--qtable", str(before / "qtable.txt"), *argv,
                         "--set", f"output_dir={after}"]) == 0, forecaster
        assert capsys.readouterr().err == "", forecaster


def test_reconcile_writes_no_snapshot_it_could_not_load(tmp_path, capsys):
    # From a snapshot at AGENT_LIMIT, each update on data at LIMIT moves its
    # entry past the limit: `reconcile` exits 2 naming the snapshot, with no
    # file written, where it would write a snapshot `load_table` refuses.
    snapshot = tmp_path / "snapshot.txt"
    save_table(ValueTable([[AGENT_LIMIT] * 3] * MAX_CYCLE_DAYS, [AGENT_LIMIT] * MAX_CYCLE_DAYS),
               snapshot, AgentConfig(tolerance=1.0))
    out = tmp_path / "out"
    argv = limit_argv(tmp_path / "limit.csv", LIMIT)
    assert main(["reconcile", "--qtable", str(snapshot), *argv,
                 "--set", f"output_dir={out}"]) == 2
    assert capsys.readouterr().err == (
        f"data error: {snapshot}: revising 2020-03: saved q values must be finite and at most "
        "1e+306 in magnitude\n")
    assert list(out.iterdir()) == []


def assert_within(table, records, base, reward):
    """Every Q and V entry and RMF is finite, and each day's entries are
    within ``base + (32 - t) * reward``, the set a TD update keeps them in."""
    assert all(math.isfinite(record.rmf) for record in records)
    for t, (row, v) in enumerate(zip(table.q, table.v), start=1):
        bound = (base + (MAX_CYCLE_DAYS + 1 - t) * reward) * (1 + 1e-9)  # rounding
        assert all(math.isfinite(x) and abs(x) <= bound for x in (*row, v)), (t, row, v)


def walks(table, test, cfg, base, reward, directory):
    """Reconcile, save, load and reconcile again, three times, checking the
    bound after each walk. A save refuses, writing nothing, a table that a
    walk raised past `AGENT_LIMIT`; the next walk then starts from the table
    in memory. Every snapshot written loads back."""
    path = directory / "qtable.txt"
    for k in range(3):
        records = reconcile_online(table, test.forecasts, test.actuals, cfg,
                                   rng_for(cfg.seed + k, "online"))
        assert_within(table, records, base, reward)
        path.unlink(missing_ok=True)
        if max(abs(x) for row in table.q for x in row) <= AGENT_LIMIT:
            save_table(table, path, cfg)
            loaded = load_table(path)
            assert loaded.q == table.q
            table = loaded
        else:
            with pytest.raises(ValueError, match=agent_message("saved q values")):
                save_table(table, path, cfg)
            assert not path.exists()


LEVELS = st.one_of(st.sampled_from([LIMIT, -LIMIT, 0.0]), st.floats(-LIMIT, LIMIT))
MONTHS = ("2020-01", "2020-02", "2020-03", "2020-04")


@pytest.mark.filterwarnings("ignore:step size")  # data at the limit dwarf the initial values
@settings(max_examples=15, deadline=None)
@given(st.lists(LEVELS, min_size=1, max_size=6), st.integers(2, 4),
       st.sampled_from(["naive", "seasonal_naive", "drift"]),
       st.one_of(st.just(1.0), st.floats(1e-3, 1.0)), st.sampled_from([0.0, 0.5, 1.0]),
       st.integers(1, 4), st.lists(st.booleans(), min_size=93, max_size=93))
@example([LIMIT], 4, "drift", 1.0, 1.0, 4, [True] * 93)
@example([-LIMIT], 3, "naive", 1.0, 1.0, 3, [False] * 93)
@example([LIMIT, -LIMIT], 4, "seasonal_naive", 1.0, 0.0, 2, [True, False] * 46 + [True])
@example([-LIMIT, LIMIT, LIMIT], 2, "drift", 1e-3, 1.0, 1, [False, True] * 46 + [False])
def test_no_entry_overflows_within_the_limits(pattern, n_months, forecaster, alpha, gamma,
                                              episodes, signs):
    """Data within `LIMIT` trains a table within the invariant bound, and
    chained online walks from it, or from a snapshot at +-`AGENT_LIMIT`,
    stay within it too. Each `CycleData` is built with its checks, so the
    forecasts and totals of such data are within `AGENT_LIMIT`."""
    n_days = sum(days_in_month(2020, month) for month in range(1, n_months + 1))
    calendar = Calendar(date(2020, 1, 1), tuple(pattern[k % len(pattern)] for k in range(n_days)))
    cycles = []
    for month in month_partition(calendar, (MONTHS[0], MONTHS[n_months - 1])):
        daily = forecast_month(calendar, month, forecaster, 7)
        cycles.append(CycleData(daily, month.values, pairwise_sum(daily)))
    *history, test = cycles
    cfg = AgentConfig(tolerance=max(abs(test.monthly_total) * 0.2, 1.0), exploration=0.3,
                      step_size=alpha, discount=gamma, episodes=episodes)
    initial = init_state_values(history[0].monthly_total, history[0].forecasts)
    base = max(abs(x) for x in initial.v)
    reward = max(abs(x) for cycle in cycles for x in cycle.actuals)
    table = train(history, cfg)
    assert_within(table, (), base, reward)
    with tempfile.TemporaryDirectory() as tmp:
        walks(table, test, cfg, base, reward, Path(tmp))
        # A snapshot of +-AGENT_LIMIT entries, as `load_table` reads it.
        path = Path(tmp) / "snapshot.txt"
        save_table(ValueTable([[AGENT_LIMIT if sign else -AGENT_LIMIT for sign in signs[t:t + 3]]
                               for t in range(0, 93, 3)], [0.0] * 31), path, cfg)
        walks(load_table(path), test, cfg, AGENT_LIMIT, reward, Path(tmp))
