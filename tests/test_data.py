"""Tests for CSV ingestion, calendar fill, and month partitioning."""

from datetime import date

import numpy as np
import pytest

from dtreconcile.data import (
    TimeSeries,
    fill_calendar,
    iter_months,
    load_ohlcv_csv,
    month_partition,
)
from dtreconcile.errors import DataError

from conftest import write_daily_csv


def write_rows(path, rows, header="Date,Open"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def test_load_iso_and_dd_mm_yy_dates(tmp_path):
    path = tmp_path / "mix.csv"
    write_rows(path, ["2020-02-28,100.5", "01/03/20,11386"])
    series = load_ohlcv_csv(path, "Date", "Open")
    assert series.timestamps == (date(2020, 2, 28), date(2020, 3, 1))
    assert series.values[1] == 11386.0


def test_load_sorts_shuffled_rows(tmp_path):
    path = tmp_path / "shuffled.csv"
    write_rows(path, ["2020-01-03,3", "2020-01-01,1", "2020-01-02,2"])
    series = load_ohlcv_csv(path, "Date", "Open")
    assert list(series.values) == [1.0, 2.0, 3.0]


def test_load_missing_column(tmp_path):
    path = tmp_path / "cols.csv"
    write_rows(path, ["2020-01-01,1"], header="Date,Close")
    with pytest.raises(DataError, match="Open"):
        load_ohlcv_csv(path, "Date", "Open")


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError):
        load_ohlcv_csv(path)


def test_load_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, ["2020-01-01,1", "not-a-date,2"])
    with pytest.raises(DataError, match="line 3"):
        load_ohlcv_csv(path, "Date", "Open")
    write_rows(path, ["2020-01-01,abc"])
    with pytest.raises(DataError, match="line 2"):
        load_ohlcv_csv(path, "Date", "Open")


def test_load_duplicate_date(tmp_path):
    path = tmp_path / "dup.csv"
    write_rows(path, ["2020-01-01,1", "2020-01-01,2"])
    with pytest.raises(DataError, match="duplicate"):
        load_ohlcv_csv(path, "Date", "Open")


def test_load_missing_file():
    with pytest.raises(DataError):
        load_ohlcv_csv("/nonexistent/file.csv")


def test_fill_calendar_weekend_interpolation():
    # Friday 100, Monday 106 with the weekend missing
    series = TimeSeries(
        (date(2020, 3, 6), date(2020, 3, 9)), np.array([100.0, 106.0])
    )
    filled = fill_calendar(series)
    assert len(filled) == 4
    assert list(filled.values) == [100.0, 102.0, 104.0, 106.0]


def test_fill_calendar_identity_when_complete():
    series = TimeSeries(
        (date(2020, 1, 1), date(2020, 1, 2)), np.array([1.0, 2.0])
    )
    assert fill_calendar(series) is series


def test_fill_calendar_single_gap_midpoint():
    series = TimeSeries(
        (date(2020, 1, 1), date(2020, 1, 3)), np.array([10.0, 20.0])
    )
    assert list(fill_calendar(series).values) == [10.0, 15.0, 20.0]


def _calendar_series(start, end, value=100.0):
    days = []
    day = start
    while day <= end:
        days.append(day)
        day = date.fromordinal(day.toordinal() + 1)
    return TimeSeries(tuple(days), np.full(len(days), value))


def test_month_partition_counts_and_lengths():
    series = _calendar_series(date(2019, 1, 1), date(2020, 3, 31))
    months = month_partition(series, ("2019-01", "2020-02"))
    assert len(months) == 14
    march = month_partition(series, ("2020-03", "2020-03"))
    assert len(march) == 1 and len(march[0]) == 31
    feb = month_partition(series, ("2020-02", "2020-02"))
    assert len(feb[0]) == 29  # leap year


def test_month_partition_incomplete_month_names_it():
    series = _calendar_series(date(2020, 1, 5), date(2020, 2, 29))
    with pytest.raises(DataError, match="2020-01"):
        month_partition(series, ("2020-01", "2020-02"))


def test_month_partition_round_trip():
    series = _calendar_series(date(2019, 11, 1), date(2020, 1, 31), value=7.0)
    months = month_partition(series, ("2019-11", "2020-01"))
    dates = [d for m in months for d in m.dates]
    values = np.concatenate([m.values for m in months])
    assert tuple(dates) == series.timestamps
    assert np.array_equal(values, series.values)


def test_iter_months():
    assert list(iter_months("2019-11", "2020-02")) == [
        "2019-11", "2019-12", "2020-01", "2020-02",
    ]
    with pytest.raises(DataError):
        list(iter_months("2020-03", "2020-01"))
    with pytest.raises(DataError):
        list(iter_months("2020/01", "2020-02"))


def test_load_fill_partition_pipeline(tmp_path):
    path = tmp_path / "daily.csv"
    # end on a Monday so interpolation can cover the final weekend
    write_daily_csv(path, date(2019, 12, 28), date(2020, 3, 2),
                    lambda d: 100.0 + d.toordinal() % 10)
    series = load_ohlcv_csv(path)
    filled = fill_calendar(series)
    months = month_partition(filled, ("2020-01", "2020-02"))
    assert [len(m) for m in months] == [31, 29]
