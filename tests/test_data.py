"""Tests for CSV ingestion, calendar fill, and month partitioning."""

import calendar
import csv
import re
import warnings
from datetime import date

import numpy as np
import pytest

from dtreconcile import data
from dtreconcile.data import (
    MonthlyActuals,
    TimeSeries,
    fill_calendar,
    load_external_forecasts,
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


def test_sorted_iso_file_skips_the_row_reader(tmp_path, monkeypatch):
    # The speed of ingest rests on the column-wise pass; a loader that
    # sent every file to the row reader would pass every other test.
    class RowReaderCalled(Exception):
        pass

    def row_reader(*args):
        raise RowReaderCalled

    monkeypatch.setattr(data, "_dated_values", row_reader)
    iso = tmp_path / "iso.csv"
    write_daily_csv(iso, date(2019, 12, 2), date(2020, 3, 31), lambda d: 100.0 + d.day)
    # The benchmark's six columns, with the CRLF line ends of `csv.writer`.
    assert iso.read_bytes().startswith(b"Date,Open,High,Low,Close,Volume\r\n")
    series = load_ohlcv_csv(iso)
    assert series.timestamps[0] == date(2019, 12, 2) and series.values[0] == 102.0
    # LF line ends, and empty lines, which the row reader skips, keep a
    # file on the pass.
    iso.write_text(iso.read_text().replace("\n", "\n\n", 3) + "\n")
    assert b"\r" not in iso.read_bytes()
    assert load_ohlcv_csv(iso) == series
    dmy = tmp_path / "dmy.csv"
    write_daily_csv(dmy, date(2019, 12, 2), date(2020, 3, 31), lambda d: 100.0 + d.day,
                    date_format="%d/%m/%y")
    with pytest.raises(RowReaderCalled):
        load_ohlcv_csv(dmy)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 16, 1 << 13])
def test_column_pass_reads_a_file_in_any_chunks(tmp_path, monkeypatch, chunk):
    # A line, a CRLF pair or a run of empty lines split across chunks
    # reads as in one chunk; so does a line at the csv field size limit,
    # and one past it is given up, whether or not it spans chunks.
    monkeypatch.setattr(data, "_CHUNK_CHARS", chunk)
    path = tmp_path / "chunks.csv"
    rows = ["2020-01-01,1.5,9", "2020-01-02,2.5,9", "2020-01-03,3,999"]
    path.write_bytes(("\r\n\r\nDate,Open,Close\r\n" + "\r\n\n".join(rows)).encode())
    expected = TimeSeries((date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3)),
                          (1.5, 2.5, 3.0))
    limit = csv.field_size_limit(len(rows[-1]))
    try:
        assert data._sorted_iso_columns(path, "Date", "Open") == expected
        path.write_bytes(path.read_bytes() + b"9")
        assert data._sorted_iso_columns(path, "Date", "Open") is None
    finally:
        csv.field_size_limit(limit)


def test_descending_file_leaves_the_column_pass_before_a_series_is_built(
        tmp_path, monkeypatch):
    # A file out of order is given up in the block that shows it, so the
    # only series built is the row reader's.
    built = []

    class CountingSeries(TimeSeries):
        def __init__(self, timestamps, values):
            built.append(len(timestamps))
            super().__init__(timestamps, values)

    monkeypatch.setattr(data, "TimeSeries", CountingSeries)
    path = tmp_path / "descending.csv"
    write_daily_csv(path, date(2017, 1, 2), date(2020, 3, 31), lambda d: 100.0 + d.day)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *reversed(rows)]) + "\n")
    series = load_ohlcv_csv(path)
    assert built == [len(rows)] and series.timestamps[0] == date(2017, 1, 2)


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


def test_days_in_month_equals_calendar():
    months = [(year, month) for year in range(date.min.year, date.max.year + 1)
              for month in range(1, 13)]
    assert ([data._days_in_month(*ym) for ym in months]
            == [calendar.monthrange(*ym)[1] for ym in months])


def test_last_representable_month_partitions():
    # December's length must not need the first day of year 10000.
    days = [date.fromordinal(n) for n in range(date(9999, 11, 20).toordinal(),
                                                date.max.toordinal() + 1)]
    series = TimeSeries(days, [100.0] * len(days))
    (december,) = month_partition(series, ("9999-12", "9999-12"))
    assert december.label == "9999-12" and len(december) == 31
    assert december.dates[-1] == date.max


def test_month_partition_incomplete_month_names_it():
    series = _calendar_series(date(2020, 1, 5), date(2020, 2, 29))
    with pytest.raises(DataError, match="2020-01"):
        month_partition(series, ("2020-01", "2020-02"))
    # A reversed range and a bad label name themselves too.
    for month_range, message in (
        (("2020-02", "2020-01"), "month range 2020-02..2020-01 is reversed"),
        (("2020/01", "2020-02"), "bad month label '2020/01'"),
    ):
        with pytest.raises(DataError, match=re.escape(message)):
            month_partition(series, month_range)


def test_month_partition_round_trip():
    series = _calendar_series(date(2019, 11, 1), date(2020, 1, 31), value=7.0)
    months = month_partition(series, ("2019-11", "2020-01"))
    dates = [d for m in months for d in m.dates]
    values = np.concatenate([m.values for m in months])
    assert tuple(dates) == series.timestamps
    assert np.array_equal(values, series.values)


def test_load_fill_partition_pipeline(tmp_path):
    path = tmp_path / "daily.csv"
    # end on a Monday so interpolation can cover the final weekend
    write_daily_csv(path, date(2019, 12, 28), date(2020, 3, 2),
                    lambda d: 100.0 + d.toordinal() % 10)
    series = load_ohlcv_csv(path)
    filled = fill_calendar(series)
    months = month_partition(filled, ("2020-01", "2020-02"))
    assert [len(m) for m in months] == [31, 29]


def _external_forecasts(tmp_path, total_row):
    """Load a February-2021 forecast file of 28 rows of 100 (sum 2800)
    followed by ``total_row``."""
    month = MonthlyActuals("2021-02", tuple(date(2021, 2, k) for k in range(1, 29)),
                           (1.0,) * 28)
    path = tmp_path / "forecast.csv"
    path.write_text("date,forecast\n" + "".join(f"{day.isoformat()},100\n" for day in month.dates)
                    + total_row)
    return load_external_forecasts(path, month)


def test_external_monthly_total_warns_on_incoherence(tmp_path):
    with pytest.warns(UserWarning, match="monthly total 3000.0 differs"):
        daily = _external_forecasts(tmp_path, "monthly_total,3000\n")
    assert daily == (100.0,) * 28


def test_external_monthly_total_within_tolerance_is_silent(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for total_row in ("monthly_total,2800.5\n", ""):
            assert _external_forecasts(tmp_path, total_row) == (100.0,) * 28
