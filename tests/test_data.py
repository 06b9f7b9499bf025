"""Tests for CSV ingestion, calendar fill, and month partitioning."""

import calendar
import csv
import math
import re
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtreconcile import data
from dtreconcile.data import (
    Calendar,
    TimeSeries,
    fill_calendar,
    load_external_forecasts,
    load_ohlcv_csv,
    month_partition,
)
from dtreconcile.errors import LIMIT, DataError

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
        __slots__ = ()

        def __new__(cls, timestamps, values):
            built.append(len(timestamps))
            return super().__new__(cls, timestamps, values)

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
    assert len(filled) == 4 and filled.start == date(2020, 3, 6)
    assert list(filled.values) == [100.0, 102.0, 104.0, 106.0]


def test_fill_calendar_identity_when_complete():
    series = TimeSeries(
        (date(2020, 1, 1), date(2020, 1, 2)), np.array([1.0, 2.0])
    )
    filled = fill_calendar(series)
    assert filled.start == date(2020, 1, 1) and filled.values is series.values


def test_fill_calendar_single_gap_midpoint():
    series = TimeSeries(
        (date(2020, 1, 1), date(2020, 1, 3)), np.array([10.0, 20.0])
    )
    assert list(fill_calendar(series).values) == [10.0, 15.0, 20.0]


# Levels within the limit, at it and anywhere up to it: no gap's
# interpolation between them overflows.
WINDOW_LEVELS = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([LIMIT, -LIMIT]),
                          st.floats(-LIMIT, LIMIT))
# Window ends as day offsets from the series' first day: inside, over
# either end, outside, or reversed (empty); None is no bound.
WINDOW_ENDS = st.one_of(st.none(), st.integers(-8, 60))


def _day(origin, offset):
    """The day ``offset`` days from ``origin``, clamped to the calendar."""
    return date.fromordinal(min(max(origin.toordinal() + offset, 1), date.max.toordinal()))


@settings(max_examples=400, deadline=None)
@given(st.dates(), st.lists(st.integers(1, 6), max_size=12),
       st.lists(WINDOW_LEVELS, min_size=13, max_size=13), WINDOW_ENDS, WINDOW_ENDS)
# Gaps from -LIMIT to LIMIT, the largest, outside the window, after it and
# before it, and inside it.
@example(date(2020, 1, 1), [1, 3], [1.0, -LIMIT, LIMIT], 0, 0)
@example(date(2020, 1, 1), [3, 1], [-LIMIT, LIMIT, 5.0], 4, 4)
@example(date(2020, 1, 1), [3, 2], [-LIMIT, LIMIT, -LIMIT], 4, 4)
@example(date.min, [2], [-LIMIT, LIMIT], -8, -8)
@example(date(2020, 1, 1), [1, 4, 1], [0.0, LIMIT, -LIMIT, 0.0], 2, 3)
@example(date(9999, 12, 28), [3], [LIMIT, -LIMIT], 60, None)
def test_windowed_fill_is_the_slice_of_the_whole_fill(start, gaps, levels, first, last):
    days = [start]
    for gap in gaps:
        if days[-1].toordinal() + gap > date.max.toordinal():
            break
        days.append(days[-1] + timedelta(gap))
    series = TimeSeries(tuple(days), levels[:len(days)])
    first = None if first is None else _day(start, first)
    last = None if last is None else _day(start, last)
    whole, window = fill_calendar(series), fill_calendar(series, first, last)
    assert all(map(math.isfinite, whole.values))
    lo = days[0] if first is None else max(first, days[0])
    hi = days[-1] if last is None else min(last, days[-1])
    begin, end = (lo - days[0]).days, (hi - days[0]).days + 1
    expected = whole.values[begin:end] if end > begin else ()
    assert window.start == lo
    assert [value.hex() for value in window.values] == [value.hex() for value in expected]


def test_calendar_and_month_are_first_day_and_values():
    calendar = Calendar(date(2020, 2, 27), (1.0, 2.0, 3.0))
    assert len(calendar) == 3 and calendar == Calendar(date(2020, 2, 27), (1.0, 2.0, 3.0))
    with pytest.raises(AttributeError):
        calendar.start = date(2020, 1, 1)
    month = Calendar(date(2020, 2, 28), (1.0, 2.0))
    assert len(month) == 2 and month.dates == (date(2020, 2, 28), date(2020, 2, 29))
    assert month.label == "2020-02"
    # The fields are given in order, all of them.
    for fields in ((date(2020, 2, 1),), (date(2020, 2, 1), (1.0,), "extra")):
        with pytest.raises(TypeError):
            Calendar(*fields)


def test_records_count_days_and_compare_as_tuples():
    days, values = (date(2020, 1, 1), date(2020, 1, 3), date(2020, 1, 4)), (1.0, 2.0, 3.0)
    series = TimeSeries(days, values)
    # `_make` builds without the checks and the field count, and the
    # length is still the day count, not the two fields.
    assert len(TimeSeries._make((days, values))) == 3 == len(series)
    assert len(Calendar._make((days[0], values[:2]))) == 2
    assert series._replace(values=(4.0, 5.0, 6.0)).values == (4.0, 5.0, 6.0)
    # No record takes an attribute beyond its fields.
    for record in (series, Calendar(days[0], values)):
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            record.values = ()
    # Equality and hashing are a tuple's: the type is not compared.
    assert series == (days, values) and hash(series) == hash((days, values))
    assert Calendar(days[0], values) == (days[0], values)


def _calendar_series(start, end, value=100.0):
    return Calendar(start, (value,) * (end.toordinal() - start.toordinal() + 1))


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
    assert ([data.days_in_month(*ym) for ym in months]
            == [calendar.monthrange(*ym)[1] for ym in months])


def test_last_representable_month_partitions():
    # December's length must not need the first day of year 10000.
    days = [date.fromordinal(n) for n in range(date(9999, 11, 20).toordinal(),
                                                date.max.toordinal() + 1)]
    series = Calendar(days[0], (100.0,) * len(days))
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
    assert tuple(dates) == series.dates
    assert [m.start for m in months] == [date(2019, 11, 1), date(2019, 12, 1), date(2020, 1, 1)]
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
    month = Calendar(date(2021, 2, 1), (1.0,) * 28)
    assert month.dates == tuple(date(2021, 2, k) for k in range(1, 29))
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
