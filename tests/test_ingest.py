"""The ingest layer against the reference oracle, bit for bit."""

import csv
import re
import tempfile
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from dtreconcile import data
from dtreconcile.errors import DataError

EXAMPLES = settings(max_examples=40, deadline=None)

WHITESPACE = st.sampled_from(["", " ", "\t", "  ", "\u3000"])
RENDERINGS = (
    lambda d: f"{d.year:04d}-{d.month:02d}-{d.day:02d}",
    lambda d: f"{d.year}-{d.month}-{d.day}",
    lambda d: f"{d.year:04d}-{d.month:02d}-{d.day:2d}",
    lambda d: f"{d.day:02d}/{d.month:02d}/{d.year % 100:02d}",
    lambda d: f"{d.day}/{d.month}/{d.year % 100}",
)
# Digits, both separators, a space, a letter and ARABIC-INDIC DIGIT THREE.
DATE_CHARS = "0123456789-/ a\u0663"


@st.composite
def rendered_dates(draw):
    day = draw(st.dates())
    render = draw(st.sampled_from(RENDERINGS))
    return draw(WHITESPACE) + render(day) + draw(WHITESPACE)


def chars(n):
    return st.text(DATE_CHARS, min_size=n, max_size=n)


date_texts = st.one_of(
    rendered_dates(),
    st.text(DATE_CHARS, max_size=12),
    # ISO-shaped: dashes at 4 and 7, anything around them.
    st.builds(lambda y, m, d: f"{y}-{m}-{d}", chars(4), chars(2), chars(2)),
)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DataError as exc:
        return "error", str(exc)


@EXAMPLES
@given(date_texts, st.integers(1, 10**6))
def test_parse_date_matches_oracle(text, line_no):
    new = outcome(data._parse_date, text, "daily.csv", line_no)
    old = outcome(oracle._parse_date, text, line_no)
    # The parser now names the file in its message.
    assert new == (old if old[0] == "ok" else ("error", f"daily.csv: {old[1]}"))
    assert new[0] == "error" or type(new[1]) is date


MONTHS = ("2019-12", "2020-01", "2020-02", "2020-03")
finite_values = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e5, 1e5).map(lambda v: f"{v:.2f}"),
)


@st.composite
def days_in_range(draw):
    days = draw(st.lists(st.dates(date(2019, 11, 25), date(2020, 4, 5)),
                         max_size=40, unique=True))
    if draw(st.booleans()):  # reach past both ends of MONTHS
        days += [d for d in (date(2019, 11, 30), date(2020, 4, 1)) if d not in days]
    return days


@st.composite
def canonical_csv_texts(draw):
    """Sorted, zero-padded ISO dates and finite values, in any column
    order beside up to two unused columns, with LF or CRLF line ends and
    at most a trailing empty line: the files the loader reads in its
    column-wise pass."""
    names = draw(st.permutations(["Date", "Open", "High", "Low"][:draw(st.integers(2, 4))]))
    lines = [",".join(names)]
    for day in sorted(draw(days_in_range())):
        row = {name: draw(finite_values) for name in names}
        row["Date"] = day.isoformat()
        lines.append(",".join(map(row.__getitem__, names)))
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + end + draw(st.sampled_from(("", end)))


@st.composite
def csv_texts(draw):
    """Shuffled rows with gaps, blank and whitespace-only rows, and at
    most one bad row: a duplicate date, a bad date or value, or one field."""
    days = draw(days_in_range())
    bad = draw(st.sampled_from((None, None, None, "duplicate", "date", "value", "short")))
    if bad == "duplicate" and days:
        days.append(draw(st.sampled_from(days)))
    rows = [draw(st.sampled_from(RENDERINGS))(day) + draw(WHITESPACE) + ","
            + draw(finite_values) for day in days]
    if bad == "date":
        rows.append(draw(st.text(DATE_CHARS, max_size=10)) + ",1")
    elif bad == "value":
        rows.append("2020-01-15," + draw(st.sampled_from(["abc", "", "--1", "1e"])))
    elif bad == "short":
        rows.append("2020-01-15")
    rows += draw(st.lists(st.sampled_from(["", " ", " , ", "\t,"]), max_size=3))
    return "Date,Open\n" + "\n".join(draw(st.permutations(rows))) + "\n"


def pipeline(module, path, month_range):
    series = module.load_ohlcv_csv(path)
    filled = module.fill_calendar(series)
    return (series, filled, filled.values is series.values,
            module.month_partition(filled, month_range))


def hex_values(values):
    return [value.hex() for value in values]


def same_series(a, b):
    return a.timestamps == b.timestamps and hex_values(a.values) == hex_values(b.values)


def same_calendar(calendar, series):
    """Whether a `data.Calendar` holds the oracle series' days and values."""
    return (calendar.dates == series.timestamps
            and hex_values(calendar.values) == hex_values(series.values))


def same_months(parts, o_parts):
    """Whether `data.month_partition`'s months are the oracle's, label by
    label, day by day and value by value."""
    return ([(part.label, part.start, part.dates, hex_values(part.values)) for part in parts]
            == [(o_part.label, o_part.dates[0], o_part.dates, hex_values(o_part.values))
                for o_part in o_parts])


MONTH_RANGES = st.lists(st.sampled_from(MONTHS), min_size=2, max_size=2)


@EXAMPLES
@given(csv_texts(), MONTH_RANGES)
# A gap whose interpolation overflows.
@example("Date,Open\n2019-11-25,0\n2019-11-26,1.7976931348623155e+308\n"
         "2019-12-01,-2.9937604643020797e+292\n", ["2019-12", "2019-12"])
# Data that starts mid-month, that ends mid-month, and that ends before the range.
@example("Date,Open\n2019-12-10,1\n2019-12-31,2\n2020-01-31,3\n", ["2019-12", "2020-01"])
@example("Date,Open\n2019-12-01,1\n2020-01-15,2\n", ["2019-12", "2020-01"])
@example("Date,Open\n2019-11-25,1\n2019-12-31,2\n", ["2020-02", "2020-03"])
def test_load_fill_partition_matches_oracle(text, months):
    check_pipeline(text, months)


@EXAMPLES
@given(canonical_csv_texts(), MONTH_RANGES)
def test_canonical_load_fill_partition_matches_oracle(text, months):
    check_pipeline(text, months)
    # Such a file with a data row, a line after the header, is read in
    # the column-wise pass.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "daily.csv"
        path.write_text(text)
        columns = data._sorted_iso_columns(path, "Date", "Open")
    assert (columns is not None) == (len(text.split()) > 1)


def check_pipeline(text, months):
    month_range = (min(months), max(months))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "daily.csv"
        path.write_text(text)
        new = outcome(pipeline, data, path, month_range)
        try:
            old = outcome(pipeline, oracle, path, month_range)
        except ValueError as exc:
            # The oracle's fill does not check for overflow; its series
            # rejects the values that are not finite.
            old = "error", str(exc)
    if old == ("error", "time series values must be finite"):
        assert new[0] == "error" and re.fullmatch(
            r"interpolating the gap between \S+ and \S+ overflows", new[1]), new
        return
    if old[0] == "error":
        # The loader now prefixes its messages with the file name.
        assert new[0] == "error" and new[1] in (old[1], f"{path}: {old[1]}")
        return
    assert new[0] == "ok", new[1]
    (series, filled, same, parts), (o_series, o_filled, o_same, o_parts) = new[1], old[1]
    assert same_series(series, o_series) and same_calendar(filled, o_filled)
    assert same == o_same
    assert len(parts) == len(o_parts) == data.check_months(
        series.timestamps[0], series.timestamps[-1], month_range)
    assert same_months(parts, o_parts)
    for part, o_part in zip(parts, o_parts):
        assert type(part.values) is type(o_part.values) is tuple
        assert all(type(value) is float for value in part.values)


def test_fixed_draws_profile_reaches_module_settings():
    # conftest loads it before this module builds `EXAMPLES`.
    assert settings().derandomize and EXAMPLES.derandomize and EXAMPLES.max_examples == 40


# (first day, last day, month range, outcome) of a gapless calendar.
CALENDAR_CASES = {
    "starts-mid-month": (date(2020, 1, 15), date(2020, 3, 31), ("2020-01", "2020-03"), "error"),
    "starts-mid-month-range-after-it": (date(2020, 1, 15), date(2020, 3, 31),
                                        ("2020-02", "2020-03"), "ok"),
    "ends-mid-month": (date(2020, 1, 1), date(2020, 2, 10), ("2020-01", "2020-03"), "error"),
    "ends-before-the-range": (date(2019, 10, 1), date(2019, 11, 20),
                              ("2020-01", "2020-02"), "error"),
    "ends-the-day-before-the-range": (date(2019, 10, 1), date(2019, 12, 31),
                                      ("2020-01", "2020-02"), "error"),
    "starts-after-the-range": (date(2020, 5, 10), date(2020, 6, 30),
                               ("2020-01", "2020-02"), "error"),
    "one-day": (date(2020, 2, 29), date(2020, 2, 29), ("2020-02", "2020-03"), "error"),
    "one-day-after-the-range": (date(2020, 2, 29), date(2020, 2, 29),
                                ("2019-12", "2020-01"), "error"),
    "ends-at-date-max": (date(9999, 11, 20), date.max, ("9999-12", "9999-12"), "ok"),
    "ends-the-day-before-date-max": (date(9999, 11, 20), date(9999, 12, 30),
                                     ("9999-12", "9999-12"), "error"),
    "starts-at-date-min": (date.min, date(1, 2, 14), ("0001-01", "0001-01"), "ok"),
    "starts-at-date-min-ends-mid-month": (date.min, date(1, 2, 14),
                                          ("0001-01", "0001-02"), "error"),
    "covers-the-range": (date(2019, 11, 30), date(2020, 4, 1), ("2019-12", "2020-03"), "ok"),
}


@pytest.mark.parametrize("first, last, month_range, kind", CALENDAR_CASES.values(),
                         ids=CALENDAR_CASES.keys())
def test_check_months_matches_oracle_partition(first, last, month_range, kind):
    days = [date.fromordinal(n) for n in range(first.toordinal(), last.toordinal() + 1)]
    series = data.TimeSeries(days, [0.1 * k - 3.0 for k in range(len(days))])
    calendar = data.fill_calendar(series)
    old = outcome(oracle.month_partition, series, month_range)
    checked = outcome(data.check_months, first, last, month_range)
    parts = outcome(data.month_partition, calendar, month_range)
    assert old[0] == kind, old
    if kind == "error":
        assert checked == parts == old
    else:
        assert checked == ("ok", len(old[1])) and parts[0] == "ok"
        assert same_months(parts[1], old[1])


# Weekdays from 2019-12-23, a canonical file's rows. Each change below
# edits it at row K; all but the blank row send the loader to the row
# reader.
CANONICAL_DAYS = [day for day in (date(2019, 12, 23) + timedelta(k) for k in range(45))
                  if day.weekday() < 5]
K = 7


def replace_row(make):
    def change(rows, days):
        rows[K] = make(days[K], rows[K].split(",")[1])
    return change


def swap_rows(rows, days):
    rows[K], rows[K + 1] = rows[K + 1], rows[K]


def repeat_date(rows, days):
    rows[K + 1] = f"{days[K].isoformat()},1"


def insert_blank_row(rows, days):
    rows.insert(K, "")


def make_up_lengths(rows, days):
    # A 9- and an 11-character date: together 20 characters with "-" at
    # the offsets a pair of 10-character dates has.
    text = days[K].isoformat()
    rows[K] = f"{text[:-1]},1"
    rows[K + 1] = f"1{days[K + 1].isoformat()},2"


def unused_column(make):
    """A Close column on every row; row K's date and value, as text, go
    through ``make``."""
    def change(rows, days):
        head = rows[K]
        rows[:] = [f"{row},{100 + k}" for k, row in enumerate(rows)]
        rows[K] = make(head)
        return "Date,Open,Close"
    return change


def move_field_up(rows, days):
    # Row K + 1's date ends row K, so the file's field count is unchanged.
    date_text, rows[K + 1] = rows[K + 1].split(",")
    rows[K] += f",{date_text}"


def quoted_unused_field(rows, days):
    # The quotes open in row K's Close field and close in row K + 1's, so
    # `csv.reader` reads the two lines as row K alone.
    header = unused_column(lambda head: f'{head},"1')(rows, days)
    rows[K + 1] += '"'
    return header


def long_unused_field(rows, days):
    # The test restores the limit.
    csv.field_size_limit(40)
    return unused_column(lambda head: f"{head},{'9' * 41}")(rows, days)


ONE_ROW_CHANGES = {
    "swapped-rows": swap_rows,
    "duplicate-date": repeat_date,
    "dd/mm/yy": replace_row(lambda day, value: f"{day:%d/%m/%y},{value}"),
    "leading-space": replace_row(lambda day, value: f" {day.isoformat()},{value}"),
    "blank-row": insert_blank_row,
    "short-row": replace_row(lambda day, value: day.isoformat()),
    "nan": replace_row(lambda day, value: f"{day.isoformat()},nan"),
    "quoted-date": replace_row(lambda day, value: f'"{day.isoformat()}",{value}'),
    "lengths-that-make-up": make_up_lengths,
    # ISO forms that `date.fromisoformat` parses and `_parse_date` rejects.
    "basic-iso": replace_row(lambda day, value: f"{day:%Y%m%d},{value}"),
    "week-date": replace_row(lambda day, value: f"{day:%G-W%V-%u},{value}"),
    # Text that `csv.reader` may split otherwise than on ",", each in a
    # column the loader does not read, and rows whose field count differs
    # from the header's.
    "quoted-unused-field": quoted_unused_field,
    "nul-in-unused-field": unused_column(lambda head: f"{head},1\0"),
    "lone-cr-in-row": unused_column(lambda head: f"{head},1\r5"),
    "extra-trailing-field": replace_row(lambda day, value: f"{day.isoformat()},{value},7"),
    "missing-unused-field": unused_column(lambda head: head),
    "field-moved-up-a-row": move_field_up,
    "field-over-size-limit": long_unused_field,
}


def reference_outcome(path):
    """The oracle's outcome. It predates the loader's own finite check, so
    it rejects a `nan` only in `TimeSeries`, whose message names no line,
    and it lets the csv module's error out, which names none either."""
    try:
        return "ok", oracle.load_ohlcv_csv(path)
    except (DataError, ValueError, csv.Error) as exc:
        return "error", str(exc)


@pytest.mark.parametrize("change", ONE_ROW_CHANGES.values(), ids=ONE_ROW_CHANGES.keys())
def test_one_changed_row_matches_oracle(tmp_path, change):
    rows = [f"{day.isoformat()},{100 + 0.25 * k!r}" for k, day in enumerate(CANONICAL_DAYS)]
    path = tmp_path / "daily.csv"
    limit = csv.field_size_limit()
    try:
        header = change(rows, CANONICAL_DAYS) or "Date,Open"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        new, old = outcome(data.load_ohlcv_csv, path), reference_outcome(path)
    finally:
        csv.field_size_limit(limit)
    assert new[0] == old[0], (new, old)
    if old[0] == "ok":
        assert same_series(new[1], old[1])
    elif old[1] == "time series values must be finite":
        assert new[1] == f"{path}: line {K + 2}: value 'nan' is not finite"
    elif old[1].startswith("field larger than field limit"):
        assert new[1] == f"{path}: line {K + 2}: {old[1]}"
    else:
        assert new[1] == f"{path}: {old[1]}"
