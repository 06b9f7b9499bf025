"""The ingest layer against the reference oracle, bit for bit."""

import tempfile
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
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
    """Sorted, zero-padded ISO dates and finite values, at most a trailing
    empty line: the files the loader reads in its column-wise pass."""
    return ("Date,Open\n" + "".join(f"{day.isoformat()},{draw(finite_values)}\n"
                                    for day in sorted(draw(days_in_range())))
            + draw(st.sampled_from(("", "\n"))))


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
    return series, filled, filled is series, module.month_partition(filled, month_range)


def hex_values(values):
    return [value.hex() for value in values]


def same_series(a, b):
    return a.timestamps == b.timestamps and hex_values(a.values) == hex_values(b.values)


MONTH_RANGES = st.lists(st.sampled_from(MONTHS), min_size=2, max_size=2)


@EXAMPLES
@given(csv_texts(), MONTH_RANGES)
def test_load_fill_partition_matches_oracle(text, months):
    check_pipeline(text, months)


@EXAMPLES
@given(canonical_csv_texts(), MONTH_RANGES)
def test_canonical_load_fill_partition_matches_oracle(text, months):
    check_pipeline(text, months)


def check_pipeline(text, months):
    month_range = (min(months), max(months))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "daily.csv"
        path.write_text(text)
        new, old = outcome(pipeline, data, path, month_range), outcome(
            pipeline, oracle, path, month_range)
    if old[0] == "error":
        # The loader now prefixes its messages with the file name.
        assert new[0] == "error" and new[1] in (old[1], f"{path}: {old[1]}")
        return
    assert new[0] == "ok", new[1]
    (series, filled, same, parts), (o_series, o_filled, o_same, o_parts) = new[1], old[1]
    assert same_series(series, o_series) and same_series(filled, o_filled)
    assert same == o_same
    assert len(parts) == len(o_parts)
    for part, o_part in zip(parts, o_parts):
        assert part.label == o_part.label and part.dates == o_part.dates
        assert type(part.values) is type(o_part.values) is tuple
        assert all(type(value) is float for value in part.values)
        assert hex_values(part.values) == hex_values(o_part.values)


# Weekdays from 2019-12-23, a canonical file's rows. Each change below
# edits it at row K; all but the quoted date and the blank row send the
# loader to the row reader.
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
}


def reference_outcome(path):
    """The oracle's outcome. It predates the loader's own finite check, so
    it rejects a `nan` only in `TimeSeries`, whose message names no line."""
    try:
        return "ok", oracle.load_ohlcv_csv(path)
    except (DataError, ValueError) as exc:
        return "error", str(exc)


@pytest.mark.parametrize("change", ONE_ROW_CHANGES.values(), ids=ONE_ROW_CHANGES.keys())
def test_one_changed_row_matches_oracle(tmp_path, change):
    rows = [f"{day.isoformat()},{100 + 0.25 * k!r}" for k, day in enumerate(CANONICAL_DAYS)]
    change(rows, CANONICAL_DAYS)
    path = tmp_path / "daily.csv"
    path.write_text("Date,Open\n" + "\n".join(rows) + "\n")
    new, old = outcome(data.load_ohlcv_csv, path), reference_outcome(path)
    assert new[0] == old[0], (new, old)
    if old[0] == "ok":
        assert same_series(new[1], old[1])
    elif old[1] == "time series values must be finite":
        assert new[1] == f"{path}: line {K + 2}: value 'nan' is not finite"
    else:
        assert new[1] == f"{path}: {old[1]}"
