"""The daily series types, CSV ingestion (the OHLCV data and the external
forecast file), calendar completion, and monthly partitioning.

The OHLCV loader reads a sorted file of zero-padded ISO dates in one
column-wise pass (`_sorted_iso_columns`) and every other file row by row
(`_rows` and `_dated_values`). The pass splits the text on "," instead
of parsing csv rows, so it gives up on any text that `csv.reader` could
split otherwise: a quote, a NUL, a carriage return outside CRLF, a row
whose field count differs from the header's, or a line longer than the
csv field size limit. Both give the same series; only the row reader
raises, so every load error comes from one place.

A series as read is a `TimeSeries`, its days and values. A filled
calendar is a `Calendar`, a first day and values, and so is a month, a
slice of the calendar's values. Both are NamedTuples whose length counts
days. Values past `errors.LIMIT` are refused as they are read, so no
interpolation overflows, and `fill_calendar` fills only the days of a
window. `check_months` finds from two days, the data's or a calendar's
first and last, whether they cover a month range, so the data's range
is checked without a filled calendar."""

from __future__ import annotations

import csv
import warnings
from bisect import bisect_left, bisect_right
from datetime import date, datetime, timedelta
from math import isfinite
from operator import lt
from typing import NamedTuple

from .errors import LIMIT, DataError, ShapeError
from .totals import pairwise_sum

_DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%y")

# Characters the column-wise pass reads at a time, about 170 rows of the
# benchmark's file, which bounds the text and fields it holds at once:
# reading a 2,670-row file whole left peak RSS about 0.7 MB higher.
_CHUNK_CHARS = 1 << 13
# Every byte but "," and "\n", which `bytes.translate` deletes to leave a
# block's shape.
_NOT_COMMA_OR_LF = bytes(byte for byte in range(256) if byte not in b",\n")

DEFAULT_DATE_COLUMN = "Date"
DEFAULT_VALUE_COLUMN = "Open"


class _SeriesFields(NamedTuple):
    timestamps: tuple[date, ...]
    values: tuple[float, ...]


class TimeSeries(_SeriesFields):
    """Daily observations: ordered calendar dates with values at most
    `LIMIT` in magnitude; its length is the number of days."""

    __slots__ = ()

    def __new__(cls, timestamps, values):
        values = tuple(map(float, values))
        stamps = tuple(timestamps)
        if len(stamps) != len(values):
            raise ShapeError(f"{len(stamps)} timestamps but {len(values)} values")
        if not all(abs(value) <= LIMIT for value in values):
            raise ValueError(f"time series values must be at most {LIMIT:g} in magnitude")
        if not all(map(lt, stamps, stamps[1:])):
            cur = next(cur for prev, cur in zip(stamps, stamps[1:]) if cur <= prev)
            raise ValueError(f"timestamps not strictly increasing at {cur}")
        return super().__new__(cls, stamps, values)

    # Builds without the checks above, and without NamedTuple's field
    # count test, which would read the day count below.
    _make = classmethod(tuple.__new__)

    def __len__(self) -> int:
        return len(self.timestamps)


def _parse_date(text: str, path, line_no: int) -> date:
    stripped = text.strip()
    # Padded ASCII ISO dates skip strptime; any other text, and any text
    # fromisoformat rejects, takes the strptime path.
    if (len(stripped) == 10 and stripped.isascii()
            and stripped[4] == "-" and stripped[7] == "-"):
        try:
            return date.fromisoformat(stripped)
        except ValueError:
            pass
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(stripped, fmt).date()
        except ValueError:
            continue
    raise DataError(f"{path}: line {line_no}: unparseable date {text!r}")


def _parse_value(text: str, path, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{path}: line {line_no}: unparseable value {text!r}") from None
    if not abs(value) <= LIMIT:  # NaN fails it too
        raise DataError(f"{path}: line {line_no}: value {text!r} is not finite or exceeds "
                        f"{LIMIT:g} in magnitude")
    return value


def _open(path):
    # Both readers open a file this way, so they see the same rows. A byte
    # that is not text decodes to U+FFFD, so its field fails to parse on
    # its line; a leading byte-order mark, as spreadsheets save, is dropped.
    return open(path, newline="", encoding="utf-8-sig", errors="replace")


def _rows(path):
    """Every non-blank row of a CSV file as (line number, row). A row the
    csv module cannot read, such as a field over its size limit, names
    the file and line."""
    try:
        fh = _open(path)
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc}") from exc
    with fh:
        line_no = 0
        try:
            for line_no, row in enumerate(csv.reader(fh), start=1):
                if "".join(row).strip():
                    yield line_no, row
        except csv.Error as exc:
            raise DataError(f"{path}: line {line_no + 1}: {exc}") from None


def _dated_values(rows, path, date_idx: int, value_idx: int) -> dict[date, float]:
    """One value within `LIMIT` per date from (line number, row) pairs; a short
    row, a bad date or value, or a repeated date names the file and line."""
    min_fields = max(date_idx, value_idx) + 1
    observations: dict[date, float] = {}
    for line_no, row in rows:
        if len(row) < min_fields:
            raise DataError(f"{path}: line {line_no}: too few fields")
        day = _parse_date(row[date_idx], path, line_no)
        value = _parse_value(row[value_idx], path, line_no)
        if day in observations:
            raise DataError(f"{path}: line {line_no}: duplicate date {day.isoformat()}")
        observations[day] = value
    return observations


def _iso_shaped(texts: list[str]) -> bool:
    """Whether the joined texts have 10 ASCII characters a text with "-"
    at offsets 4 and 7, `_parse_date`'s guard for `date.fromisoformat`.
    Texts whose lengths make up for each other pass too, but one of them
    is longer than 10 characters, and `date.fromisoformat` rejects it."""
    joined = "".join(texts)
    dashes = "-" * len(texts)
    return (len(joined) == 10 * len(texts) and joined.isascii()
            and joined[4::10] == dashes and joined[7::10] == dashes)


def _line_chunks(fh, limit: int):
    """The text of a file a chunk of whole lines at a time, each chunk
    ending in a line feed. Raises ValueError once the unfinished line
    carried into the next chunk is longer than ``limit`` characters and
    a carriage return, so no line over the limit is read whole."""
    tail = ""
    while chunk := fh.read(_CHUNK_CHARS):
        text = tail + chunk
        cut = text.rfind("\n") + 1
        tail = text[cut:]
        if len(tail) > limit + 1:
            raise ValueError("line over the field size limit")
        yield text[:cut]
    if tail:
        yield tail + "\n"


def _sorted_iso_columns(path, date_column: str, value_column: str) -> TimeSeries | None:
    """The series of a file whose first non-empty line names both columns
    and whose other non-empty lines each hold a zero-padded ISO date and a
    value within `LIMIT`, the dates strictly increasing; None for any other file.

    The file is read a chunk at a time, and the whole lines of a chunk
    are one block, split on "," once with the two columns taken by
    stride. So at most one block's text and fields are held at once, and
    a file that is not ISO or not sorted is given up in the first block
    that shows it. Split on ",", a line reads as it does through
    `csv.reader` when it holds no quote, no NUL and no lone carriage
    return (CRLF reads as LF), is no longer than the csv field size limit
    and has the header's field count; the pass gives up on any other
    text. Each date is parsed as `_parse_date` parses it, so both readers
    give the same series. Never raises: the row reader reads the file
    again and names the fault."""
    limit = csv.field_size_limit()
    days: list[date] = []
    values: list[float] = []
    header = None
    try:
        with _open(path) as fh:
            for text in _line_chunks(fh, limit):
                if "\r" in text:
                    text = text.replace("\r\n", "\n")
                if '"' in text or "\0" in text or "\r" in text or (
                        len(text) > limit and max(map(len, text.split("\n"))) > limit):
                    return None
                # The block's commas and line feeds: a row of the header's
                # field count per line.
                shape = text.encode().translate(None, _NOT_COMMA_OR_LF)
                if b"\n\n" in b"\n" + shape:
                    # Empty lines, which the row reader skips too, are dropped.
                    text = "".join(line + "\n" for line in text.split("\n") if line)
                    shape = text.encode().translate(None, _NOT_COMMA_OR_LF)
                if not text:
                    continue
                if header is None:
                    line, _, text = text.partition("\n")
                    shape = shape[shape.index(b"\n") + 1:]
                    header = [name.strip() for name in line.split(",")]
                    if date_column not in header or value_column not in header:
                        return None
                    row_shape = b"," * (len(header) - 1) + b"\n"
                    date_idx, value_idx = header.index(date_column), header.index(value_column)
                if shape != row_shape * (len(shape) // len(row_shape)):
                    return None
                fields = text.replace("\n", ",").split(",")
                date_texts = fields[date_idx:-1:len(header)]
                if not _iso_shaped(date_texts):
                    return None
                # The block's dates, and the last one before them, must
                # strictly increase.
                start = max(len(days) - 1, 0)
                days += map(date.fromisoformat, date_texts)
                if not all(map(lt, days[start:], days[start + 1:])):
                    return None
                values += map(float, fields[value_idx:-1:len(header)])
        # A value past `LIMIT` is left for the row reader to name. A NaN or an
        # infinity, which `min` and `max` may pass, makes the sum so too.
        if not (days and -LIMIT <= min(values) and max(values) <= LIMIT
                and isfinite(sum(values))):
            return None
        return TimeSeries._make((tuple(days), tuple(values)))
    # A date or value that does not parse or a line over the field size
    # limit (ValueError), or a file the system cannot read.
    except (ValueError, OSError):
        return None


def load_ohlcv_csv(
    path,
    date_column: str = DEFAULT_DATE_COLUMN,
    value_column: str = DEFAULT_VALUE_COLUMN,
) -> TimeSeries:
    """Read one value column of a daily CSV into a sorted series.

    Accepts ISO (YYYY-MM-DD) and DD/MM/YY dates and values within `LIMIT`;
    rejects duplicate dates. A sorted file of zero-padded ISO dates is
    read in one column-wise pass, any other file row by row, with the
    same result. Every error names the file, and a bad row its line
    number.
    """
    series = _sorted_iso_columns(path, date_column, value_column)
    if series is not None:
        return series
    rows = _rows(path)
    _, header = next(rows, (None, None))
    if header is None:
        raise DataError(f"{path}: empty file")
    header = [name.strip() for name in header]
    for column in (date_column, value_column):
        if column not in header:
            raise DataError(f"{path}: missing column {column!r} (have {header})")
    observations = _dated_values(rows, path, header.index(date_column),
                                 header.index(value_column))
    if not observations:
        raise DataError(f"{path}: no data rows")
    days = sorted(observations)
    return TimeSeries(tuple(days), tuple(map(observations.__getitem__, days)))


class _CalendarFields(NamedTuple):
    start: date
    values: tuple[float, ...]


class Calendar(_CalendarFields):
    """A calendar-complete daily series: its first day and one value per
    day from it on; its length is the number of days."""

    __slots__ = ()
    _make = classmethod(tuple.__new__)  # as `TimeSeries._make`

    def __len__(self) -> int:
        return len(self.values)

    @property
    def dates(self) -> tuple[date, ...]:
        """The days, built at each call."""
        first = self.start.toordinal()
        return tuple(map(date.fromordinal, range(first, first + len(self.values))))

    @property
    def label(self) -> str:
        """The "YYYY-MM" of the first day."""
        return month_label(self.start.year, self.start.month)


def fill_calendar(series: TimeSeries, first: date | None = None,
                  last: date | None = None) -> Calendar:
    """The calendar over ``first..last``, clipped to the series' first and
    last days, each missing day filled by linear interpolation between
    the nearest observed neighbors; with no bound, the series' whole
    span. A window with ``first`` after ``last`` gives no values, and a
    series with no gap lends the window a slice of its values tuple.

    A missing day x between observed days x0 and x1 gets
    ``slope * (x - x0) + f0`` with ``slope = (f1 - f0) / (x1 - x0)``, the
    float operations of ``np.interp`` in their order, so the filled
    values equal numpy's bit for bit. Only the rows from the observed
    day on or before the window through the one on or after it are
    interpolated."""
    if len(series) == 0:
        raise DataError("cannot calendar-fill an empty series")
    stamps, values = series.timestamps, series.values
    first = stamps[0] if first is None else max(first, stamps[0])
    last = stamps[-1] if last is None else min(last, stamps[-1])
    origin, n = stamps[0].toordinal(), len(series)
    # The window's offset from the series' first day and its length.
    offset, length = first.toordinal() - origin, max(last.toordinal() - first.toordinal() + 1, 0)
    if stamps[-1].toordinal() - origin + 1 == n:
        return Calendar(first, values[offset:offset + length])
    # The observed neighbours of the window's two ends; an empty window
    # keeps one row.
    lo = bisect_right(stamps, first) - 1
    hi = max(bisect_left(stamps, last), lo)
    filled: list[float] = []
    add = filled.append
    x0, f0 = stamps[lo].toordinal(), values[lo]
    for x1, f1 in zip(map(date.toordinal, stamps[lo:hi + 1]), values[lo:hi + 1]):
        span = x1 - x0
        if span > 1:
            slope = (f1 - f0) / span
            for step in range(1, span):
                add(slope * step + f0)
        add(f1)
        x0, f0 = x1, f1
    # The rows' days trimmed to the window.
    del filled[:first.toordinal() - stamps[lo].toordinal()]
    del filled[length:]
    return Calendar(first, tuple(filled))


def parse_month(label: str) -> tuple[int, int]:
    try:
        year_str, month_str = label.split("-")
        year, month = int(year_str), int(month_str)
        if not (1 <= month <= 12 and date.min.year <= year <= date.max.year):
            raise ValueError
    except ValueError:
        raise DataError(f"bad month label {label!r}; expected YYYY-MM") from None
    return year, month


def month_label(year: int, month: int) -> str:
    return f"{year:04d}-{month:02d}"


def days_in_month(year: int, month: int) -> int:
    # December is always 31 days: 9999-12 has no next month to subtract.
    if month == 12:
        return 31
    return (date(year, month + 1, 1) - date(year, month, 1)).days


def check_months(first: date, last: date, month_range: tuple[str, str]) -> int:
    """The number of months in ``month_range``, its first and last
    "YYYY-MM" labels, when the days ``first..last``, the data's or a
    calendar's two ends, cover each whole. Otherwise the first month in
    range order that they do not cover raises, with its count of missing
    days and the first of them."""
    (year, month), (y1, m1) = map(parse_month, month_range)
    if (year, month) > (y1, m1):
        raise DataError(f"month range {month_range[0]}..{month_range[1]} is reversed")
    n_months = (y1 - year) * 12 + m1 - month + 1
    start, end = first.toordinal(), last.toordinal()
    if date(year, month, 1).toordinal() >= start:
        # No month of the range starts before the first day, so the first
        # one not covered is the range's first or the next day's.
        if end == date.max.toordinal():
            return n_months
        after = date.fromordinal(end + 1)
        year, month = max((year, month), (after.year, after.month))
        if (year, month) > (y1, m1):
            return n_months
    n_days = days_in_month(year, month)
    first_day = date(year, month, 1).toordinal()
    covered = max(0, min(first_day + n_days - 1, end) - max(first_day, start) + 1)
    missing = first_day if first_day < start else max(first_day, end + 1)
    raise DataError(
        f"month {month_label(year, month)} incomplete: {n_days - covered} missing days "
        f"(first {date.fromordinal(missing).isoformat()})"
    )


def month_partition(calendar: Calendar, month_range: tuple[str, str]) -> list[Calendar]:
    """The full months of ``month_range`` in a calendar, in order, each a
    `Calendar` slice of its values; `check_months` names a month that the
    calendar's two ends do not cover."""
    n_months = check_months(calendar.start, calendar.start + timedelta(len(calendar) - 1),
                            month_range)
    year, month = parse_month(month_range[0])
    start, values = (date(year, month, 1) - calendar.start).days, calendar.values
    months = []
    for _ in range(n_months):
        end = start + days_in_month(year, month)
        months.append(Calendar(date(year, month, 1), values[start:end]))
        start = end
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    return months


def load_external_forecasts(path, month: Calendar) -> tuple[float, ...]:
    """The daily forecasts of a CSV `date,forecast` covering the test
    cycle. An optional `monthly_total,<value>` row is parsed and checked,
    and warns when it differs from the sum of the daily forecasts by more
    than 0.1%; that warning is its only effect. Every error names the
    file, and a bad or repeated row its line number."""
    totals: list[float] = []

    def forecast_rows():
        # Header rows are skipped and the total row is taken out; a total
        # row with one field goes on to fail the field count.
        for line_no, row in _rows(path):
            key = row[0].strip().lower()
            if key == "monthly_total" and len(row) >= 2:
                totals.append(_parse_value(row[1], path, line_no))
                if len(totals) > 1:
                    raise DataError(f"{path}: line {line_no}: duplicate monthly_total row")
            elif key not in ("date", "day"):
                yield line_no, row

    by_date = _dated_values(forecast_rows(), path, 0, 1)
    days = month.dates
    missing = [d for d in days if d not in by_date]
    if missing:
        raise DataError(
            f"{path}: no forecast for {len(missing)} days of "
            f"{month.label} (first {missing[0].isoformat()})"
        )
    daily = tuple(map(by_date.__getitem__, days))
    implied = pairwise_sum(daily)
    if totals and implied != 0 and abs(totals[0] - implied) > 1e-3 * abs(implied):
        warnings.warn(
            f"monthly total {totals[0]} differs from sum of daily "
            f"forecasts {implied} by more than 0.1%",
            stacklevel=2,
        )
    return daily
