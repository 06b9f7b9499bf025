"""The daily series type, CSV ingestion (the OHLCV data and the external
forecast file), calendar completion, and monthly partitioning.

The OHLCV loader reads a sorted file of zero-padded ISO dates in one
column-wise pass (`_sorted_iso_columns`) and every other file row by row
(`_rows` and `_dated_values`). Both give the same series; only the row
reader raises, so every load error comes from one place."""

from __future__ import annotations

import csv
import warnings
from bisect import bisect_left
from datetime import date, datetime
from itertools import islice
from math import isfinite
from operator import itemgetter, lt

from .errors import DataError, ShapeError
from .records import Record
from .totals import pairwise_sum

_DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%y")

# Rows the column-wise pass parses at a time, which bounds the texts it
# holds at once: parsing a 2,670-row file whole left peak RSS about
# 0.4 MB higher after 300 loads.
_BLOCK_ROWS = 512

DEFAULT_DATE_COLUMN = "Date"
DEFAULT_VALUE_COLUMN = "Open"


class TimeSeries(Record):
    """Daily observations: ordered calendar dates with finite values;
    its length is the number of days."""

    __slots__ = ("timestamps", "values")

    def __init__(self, timestamps, values) -> None:
        values = tuple(map(float, values))
        stamps = tuple(timestamps)
        if len(stamps) != len(values):
            raise ShapeError(f"{len(stamps)} timestamps but {len(values)} values")
        if not all(map(isfinite, values)):
            raise ValueError("time series values must be finite")
        if not all(map(lt, stamps, stamps[1:])):
            cur = next(cur for prev, cur in zip(stamps, stamps[1:]) if cur <= prev)
            raise ValueError(f"timestamps not strictly increasing at {cur}")
        object.__setattr__(self, "timestamps", stamps)
        object.__setattr__(self, "values", values)

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
    if not isfinite(value):
        raise DataError(f"{path}: line {line_no}: value {text!r} is not finite")
    return value


def _open(path):
    # Both readers open a file this way, so they see the same rows. A byte
    # that is not text decodes to U+FFFD, so its field fails to parse on
    # its line.
    return open(path, newline="", errors="replace")


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
    """One finite value per date from (line number, row) pairs; a short
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


def _iso_shaped(texts: tuple[str, ...]) -> bool:
    """Whether the joined texts have 10 ASCII characters a text with "-"
    at offsets 4 and 7, `_parse_date`'s guard for `date.fromisoformat`.
    Texts whose lengths make up for each other pass too, but one of them
    is longer than 10 characters, and `date.fromisoformat` rejects it."""
    joined = "".join(texts)
    dashes = "-" * len(texts)
    return (len(joined) == 10 * len(texts) and joined.isascii()
            and joined[4::10] == dashes and joined[7::10] == dashes)


def _sorted_iso_columns(path, date_column: str, value_column: str) -> TimeSeries | None:
    """The series of a file whose first non-empty row names both columns
    and whose other non-empty rows each hold a zero-padded ISO date and a
    finite value, the dates strictly increasing; None for any other file.

    One `csv.reader` pass keeps only the two fields of each row, and the
    columns are parsed a block of rows at a time, so at most one block's
    texts are held at once, and a file that is not ISO or not sorted is
    given up in the first block that shows it. Each date is parsed as
    `_parse_date` parses it, so both readers give the same series. Never
    raises: the row reader reads the file again and names the fault."""
    days: list[date] = []
    values: list[float] = []
    try:
        with _open(path) as fh:
            # Empty lines, which the row reader skips too, read as [].
            rows = filter(None, csv.reader(fh))
            header = [name.strip() for name in next(rows, ())]
            if date_column not in header or value_column not in header:
                return None
            pairs = map(itemgetter(header.index(date_column), header.index(value_column)),
                        rows)
            while block := tuple(islice(pairs, _BLOCK_ROWS)):
                date_texts, value_texts = zip(*block)
                if not _iso_shaped(date_texts):
                    return None
                # The block's dates, and the last one before them, must
                # strictly increase.
                start = max(len(days) - 1, 0)
                days += map(date.fromisoformat, date_texts)
                if not all(map(lt, days[start:], days[start + 1:])):
                    return None
                values += map(float, value_texts)
        # The dates are checked and the values are floats; a value that
        # is not finite is left for the row reader to name.
        if not (days and all(map(isfinite, values))):
            return None
        return TimeSeries._make((tuple(days), tuple(values)))
    # A short row (IndexError), a date or value that does not parse
    # (ValueError), or a file the csv module or the system cannot read.
    except (IndexError, ValueError, csv.Error, OSError):
        return None


def load_ohlcv_csv(
    path,
    date_column: str = DEFAULT_DATE_COLUMN,
    value_column: str = DEFAULT_VALUE_COLUMN,
) -> TimeSeries:
    """Read one value column of a daily CSV into a sorted series.

    Accepts ISO (YYYY-MM-DD) and DD/MM/YY dates and finite values;
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


def fill_calendar(series: TimeSeries) -> TimeSeries:
    """Fill missing calendar days by linear interpolation between
    the nearest observed neighbors.

    A missing day x between observed days x0 and x1 gets
    ``slope * (x - x0) + f0`` with ``slope = (f1 - f0) / (x1 - x0)``, the
    float operations of ``np.interp`` in their order, so the filled
    values equal numpy's bit for bit. A gap whose interpolation overflows
    raises a `DataError` naming its two observed days."""
    if len(series) == 0:
        raise DataError("cannot calendar-fill an empty series")
    stamps, values = series.timestamps, series.values
    x0, f0 = stamps[0].toordinal(), values[0]
    if stamps[-1].toordinal() - x0 + 1 == len(series):
        return series
    # Observed days keep their date objects; only missing days are made.
    days: list[date] = []
    filled: list[float] = []
    add_day, add_value = days.append, filled.append
    for day, f1 in zip(stamps, values):
        x1 = day.toordinal()
        span = x1 - x0
        if span > 1:
            slope = (f1 - f0) / span
            for step in range(1, span):
                add_day(date.fromordinal(x0 + step))
                add_value(slope * step + f0)
        add_day(day)
        add_value(f1)
        x0, f0 = x1, f1
    if not all(map(isfinite, filled)):  # the observed values are finite
        k = next(k for k, value in enumerate(filled) if not isfinite(value))
        after = bisect_left(stamps, days[k])
        raise DataError(
            f"interpolating the gap between {stamps[after - 1].isoformat()} and "
            f"{stamps[after].isoformat()} overflows"
        )
    # The days were built in order and the values as floats, so the
    # series needs no check beyond the one above.
    return TimeSeries._make((tuple(days), tuple(filled)))


class MonthlyActuals(Record):
    """One calendar month of daily observations, labelled "YYYY-MM"; its
    length is the number of days."""

    __slots__ = ("label", "dates", "values")

    def __init__(self, label: str, dates: tuple[date, ...], values: tuple[float, ...]) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.dates)


def parse_month(label: str) -> tuple[int, int]:
    try:
        year_str, month_str = label.split("-")
        year, month = int(year_str), int(month_str)
        if not (1 <= month <= 12 and date.min.year <= year <= date.max.year):
            raise ValueError
    except ValueError:
        raise DataError(f"bad month label {label!r}; expected YYYY-MM") from None
    return year, month


def _days_in_month(year: int, month: int) -> int:
    # December is always 31 days: 9999-12 has no next month to subtract.
    if month == 12:
        return 31
    return (date(year, month + 1, 1) - date(year, month, 1)).days


def _year_months(start: str, end: str):
    """Yield (year, month) from start through end inclusive."""
    y0, m0 = parse_month(start)
    y1, m1 = parse_month(end)
    if (y0, m0) > (y1, m1):
        raise DataError(f"month range {start}..{end} is reversed")
    year, month = y0, m0
    while (year, month) <= (y1, m1):
        yield year, month
        month += 1
        if month > 12:
            year, month = year + 1, 1


def month_partition(
    series: TimeSeries, month_range: tuple[str, str]
) -> list[MonthlyActuals]:
    """Split a calendar-complete series into full calendar months."""
    stamps = series.timestamps
    year, month = parse_month(month_range[0])
    start = bisect_left(stamps, date(year, month, 1))
    episodes = []
    for year, month in _year_months(*month_range):
        label = f"{year:04d}-{month:02d}"
        n_days = _days_in_month(year, month)
        end = start + n_days
        # Timestamps strictly increase, so n of them ending on the last
        # day of the month are exactly the month's days.
        if end > len(stamps) or stamps[end - 1] != date(year, month, n_days):
            present = set(stamps[start:end])
            missing = [d for k in range(1, n_days + 1)
                       if (d := date(year, month, k)) not in present]
            raise DataError(
                f"month {label} incomplete: {len(missing)} missing days "
                f"(first {missing[0].isoformat()})"
            )
        episodes.append(
            MonthlyActuals(label, stamps[start:end], series.values[start:end])
        )
        # The month ended on its last day, so the next starts at `end`,
        # the index a search for its first day would give.
        start = end
    return episodes


def load_external_forecasts(path, month: MonthlyActuals) -> tuple[float, ...]:
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
    missing = [d for d in month.dates if d not in by_date]
    if missing:
        raise DataError(
            f"{path}: no forecast for {len(missing)} days of "
            f"{month.label} (first {missing[0].isoformat()})"
        )
    daily = tuple(map(by_date.__getitem__, month.dates))
    implied = pairwise_sum(daily)
    if totals and implied != 0 and abs(totals[0] - implied) > 1e-3 * abs(implied):
        warnings.warn(
            f"monthly total {totals[0]} differs from sum of daily "
            f"forecasts {implied} by more than 0.1%",
            stacklevel=2,
        )
    return daily
