"""CSV ingestion, calendar completion, and monthly partitioning."""

from __future__ import annotations

import calendar
import csv
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, datetime
from math import isfinite

import numpy as np

from .errors import DataError
from .hierarchy import TimeSeries

_DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%y")

DEFAULT_DATE_COLUMN = "Date"
DEFAULT_VALUE_COLUMN = "Open"


def _parse_date(text: str, line_no: int) -> date:
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
    raise DataError(f"line {line_no}: unparseable date {text!r}")


def _parse_value(text: str, path, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{path}: line {line_no}: unparseable value {text!r}") from None
    if not isfinite(value):
        raise DataError(f"{path}: line {line_no}: value {text!r} is not finite")
    return value


def load_ohlcv_csv(
    path,
    date_column: str = DEFAULT_DATE_COLUMN,
    value_column: str = DEFAULT_VALUE_COLUMN,
) -> TimeSeries:
    """Read one value column of a daily CSV into a sorted series.

    Accepts ISO (YYYY-MM-DD) and DD/MM/YY dates and finite values;
    rejects duplicate dates. Every error names the file, and a bad row
    its line number.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [name.strip() for name in header]
        for column in (date_column, value_column):
            if column not in header:
                raise DataError(f"{path}: missing column {column!r} (have {header})")
        date_idx = header.index(date_column)
        value_idx = header.index(value_column)
        min_fields = max(date_idx, value_idx) + 1
        observations: dict[date, float] = {}
        for line_no, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) < min_fields:
                raise DataError(f"{path}: line {line_no}: too few fields")
            try:
                day = _parse_date(row[date_idx], line_no)
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None
            value = _parse_value(row[value_idx], path, line_no)
            if day in observations:
                raise DataError(
                    f"{path}: line {line_no}: duplicate date {day.isoformat()}"
                )
            observations[day] = value
    if not observations:
        raise DataError(f"{path}: no data rows")
    days = sorted(observations)
    return TimeSeries(tuple(days), np.array([observations[d] for d in days]))


def fill_calendar(series: TimeSeries) -> TimeSeries:
    """Fill missing calendar days by linear interpolation between
    the nearest observed neighbors."""
    if len(series) == 0:
        raise DataError("cannot calendar-fill an empty series")
    origin = series.timestamps[0].toordinal()
    n_days = series.timestamps[-1].toordinal() - origin + 1
    if n_days == len(series):
        return series
    observed = np.fromiter(map(date.toordinal, series.timestamps), float, len(series))
    observed -= origin
    full = np.arange(n_days, dtype=float)
    values = np.interp(full, observed, series.values)
    days = tuple(map(date.fromordinal, range(origin, origin + n_days)))
    return TimeSeries(days, values)


@dataclass(frozen=True)
class MonthlyActuals:
    """One calendar month of daily observations."""

    label: str  # "YYYY-MM"
    dates: tuple[date, ...]
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.dates)


def parse_month(label: str) -> tuple[int, int]:
    try:
        year_str, month_str = label.split("-")
        year, month = int(year_str), int(month_str)
        if not 1 <= month <= 12:
            raise ValueError
    except ValueError:
        raise DataError(f"bad month label {label!r}; expected YYYY-MM") from None
    return year, month


def iter_months(start: str, end: str):
    """Yield YYYY-MM labels from start through end inclusive."""
    y0, m0 = parse_month(start)
    y1, m1 = parse_month(end)
    if (y0, m0) > (y1, m1):
        raise DataError(f"month range {start}..{end} is reversed")
    year, month = y0, m0
    while (year, month) <= (y1, m1):
        yield f"{year:04d}-{month:02d}"
        month += 1
        if month > 12:
            year, month = year + 1, 1


def month_partition(
    series: TimeSeries, month_range: tuple[str, str]
) -> list[MonthlyActuals]:
    """Split a calendar-complete series into full calendar months."""
    stamps = series.timestamps
    episodes = []
    for label in iter_months(*month_range):
        year, month = parse_month(label)
        n_days = calendar.monthrange(year, month)[1]
        start = bisect_left(stamps, date(year, month, 1))
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
            MonthlyActuals(label, stamps[start:end], series.values[start:end].copy())
        )
    return episodes
