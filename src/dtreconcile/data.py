"""The daily series type, CSV ingestion (the OHLCV data and the external
forecast file), calendar completion, and monthly partitioning."""

from __future__ import annotations

import calendar
import csv
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, datetime
from math import isfinite

import numpy as np

from .errors import DataError, ShapeError
from .forecasting import ForecastSet

_DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%y")

DEFAULT_DATE_COLUMN = "Date"
DEFAULT_VALUE_COLUMN = "Open"


@dataclass(frozen=True)
class TimeSeries:
    """Daily observations: ordered calendar dates with finite values."""

    timestamps: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        if len(self.timestamps) != values.size:
            raise ShapeError(
                f"{len(self.timestamps)} timestamps but {values.size} values"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("time series values must be finite")
        for prev, cur in zip(self.timestamps, self.timestamps[1:]):
            if cur <= prev:
                raise ValueError(f"timestamps not strictly increasing at {cur}")

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


def _rows(path):
    """Every non-blank row of a CSV file as (line number, row). A byte that
    is not text decodes to U+FFFD, so its field fails to parse on its line."""
    try:
        fh = open(path, newline="", errors="replace")
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc}") from exc
    with fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if "".join(row).strip():
                yield line_no, row


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


def load_external_forecasts(path, month: MonthlyActuals) -> ForecastSet:
    """CSV `date,forecast` covering the test cycle, with an optional
    `monthly_total,<value>` override row. Every error names the file, and
    a bad or repeated row its line number."""
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
    daily = np.array([by_date[d] for d in month.dates])
    return ForecastSet.from_daily(daily, month.label,
                                  monthly_total=totals[0] if totals else None)
