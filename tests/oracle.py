"""Reference oracles for the agent's day loop and the ingest layer.

`run_episode` and `reconcile_online` as they stood before the scalar
kernel: numpy scalars, one probability vector and one `EpisodeState` per
policy call, and an O(n^2) greedy look-ahead per day. The kernel in
`dtreconcile.agent` must match them bit for bit (tests/test_kernel.py).

`_parse_date`, `load_ohlcv_csv`, `fill_calendar` and `month_partition`
as they stood before the fast ingest path: `strptime` for every date, a
per-day `timedelta` calendar and a dict over every calendar day. The
functions in `dtreconcile.data` must match them bit for bit
(tests/test_ingest.py).
"""

from __future__ import annotations

import calendar
import csv
from datetime import date, datetime, timedelta
from typing import Iterable

import numpy as np

from dtreconcile.agent import (
    MAX_CYCLE_DAYS,
    AgentConfig,
    CycleData,
    DayRecord,
    EpisodeState,
    ReconciliationTrace,
    ValueTable,
    adjusted_forecast,
    egreedy_probabilities,
    greedy_action,
    sarsa_step,
    select_action,
)
from dtreconcile.data import (
    DEFAULT_DATE_COLUMN,
    DEFAULT_VALUE_COLUMN,
    MonthlyActuals,
    TimeSeries,
    iter_months,
    parse_month,
)
from dtreconcile.errors import DataError, ShapeError, StreamOrderError
from dtreconcile.forecasting import ForecastSet


def _state(day_index: int, monthly_total: float, forecasts: np.ndarray) -> EpisodeState:
    remaining = monthly_total - float(np.sum(forecasts[:day_index]))
    return EpisodeState(day_index=day_index, remaining_total=remaining)


def _policy_action(table: ValueTable, day_index: int, cfg: AgentConfig,
                   rng: np.random.Generator) -> int:
    probs = egreedy_probabilities(table.q_row(day_index), cfg.exploration)
    return select_action(probs, rng)


def _greedy_sum(table: ValueTable, forecasts: np.ndarray, cfg: AgentConfig,
                days: Iterable[int]) -> float:
    # Left to right: from Python 3.12 the builtin `sum` compensates rounding.
    total = 0.0
    for t in days:
        total += adjusted_forecast(forecasts[t - 1], greedy_action(table.q_row(t)), cfg)
    return total


def run_episode(
    cycle: CycleData,
    table: ValueTable,
    cfg: AgentConfig,
    rng: np.random.Generator,
) -> tuple[ValueTable, ReconciliationTrace]:
    """Traverse one training cycle, updating the table in place.

    The trace's RMF for day t sums the committed adjusted forecasts of
    days 1..t plus greedy adjustments of the remaining days under the
    current Q.
    """
    n = len(cycle.forecasts)
    m = cycle.monthly_total
    records: list[DayRecord] = []
    committed_sum = 0.0
    action = _policy_action(table, 1, cfg, rng)
    for t in range(1, n + 1):
        reward = float(cycle.actuals[t - 1])
        state = _state(t, m, cycle.forecasts)
        if t < n:
            action_next = _policy_action(table, t + 1, cfg, rng)
            state_next = _state(t + 1, m, cycle.forecasts)
        else:
            action_next = None
            state_next = None
        sarsa_step(table, state, action, reward, state_next, action_next, cfg)
        committed_sum += adjusted_forecast(cycle.forecasts[t - 1], action, cfg)
        rmf = committed_sum + _greedy_sum(table, cycle.forecasts, cfg, range(t + 1, n + 1))
        records.append(
            DayRecord(
                day_index=t,
                action=action,
                adjusted_forecast=adjusted_forecast(cycle.forecasts[t - 1], action, cfg),
                actual=reward,
                rmf=rmf,
            )
        )
        action = action_next
    return table, ReconciliationTrace(tuple(records), monthly_total=m)


def _iter_stream(actual_stream) -> Iterable[tuple[int | None, float]]:
    for item in actual_stream:
        if isinstance(item, (tuple, list)) and len(item) == 2:
            yield int(item[0]), float(item[1])
        else:
            yield None, float(item)


def reconcile_online(
    table: ValueTable,
    forecast: ForecastSet,
    actual_stream,
    cfg: AgentConfig,
    rng: np.random.Generator,
) -> ReconciliationTrace:
    """Stream a test cycle's actuals and emit a revised total per day.

    After each observed day the greedy action for every day of the cycle
    is recomputed from the current Q, and RMF is the sum of all n
    adjusted daily forecasts. Actuals influence the revision only
    through the TD updates (enabled by ``cfg.online_updates``), never by
    direct substitution.

    The stream may cover only part of the cycle; items are either bare
    values or (day_index, value) pairs, which must arrive in day order.
    """
    n = len(forecast)
    if n > MAX_CYCLE_DAYS:
        raise ShapeError(f"cycle length {n} exceeds {MAX_CYCLE_DAYS}")
    daily = forecast.daily
    m = forecast.monthly_total
    records: list[DayRecord] = []
    action: int | None = None
    for expected_day, (day, actual) in enumerate(_iter_stream(actual_stream), start=1):
        if day is not None and day != expected_day:
            raise StreamOrderError(
                f"expected day {expected_day}, got day {day}"
            )
        t = expected_day
        if t > n:
            raise StreamOrderError(f"day {t} beyond the {n}-day cycle")
        if action is None:
            action = _policy_action(table, t, cfg, rng)
        if t < n:
            action_next = _policy_action(table, t + 1, cfg, rng)
            state_next = _state(t + 1, m, daily)
        else:
            action_next = None
            state_next = None
        if cfg.online_updates:
            state = _state(t, m, daily)
            sarsa_step(table, state, action, actual, state_next, action_next, cfg)
        rmf = _greedy_sum(table, daily, cfg, range(1, n + 1))
        records.append(
            DayRecord(
                day_index=t,
                action=action,
                adjusted_forecast=adjusted_forecast(daily[t - 1], action, cfg),
                actual=actual,
                rmf=rmf,
            )
        )
        action = action_next
    return ReconciliationTrace(tuple(records), monthly_total=m)


_DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%y")


def _parse_date(text: str, line_no: int) -> date:
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(text.strip(), fmt).date()
        except ValueError:
            continue
    raise DataError(f"line {line_no}: unparseable date {text!r}")


def load_ohlcv_csv(
    path,
    date_column: str = DEFAULT_DATE_COLUMN,
    value_column: str = DEFAULT_VALUE_COLUMN,
) -> TimeSeries:
    """Read one value column of a daily CSV into a sorted series.

    Accepts ISO (YYYY-MM-DD) and DD/MM/YY dates; rejects duplicate
    dates and reports parse failures with their line number.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
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
        observations: dict[date, float] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(date_idx, value_idx):
                raise DataError(f"line {line_no}: too few fields")
            day = _parse_date(row[date_idx], line_no)
            try:
                value = float(row[value_idx])
            except ValueError:
                raise DataError(
                    f"line {line_no}: unparseable value {row[value_idx]!r}"
                ) from None
            if day in observations:
                raise DataError(f"line {line_no}: duplicate date {day.isoformat()}")
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
    first, last = series.timestamps[0], series.timestamps[-1]
    n_days = (last - first).days + 1
    if n_days == len(series):
        return series
    observed = np.array([(d - first).days for d in series.timestamps], dtype=float)
    full = np.arange(n_days, dtype=float)
    values = np.interp(full, observed, series.values)
    days = tuple(first + timedelta(days=int(k)) for k in range(n_days))
    return TimeSeries(days, values)


def month_partition(
    series: TimeSeries, month_range: tuple[str, str]
) -> list[MonthlyActuals]:
    """Split a calendar-complete series into full calendar months."""
    index = {d: v for d, v in zip(series.timestamps, series.values)}
    episodes = []
    for label in iter_months(*month_range):
        year, month = parse_month(label)
        n_days = calendar.monthrange(year, month)[1]
        days = tuple(date(year, month, k) for k in range(1, n_days + 1))
        missing = [d for d in days if d not in index]
        if missing:
            raise DataError(
                f"month {label} incomplete: {len(missing)} missing days "
                f"(first {missing[0].isoformat()})"
            )
        episodes.append(
            MonthlyActuals(label, days, np.array([index[d] for d in days]))
        )
    return episodes
