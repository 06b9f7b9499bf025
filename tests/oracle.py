"""Reference oracles for the agent's day loop and the ingest layer.

The per-step helpers the scalar kernel in `dtreconcile.agent` repeats:
`greedy_action`, `egreedy_probabilities`, `select_action` (one uniform
per call), `sarsa_step` (one TD update on day indices) and
`adjusted_forecast` (one day's move, which the kernel tabulates once per
walk). `run_episode` and `reconcile_online` as they stood before the
kernel: numpy scalars and one probability vector per policy call. Training records nothing;
online revision rebuilds the greedy sum over every day after each
update. The kernel must match them bit for bit (tests/test_kernel.py).
`greedy_action` looks up `agent._greedy` at each call, so a test that
patches the tie order reaches every choice the oracle makes.

`_parse_date`, `load_ohlcv_csv`, `fill_calendar` and `month_partition`
as they stood before the fast ingest path: `strptime` for every date, a
per-day `timedelta` calendar and a dict over every calendar day, and
`Month`, a month that keeps its own per-day dates. The functions in
`dtreconcile.data` must match them bit for bit, day by day
(tests/test_ingest.py).
"""

from __future__ import annotations

import calendar
import csv
from datetime import date, datetime, timedelta
from math import isfinite
from typing import NamedTuple

import numpy as np

from dtreconcile import agent
from dtreconcile.agent import (
    MAX_CYCLE_DAYS,
    N_ACTIONS,
    AgentConfig,
    CycleData,
    DayRecord,
    ValueTable,
)
from dtreconcile.data import (
    DEFAULT_DATE_COLUMN,
    DEFAULT_VALUE_COLUMN,
    TimeSeries,
    parse_month,
)
from dtreconcile.errors import DataError, ShapeError, StreamOrderError
from dtreconcile.totals import pairwise_sum


def greedy_action(q_row) -> int:
    """Argmax with ties resolved keep > decrease > increase."""
    q0, q1, q2 = (float(x) for x in q_row)
    return agent._greedy(q0, q1, q2)


def adjusted_forecast(y_hat_t, action: int, cfg: AgentConfig) -> float:
    """The day's forecast plus the action's delta times the unit, clamped
    at 0 under ``clamp_nonnegative``."""
    value = y_hat_t + (1.0, 0.0, -1.0)[action] * cfg.unit
    if cfg.clamp_nonnegative:
        value = max(value, 0.0)
    return float(value)


def egreedy_probabilities(q_row, epsilon: float) -> list[float]:
    """Epsilon-greedy selection probabilities over the three actions."""
    q_row = list(map(float, q_row))
    if len(q_row) != N_ACTIONS or not all(map(isfinite, q_row)):
        raise ValueError("need a finite Q row with one entry per action")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    probs = [epsilon / N_ACTIONS] * N_ACTIONS
    probs[greedy_action(q_row)] += 1.0 - epsilon
    return probs


def select_action(probs, rng) -> int:
    """Draw one action index with ``rng.random()``; consumes exactly one
    uniform variate."""
    probs = list(map(float, probs))
    if len(probs) != N_ACTIONS:
        raise ValueError(f"need {N_ACTIONS} probabilities")
    if any(p < 0 for p in probs) or not all(map(isfinite, probs)):
        raise ValueError("probabilities must be finite and nonnegative")
    total = pairwise_sum(probs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, not 1")
    u = rng.random()
    edge = 0.0
    for action in range(N_ACTIONS - 1):
        edge += probs[action]
        if u < edge:
            return action
    return N_ACTIONS - 1


def sarsa_step(
    table: ValueTable,
    t: int,
    a: int,
    r: float,
    t_next: int | None,
    a_next: int | None,
    cfg: AgentConfig,
) -> ValueTable:
    """One on-policy TD(0) update of day ``t``'s entries; ``t_next=None``
    is the terminal case.

    Q(t,a) moves toward r + gamma * Q(t',a'); V(t) is updated with the
    same rule against V(t') as a diagnostic.
    """
    alpha, gamma = cfg.step_size, cfg.discount
    if t_next is None:
        q_next = 0.0
        v_next = 0.0
    else:
        if a_next is None:
            raise ValueError("non-terminal update needs the successor action")
        q_next = table.q[t_next - 1][a_next]
        v_next = table.v[t_next - 1]
    row = table.q[t - 1]
    row[a] += alpha * (r + gamma * q_next - row[a])
    table.v[t - 1] += alpha * (r + gamma * v_next - table.v[t - 1])
    return table


def _policy_action(table: ValueTable, day_index: int, cfg: AgentConfig, rng) -> int:
    probs = egreedy_probabilities(table.q[day_index - 1], cfg.exploration)
    return select_action(probs, rng)


def _greedy_sum(table: ValueTable, forecasts, cfg: AgentConfig) -> float:
    """The RMF: every day's greedy-adjusted forecast under the current Q."""
    # Left to right: from Python 3.12 the builtin `sum` compensates rounding.
    total = 0.0
    for forecast, row in zip(forecasts, table.q):
        total += adjusted_forecast(forecast, greedy_action(row), cfg)
    return total


def run_episode(
    cycle: CycleData,
    table: ValueTable,
    cfg: AgentConfig,
    rng: np.random.Generator,
) -> ValueTable:
    """Traverse one training cycle, updating the table in place."""
    n = len(cycle.forecasts)
    action = _policy_action(table, 1, cfg, rng)
    for t in range(1, n + 1):
        if t < n:
            action_next = _policy_action(table, t + 1, cfg, rng)
            t_next = t + 1
        else:
            action_next = None
            t_next = None
        sarsa_step(table, t, action, float(cycle.actuals[t - 1]), t_next, action_next, cfg)
        action = action_next
    return table


def reconcile_online(
    table: ValueTable,
    forecasts,
    actual_stream,
    cfg: AgentConfig,
    rng: np.random.Generator,
) -> tuple[DayRecord, ...]:
    """Stream a test cycle's actuals and emit a record, with its revised
    total, per day.

    After each observed day the greedy action for every day of the cycle
    is recomputed from the current Q, and RMF is the sum of all n
    adjusted daily forecasts. Actuals influence the revision only
    through the TD updates (enabled by ``cfg.online_updates``), never by
    direct substitution.

    The stream holds bare values in day order and may cover only part of
    the cycle.
    """
    daily = tuple(map(float, forecasts))
    n = len(daily)
    if not 1 <= n <= MAX_CYCLE_DAYS:
        raise ShapeError(f"cycle length {n} outside 1..{MAX_CYCLE_DAYS}")
    records: list[DayRecord] = []
    action: int | None = None
    for t, item in enumerate(actual_stream, start=1):
        actual = float(item)
        if t > n:
            raise StreamOrderError(f"day {t} beyond the {n}-day cycle")
        if action is None:
            action = _policy_action(table, t, cfg, rng)
        if t < n:
            action_next = _policy_action(table, t + 1, cfg, rng)
            t_next = t + 1
        else:
            action_next = None
            t_next = None
        if cfg.online_updates:
            sarsa_step(table, t, action, actual, t_next, action_next, cfg)
        rmf = _greedy_sum(table, daily, cfg)
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
    return tuple(records)


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


class Month(NamedTuple):
    label: str
    dates: tuple[date, ...]
    values: tuple[float, ...]


def month_partition(series: TimeSeries, month_range: tuple[str, str]) -> list[Month]:
    """Split a calendar-complete series into full calendar months."""
    index = {d: v for d, v in zip(series.timestamps, series.values)}
    episodes = []
    (first_year, first_month), (last_year, last_month) = map(parse_month, month_range)
    for k in range(first_year * 12 + first_month - 1, last_year * 12 + last_month):
        year, month = divmod(k, 12)
        month += 1
        label = f"{year:04d}-{month:02d}"
        n_days = calendar.monthrange(year, month)[1]
        days = tuple(date(year, month, k) for k in range(1, n_days + 1))
        missing = [d for d in days if d not in index]
        if missing:
            raise DataError(
                f"month {label} incomplete: {len(missing)} missing days "
                f"(first {missing[0].isoformat()})"
            )
        values = np.array([index[d] for d in days])
        episodes.append(Month(label, days, tuple(values.tolist())))
    return episodes
