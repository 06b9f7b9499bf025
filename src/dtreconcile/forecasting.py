"""Simple base forecasters.

The revision agent is forecaster-agnostic: it consumes whatever daily
base forecasts exist for a cycle. These naive/seasonal/drift methods are
sane defaults when no external forecast file is supplied (that file is
read by `data.load_external_forecasts`); `forecast_month` picks one for
a month and decides the fallbacks.

A horizon ``h`` of 0 gives ``()``; `RunConfig` has refused a ``period``
below 1, so neither is checked here.
"""

from __future__ import annotations

from datetime import date

from .errors import InsufficientDataError


def naive(history, h: int) -> tuple[float, ...]:
    """Repeat the last observed value h steps ahead."""
    if len(history) == 0:
        raise InsufficientDataError("naive forecast needs at least one observation")
    return (float(history[-1]),) * h


def seasonal_naive(history, period: int, h: int) -> tuple[float, ...]:
    """Repeat the last full seasonal cycle, wrapping past the period."""
    if len(history) < period:
        raise InsufficientDataError(
            f"seasonal naive needs at least {period} observations, got {len(history)}"
        )
    last_cycle = tuple(map(float, history[len(history) - period:]))
    return (last_cycle * (h // period + 1))[:h]


def drift(history, h: int) -> tuple[float, ...]:
    """Extend the straight line through the first and last observations."""
    if len(history) < 2:
        raise InsufficientDataError("drift forecast needs at least two observations")
    first, last = float(history[0]), float(history[-1])
    slope = (last - first) / (len(history) - 1)
    return tuple(last + slope * k for k in range(1, h + 1))


def lookback(method: str, period: int) -> int:
    """How many days before a month `forecast_month` reads: the last one
    for `naive`, and for `external`, whose training months fall back to
    `naive`; the last ``period`` for `seasonal_naive`, whose short-history
    fallback reads fewer; and for `drift`, every day from the series'
    first, more days than any calendar holds."""
    if method == "seasonal_naive":
        return period
    if method == "drift":
        return date.max.toordinal()
    return 1


def forecast_month(series, month, method: str, period: int) -> tuple[float, ...]:
    """Daily base forecasts for one month from the values before it in
    ``series``; both are `data.Calendar`s, whose values are one per day
    from their first day, so the month's offset from the series' first
    day is its count of history days. Short of history, and for any other method
    (an `external` file covers only the test cycle), this is `naive`; with
    no history at all, the month's own first observation repeated. Each
    method is handed only the window of the history it reads, at most
    `lookback` days before the month, so a calendar that starts that far
    before the month, or on the series' first day, gives the same
    forecasts as the whole calendar."""
    values, end = series.values, (month.start - series.start).days
    h = len(month)
    if not end:
        return (month.values[0],) * h
    try:
        if method == "seasonal_naive":
            return seasonal_naive(values[max(end - period, 0):end], period, h)
        if method == "drift":
            return drift(values[:end], h)
    except InsufficientDataError:
        pass
    return naive(values[end - 1:end], h)
