"""Simple base forecasters and the per-cycle forecast container.

The revision agent is forecaster-agnostic: it consumes whatever daily
base forecasts exist for a cycle. These naive/seasonal/drift methods are
sane defaults when no external forecast file is supplied;
`forecast_month` picks one for a month and decides the fallbacks.
"""

from __future__ import annotations

import calendar
import re
import warnings
from dataclasses import dataclass
from math import isfinite

from .errors import InsufficientDataError, ShapeError
from .totals import pairwise_sum

_MONTH_LABEL = re.compile(r"^(\d{4})-(\d{2})$")


@dataclass(frozen=True)
class ForecastSet:
    """Daily base forecasts for one cycle plus the monthly total."""

    daily: tuple[float, ...]
    monthly_total: float
    cycle_label: str = ""

    def __post_init__(self) -> None:
        daily = tuple(map(float, self.daily))
        object.__setattr__(self, "daily", daily)
        if not daily:
            raise ShapeError("forecast cycle is empty")
        if not (all(map(isfinite, daily)) and isfinite(self.monthly_total)):
            raise ValueError("forecasts must be finite")
        match = _MONTH_LABEL.match(self.cycle_label)
        if match:
            year, month = int(match.group(1)), int(match.group(2))
            n_days = calendar.monthrange(year, month)[1]
            if len(daily) != n_days:
                raise ShapeError(
                    f"{self.cycle_label} has {n_days} days but got {len(daily)} forecasts"
                )

    @classmethod
    def from_daily(
        cls,
        daily,
        cycle_label: str = "",
        monthly_total: float | None = None,
    ) -> "ForecastSet":
        """Build a set whose total defaults to the sum of daily forecasts.

        An externally supplied total overrides the sum; if the two differ
        by more than 0.1% a coherence warning is emitted. The override
        reaches no output and no agent setting: the warning is its only
        effect.
        """
        daily = tuple(map(float, daily))
        implied = pairwise_sum(daily)
        if monthly_total is None:
            monthly_total = implied
        elif implied != 0 and abs(monthly_total - implied) > 1e-3 * abs(implied):
            warnings.warn(
                f"monthly total {monthly_total} differs from sum of daily "
                f"forecasts {implied} by more than 0.1%",
                stacklevel=2,
            )
        return cls(daily=daily, monthly_total=float(monthly_total), cycle_label=cycle_label)

    def __len__(self) -> int:
        return len(self.daily)


def naive(history, h: int) -> tuple[float, ...]:
    """Repeat the last observed value h steps ahead."""
    if len(history) == 0:
        raise InsufficientDataError("naive forecast needs at least one observation")
    if h < 1:
        raise ValueError("horizon must be positive")
    return (float(history[-1]),) * h


def seasonal_naive(history, period: int, h: int) -> tuple[float, ...]:
    """Repeat the last full seasonal cycle, wrapping past the period."""
    if period < 1:
        raise ValueError("period must be positive")
    if len(history) < period:
        raise InsufficientDataError(
            f"seasonal naive needs at least {period} observations, got {len(history)}"
        )
    if h < 1:
        raise ValueError("horizon must be positive")
    last_cycle = [float(x) for x in history[len(history) - period:]]
    return tuple(last_cycle[(k - 1) % period] for k in range(1, h + 1))


def drift(history, h: int) -> tuple[float, ...]:
    """Extend the straight line through the first and last observations."""
    if len(history) < 2:
        raise InsufficientDataError("drift forecast needs at least two observations")
    if h < 1:
        raise ValueError("horizon must be positive")
    first, last = float(history[0]), float(history[-1])
    slope = (last - first) / (len(history) - 1)
    return tuple(last + slope * k for k in range(1, h + 1))


def forecast_month(series, month, method: str, period: int) -> tuple[float, ...]:
    """Daily base forecasts for one month (a `data.MonthlyActuals`) from the
    values before it in ``series``, a `data.TimeSeries` with one value per
    calendar day. Short of history, and for any other method (an `external`
    file covers only the test cycle), this is `naive`; with no history at
    all, the month's own first observation repeated."""
    history = series.values[: (month.dates[0] - series.timestamps[0]).days]
    h = len(month)
    if not history:
        return (month.values[0],) * h
    try:
        if method == "seasonal_naive":
            return seasonal_naive(history, period, h)
        if method == "drift":
            return drift(history, h)
    except InsufficientDataError:
        pass
    return naive(history, h)
