"""Simple base forecasters and the per-cycle forecast container.

The revision agent is forecaster-agnostic: it consumes whatever daily
base forecasts exist for a cycle. These naive/seasonal/drift methods are
sane defaults when no external forecast file is supplied.
"""

from __future__ import annotations

import calendar
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ShapeError

_MONTH_LABEL = re.compile(r"^(\d{4})-(\d{2})$")


@dataclass(frozen=True)
class ForecastSet:
    """Daily base forecasts for one cycle plus the monthly total."""

    daily: np.ndarray
    monthly_total: float
    cycle_label: str = ""

    def __post_init__(self) -> None:
        daily = np.atleast_1d(np.asarray(self.daily, dtype=float))
        object.__setattr__(self, "daily", daily)
        if daily.size == 0:
            raise ShapeError("forecast cycle is empty")
        if not np.all(np.isfinite(daily)) or not np.isfinite(self.monthly_total):
            raise ValueError("forecasts must be finite")
        match = _MONTH_LABEL.match(self.cycle_label)
        if match:
            year, month = int(match.group(1)), int(match.group(2))
            n_days = calendar.monthrange(year, month)[1]
            if daily.size != n_days:
                raise ShapeError(
                    f"{self.cycle_label} has {n_days} days but got {daily.size} forecasts"
                )

    @classmethod
    def from_daily(
        cls,
        daily: np.ndarray,
        cycle_label: str = "",
        monthly_total: float | None = None,
    ) -> "ForecastSet":
        """Build a set whose total defaults to the sum of daily forecasts.

        An externally supplied total overrides the sum; if the two differ
        by more than 0.1% a coherence warning is emitted.
        """
        daily = np.atleast_1d(np.asarray(daily, dtype=float))
        implied = float(daily.sum())
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
        return int(self.daily.size)


def _history_values(history) -> np.ndarray:
    return np.atleast_1d(np.asarray(history, dtype=float))


def naive(history, h: int) -> np.ndarray:
    """Repeat the last observed value h steps ahead."""
    values = _history_values(history)
    if values.size == 0:
        raise InsufficientDataError("naive forecast needs at least one observation")
    if h < 1:
        raise ValueError("horizon must be positive")
    return np.full(h, values[-1])


def seasonal_naive(history, period: int, h: int) -> np.ndarray:
    """Repeat the last full seasonal cycle, wrapping past the period."""
    values = _history_values(history)
    if period < 1:
        raise ValueError("period must be positive")
    if values.size < period:
        raise InsufficientDataError(
            f"seasonal naive needs at least {period} observations, got {values.size}"
        )
    if h < 1:
        raise ValueError("horizon must be positive")
    last_cycle = values[values.size - period:]
    return np.array([last_cycle[(k - 1) % period] for k in range(1, h + 1)])


def drift(history, h: int) -> np.ndarray:
    """Extend the straight line through the first and last observations."""
    values = _history_values(history)
    if values.size < 2:
        raise InsufficientDataError("drift forecast needs at least two observations")
    if h < 1:
        raise ValueError("horizon must be positive")
    slope = (values[-1] - values[0]) / (values.size - 1)
    return values[-1] + slope * np.arange(1, h + 1)
