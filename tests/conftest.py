"""Shared fixtures and synthetic data builders."""

from __future__ import annotations

import csv
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import settings

from dtreconcile.agent import CycleData

# Every run draws the same examples: a random draw could turn the suite
# red on one run and not the next. The modules' `settings(...)` objects,
# built after this file loads, inherit the profile; derandomize also
# turns off the example database. Edges that random draws once found are
# pinned as explicit cases instead.
settings.register_profile("fixed-draws", derandomize=True)
settings.load_profile("fixed-draws")


def write_daily_csv(
    path,
    start: date,
    end: date,
    value_fn,
    skip_weekends: bool = True,
    date_format: str = "%Y-%m-%d",
) -> None:
    """Write a Date,Open,High,Low,Close,Volume CSV, one row per weekday."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Date", "Open", "High", "Low", "Close", "Volume"])
        day = start
        while day <= end:
            if not (skip_weekends and day.weekday() >= 5):
                value = value_fn(day)
                writer.writerow(
                    [day.strftime(date_format), f"{value:.2f}", f"{value * 1.01:.2f}",
                     f"{value * 0.99:.2f}", f"{value:.2f}", "1000"]
                )
            day += timedelta(days=1)


def nifty_like_value(day: date) -> float:
    """Smooth level with a deterministic wiggle and a March 2020 collapse."""
    t = (day - date(2019, 1, 1)).days
    level = 11000.0 + 2.0 * t + 150.0 * np.sin(t / 9.0)
    if day >= date(2020, 3, 10):
        level *= 0.8
    return float(level)


@pytest.fixture
def daily_csv(tmp_path):
    path = tmp_path / "daily.csv"
    write_daily_csv(path, date(2018, 12, 1), date(2020, 3, 31), nifty_like_value)
    return path


def regime_shift_cycles(
    n_days: int = 30,
    n_train: int = 14,
    level: float = 100.0,
    drop_from_day: int = 10,
    drop_fraction: float = 0.2,
) -> tuple[list[CycleData], CycleData]:
    """Stationary flat training cycles, then a test cycle whose actuals
    fall ``drop_fraction`` below forecasts from ``drop_from_day`` onward."""
    flat = np.full(n_days, level)
    training = [
        CycleData(flat, flat) for _ in range(n_train)
    ]
    actuals = flat.copy()
    actuals[drop_from_day - 1:] *= 1.0 - drop_fraction
    test = CycleData(flat, actuals)
    return training, test


# Daily base forecast column of the reference test cycle (March 2020),
# used for tolerance-resolution checks against an external forecast file.
REFERENCE_FORECASTS = [
    11354, 11472, 11513, 11527, 11536, 11668, 11668, 11786, 11783, 11783,
    11783, 11877, 11877, 11877, 11877, 11877, 11927, 11968, 12001, 12001,
    12023, 12023, 12006, 12000, 11998, 11998, 12111, 12111, 12111, 12077,
    12091,
]

REFERENCE_ACTUALS = [
    11386, 11387, 11218, 11351, 11306, 10943, 10876, 10809, 10742, 10538,
    10334, 10040, 9108, 9268, 9428, 9588, 9285, 9088, 8063, 8284,
    8172, 8059, 7946, 7848, 7735, 8451, 8949, 8761, 8574, 8386,
    8529,
]
