"""Tests for the base forecasters and the per-cycle container."""

from datetime import date, timedelta

import numpy as np
import pytest

from dtreconcile import forecasting
from dtreconcile.data import MonthlyActuals, TimeSeries
from dtreconcile.errors import InsufficientDataError, ShapeError
from dtreconcile.forecasting import ForecastSet, drift, forecast_month, naive, seasonal_naive


def test_naive_repeats_last():
    assert np.array_equal(naive([3.0, 7.0, 10.0], 3), [10, 10, 10])
    assert np.array_equal(naive([5.0], 1), [5])
    assert np.array_equal(naive([1.0, 2.0, 3.0], 2), [3, 3])


def test_naive_empty_history():
    with pytest.raises(InsufficientDataError):
        naive([], 1)


def test_seasonal_naive_repeats_last_week():
    week = [1.0, 2, 3, 4, 5, 6, 7]
    assert np.array_equal(seasonal_naive(week, 7, 7), week)
    assert np.array_equal(seasonal_naive(week, 7, 9), week + [1, 2])


def test_seasonal_naive_period_one_is_naive():
    history = [4.0, 9.0, 2.0]
    assert np.array_equal(seasonal_naive(history, 1, 5), naive(history, 5))


def test_seasonal_naive_short_history():
    with pytest.raises(InsufficientDataError):
        seasonal_naive([1.0, 2.0], 7, 3)


def test_drift_hand_examples():
    assert np.allclose(drift([10.0, 16.0], 2), [22, 28])
    assert np.allclose(drift([0.0, 1, 2, 3], 1), [4])
    assert np.allclose(drift([5.0, 5, 5], 4), [5, 5, 5, 5])


def test_drift_extends_arithmetic_progression():
    history = np.arange(1.0, 20.0, 0.5)
    expected = history[-1] + 0.5 * np.arange(1, 8)
    assert np.max(np.abs(drift(history, 7) - expected)) <= 1e-12 * np.max(expected)


def test_drift_needs_two_points():
    with pytest.raises(InsufficientDataError):
        drift([1.0], 2)


@pytest.mark.parametrize("fn, args", [
    (naive, ([1.0, 2.0],)),
    (seasonal_naive, ([1.0, 2.0, 3.0], 3)),
    (drift, ([1.0, 2.0],)),
])
def test_forecasters_return_h_finite_values(fn, args):
    for h in (1, 5, 40):
        out = fn(*args, h)
        assert out.shape == (h,)
        assert np.all(np.isfinite(out))


def test_naive_outputs_are_observed_values():
    history = [3.0, 1.0, 4.0, 1.0, 5.0]
    assert set(naive(history, 6)).issubset(set(history))
    assert set(seasonal_naive(history, 2, 6)).issubset(set(history))


def test_forecast_set_total_defaults_to_sum():
    fs = ForecastSet.from_daily([10.0, 20.0, 30.0], "cycle")
    assert fs.monthly_total == 60.0


def test_forecast_set_override_warns_on_incoherence():
    with pytest.warns(UserWarning):
        ForecastSet.from_daily([10.0, 20.0, 30.0], "cycle", monthly_total=70.0)


def test_forecast_set_override_within_tolerance_is_silent():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fs = ForecastSet.from_daily([100.0] * 10, "cycle", monthly_total=1000.5)
    assert fs.monthly_total == 1000.5


def test_forecast_set_calendar_label_checks_day_count():
    with pytest.raises(ShapeError):
        ForecastSet.from_daily([1.0] * 30, "2020-03")  # March has 31 days
    fs = ForecastSet.from_daily([1.0] * 29, "2020-02")  # leap year
    assert len(fs) == 29


def test_forecast_month_falls_back_to_naive(monkeypatch):
    history = np.array([1.0, 2.0, 3.0])
    start = date(2020, 1, 29)  # three days of history before February
    days = tuple(start + timedelta(days=k) for k in range(32))
    series = TimeSeries(days, np.concatenate([history, np.full(29, 7.0)]))
    month = MonthlyActuals("2020-02", days[3:], series.values[3:])
    assert np.array_equal(forecast_month(series, month, "seasonal_naive", 2),
                          seasonal_naive(history, 2, 29))
    assert np.array_equal(forecast_month(series, month, "drift", 7), drift(history, 29))
    # Short of history, or with no method of its own: naive.
    short = TimeSeries(days[2:], series.values[2:])
    for method, period, data in (("seasonal_naive", 4, series), ("drift", 7, short),
                                 ("naive", 7, series), ("external", 7, series)):
        assert np.array_equal(forecast_month(data, month, method, period),
                              naive(data.values[:-29], 29)), method
    # No history at all: the month's own first observation.
    first = TimeSeries(month.dates, month.values)
    assert np.array_equal(forecast_month(first, month, "drift", 7), np.full(29, 7.0))
    # The forecasters are looked up as module globals, so a wrapper sees each call.
    calls = []
    for name in ("naive", "seasonal_naive", "drift"):
        original = getattr(forecasting, name)
        monkeypatch.setattr(forecasting, name,
                            lambda *args, name=name, original=original:
                            calls.append(name) or original(*args))
    forecast_month(series, month, "seasonal_naive", 4)
    forecast_month(series, month, "drift", 7)
    assert calls == ["seasonal_naive", "naive", "drift"]
