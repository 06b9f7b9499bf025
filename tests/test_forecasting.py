"""Tests for the base forecasters."""

from datetime import date, timedelta

import numpy as np
import pytest

from dtreconcile import cli, forecasting
from dtreconcile.data import Calendar, fill_calendar, month_partition
from dtreconcile.errors import InsufficientDataError
from dtreconcile.forecasting import drift, forecast_month, naive, seasonal_naive

from conftest import nifty_like_value, write_daily_csv


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
    # Below the period, no day at all, and past a multiple of it, from the
    # last seven of a longer history.
    for h in (3, 0, 23):
        expected = tuple(week[(k - 1) % 7] for k in range(1, h + 1))
        assert seasonal_naive([0.5, 0.25, *week], 7, h) == expected, h
    assert seasonal_naive(week, 7, 0) == ()


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
    for h in (0, 1, 5, 40):  # a horizon of 0 gives ()
        out = fn(*args, h)
        assert np.shape(out) == (h,)
        assert np.all(np.isfinite(out))


def test_naive_outputs_are_observed_values():
    history = [3.0, 1.0, 4.0, 1.0, 5.0]
    assert set(naive(history, 6)).issubset(set(history))
    assert set(seasonal_naive(history, 2, 6)).issubset(set(history))


def test_forecast_month_falls_back_to_naive(monkeypatch):
    history = np.array([1.0, 2.0, 3.0])
    start = date(2020, 1, 29)  # three days of history before February
    days = tuple(start + timedelta(days=k) for k in range(32))
    series = Calendar(start, tuple(np.concatenate([history, np.full(29, 7.0)]).tolist()))
    month = Calendar(days[3], series.values[3:])
    assert np.array_equal(forecast_month(series, month, "seasonal_naive", 2),
                          seasonal_naive(history, 2, 29))
    assert np.array_equal(forecast_month(series, month, "drift", 7), drift(history, 29))
    # Short of history, or with no method of its own: naive.
    short = Calendar(days[2], series.values[2:])
    for method, period, data in (("seasonal_naive", 4, series), ("drift", 7, short),
                                 ("naive", 7, series), ("external", 7, series)):
        assert np.array_equal(forecast_month(data, month, method, period),
                              naive(data.values[:-29], 29)), method
    # No history at all: the month's own first observation.
    assert np.array_equal(forecast_month(month, month, "drift", 7), np.full(29, 7.0))
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


@pytest.mark.parametrize("method, period", [("naive", 7), ("seasonal_naive", 1),
                                            ("seasonal_naive", 7), ("seasonal_naive", 40),
                                            ("drift", 7)])
def test_forecast_month_equals_the_method_on_the_whole_history(method, period):
    # Each method is handed only the window it reads; on a multi-year
    # series that must change no forecast, nor when a short history falls
    # back to naive (period 40 in the first month).
    start = date(2017, 1, 1)
    days = tuple(start + timedelta(days=k) for k in range((date(2020, 4, 1) - start).days))
    values = tuple(1000.0 + 0.37 * k + 25.0 * np.sin(k / 5.0) for k in range(len(days)))
    series = Calendar(start, values)
    methods = {"naive": lambda history, h: naive(history, h),
               "seasonal_naive": lambda history, h: seasonal_naive(history, period, h),
               "drift": drift}
    for month in month_partition(series, ("2017-02", "2020-03")):
        history = values[: days.index(month.dates[0])]
        try:
            expected = methods[method](history, len(month))
        except InsufficientDataError:
            expected = naive(history, len(month))
        assert forecast_month(series, month, method, period) == expected, month.label


@pytest.mark.parametrize("method, period", [("naive", 7), ("seasonal_naive", 1),
                                            ("seasonal_naive", 7), ("seasonal_naive", 40),
                                            ("drift", 7)])
@pytest.mark.parametrize("first_day", [date(2020, 1, 1), date(2019, 12, 28),
                                       date(2019, 11, 20), date(2016, 1, 4)])
def test_forecast_month_is_the_same_on_the_window_load_fills(tmp_path, method, period,
                                                             first_day):
    # `cli.load` fills from a month less the method's `lookback`, clipped
    # to the data's first day; every month it covers must be forecast as
    # on the whole calendar. The data start on the first training month's
    # first day, a weekend before it, a month and more before it, and
    # years before it, so the clipping, the short-history fallback, the
    # "no history at all" branch and drift's whole history are all reached.
    path = tmp_path / "daily.csv"
    write_daily_csv(path, first_day, date(2020, 6, 30), nifty_like_value)
    labels = ["2020-01", "2020-02", "2020-03", "2020-04", "2020-05"]
    for k, train_start in enumerate(labels[:3]):
        config = cli.RunConfig(data_path=str(path), train_start=train_start,
                               train_end="2020-04", test_month="2020-05",
                               forecaster=method, seasonal_period=period)
        for fill_from, months in (("train_start", labels[k:]), ("test_month", labels[-1:])):
            series, window, _ = cli.load(config, fill_from)
            whole = fill_calendar(series)
            first = date(*map(int, months[0].split("-")), 1).toordinal()
            assert window.start.toordinal() == max(
                first - forecasting.lookback(method, period), series.timestamps[0].toordinal())
            for label in months:
                (month,), (whole_month,) = (month_partition(calendar, (label, label))
                                            for calendar in (window, whole))
                assert (list(map(float.hex, forecast_month(window, month, method, period)))
                        == list(map(float.hex, forecast_month(whole, whole_month, method,
                                                              period)))), (label, fill_from)
