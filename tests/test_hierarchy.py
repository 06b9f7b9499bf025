"""Tests for aggregation matrices and coherence."""

from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtreconcile.data import TimeSeries
from dtreconcile.errors import HierarchyError, ShapeError
from dtreconcile.hierarchy import (
    AggregationMatrix,
    HierarchyVector,
    aggregate_bottom,
    build_two_level,
    coherence_residual,
)


def test_build_two_level_smallest():
    s = build_two_level(2)
    assert np.array_equal(s.entries, [[1, 1], [1, 0], [0, 1]])
    assert (s.n, s.m, s.r) == (3, 2, 1)


def test_build_two_level_degenerate_single_day():
    s = build_two_level(1)
    assert np.array_equal(s.entries, [[1], [1]])


def test_build_two_level_march():
    s = build_two_level(31)
    assert s.entries.shape == (32, 31)
    assert list(s.entries.sum(axis=1)) == [31] + [1] * 31


def test_build_two_level_rejects_zero():
    with pytest.raises(HierarchyError):
        build_two_level(0)


@pytest.mark.parametrize(
    "v, expected",
    [((4, 5), (9, 4, 5)), ((0, 0), (0, 0, 0)), ((10, 20), (30, 10, 20))],
)
def test_aggregate_bottom(v, expected):
    s = build_two_level(2)
    y = aggregate_bottom(np.array(v, dtype=float), s)
    assert np.array_equal(y.full, expected)
    assert np.array_equal(y.bottom(s), v)


def test_aggregate_bottom_shape_error():
    with pytest.raises(ShapeError):
        aggregate_bottom(np.ones(3), build_two_level(2))


@pytest.mark.parametrize(
    "y, expected",
    [((9, 4, 5), 0.0), ((12, 4, 5), 3.0), ((9.0000001, 4, 5), 1e-7)],
)
def test_coherence_residual(y, expected):
    s = build_two_level(2)
    assert coherence_residual(HierarchyVector(np.array(y)), s) == pytest.approx(
        expected, abs=1e-12
    )


def test_coherence_residual_shape_error():
    with pytest.raises(ShapeError):
        coherence_residual(HierarchyVector(np.ones(4)), build_two_level(2))


@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=31)
)
def test_aggregate_is_exactly_coherent(values):
    s = build_two_level(len(values))
    y = aggregate_bottom(np.array(values, dtype=float), s)
    assert coherence_residual(y, s) == 0.0


@given(
    st.integers(min_value=1, max_value=20),
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.data(),
)
def test_aggregate_bottom_is_linear(m, a, b, data):
    v1 = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m)))
    v2 = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m)))
    s = build_two_level(m)
    lhs = aggregate_bottom(a * v1 + b * v2, s).full
    rhs = a * aggregate_bottom(v1, s).full + b * aggregate_bottom(v2, s).full
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_two_level_row_and_column_counts():
    for m in (1, 2, 7, 31):
        s = build_two_level(m)
        assert s.entries.shape[0] == m + 1
        assert np.all(s.entries.sum(axis=0) == 2)


def test_aggregation_matrix_rejects_bad_bottom_block():
    with pytest.raises(HierarchyError):
        AggregationMatrix(np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])[::-1])


def test_aggregation_matrix_rejects_non_binary():
    with pytest.raises(HierarchyError):
        AggregationMatrix(np.array([[0.5, 1.0], [1.0, 0.0], [0.0, 1.0]]))


def test_timeseries_invariants():
    with pytest.raises(ValueError):
        TimeSeries((date(2020, 1, 2), date(2020, 1, 1)), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TimeSeries((date(2020, 1, 1),), np.array([np.nan]))
    with pytest.raises(ShapeError):
        TimeSeries((date(2020, 1, 1),), np.array([1.0, 2.0]))
