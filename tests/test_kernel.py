"""The scalar day-loop kernel against the reference oracle, bit for bit."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from dtreconcile.agent import (
    MAX_CYCLE_DAYS,
    N_ACTIONS,
    AgentConfig,
    CycleData,
    ValueTable,
    init_state_values,
    reconcile_online,
    run_episode,
    train,
)
from dtreconcile.errors import DistributionError, StreamOrderError
from dtreconcile.forecasting import ForecastSet
from dtreconcile.seeding import rng_for

EXAMPLES = settings(max_examples=40, deadline=None)

# Small integers make ties in Q and equal forecasts likely; zero and
# negative values are in range on purpose.
values = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
)
epsilons = st.one_of(st.sampled_from([0.0, 1.0]),
                     st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@st.composite
def configs(draw):
    return AgentConfig(
        tolerance=draw(st.floats(1e-3, 1e3)),
        exploration=draw(epsilons),
        step_size=draw(st.floats(0.0, 1.0, exclude_min=True)),
        discount=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)),
        online_updates=draw(st.booleans()),
        adjustment_unit=draw(st.none() | st.floats(1e-3, 1e3)),
        clamp_nonnegative=draw(st.booleans()),
    )


@st.composite
def cycles(draw):
    n = draw(st.integers(1, MAX_CYCLE_DAYS))
    forecasts = draw(st.lists(values, min_size=n, max_size=n))
    actuals = draw(st.lists(values, min_size=n, max_size=n))
    total = draw(st.just(float(sum(forecasts))) | values)
    return CycleData(np.array(forecasts), np.array(actuals), total)


tables = st.builds(
    lambda q, v: ValueTable(np.array(q).reshape(MAX_CYCLE_DAYS, N_ACTIONS), np.array(v)),
    st.lists(values, min_size=MAX_CYCLE_DAYS * N_ACTIONS, max_size=MAX_CYCLE_DAYS * N_ACTIONS),
    st.lists(values, min_size=MAX_CYCLE_DAYS, max_size=MAX_CYCLE_DAYS),
)


def bits(records):
    """Records with every float as its exact hex form."""
    return [(r.day_index, r.action, float(r.adjusted_forecast).hex(), float(r.actual).hex(),
             float(r.rmf).hex()) for r in records]


def assert_same_tables(a: ValueTable, b: ValueTable):
    assert a.q.tobytes() == b.q.tobytes()
    assert a.v.tobytes() == b.v.tobytes()


@EXAMPLES
@given(cycles(), tables, configs(), st.integers(0, 2**32))
def test_run_episode_matches_oracle(cycle, table, cfg, seed):
    kernel_table, oracle_table = table.copy(), table.copy()
    kernel_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    _, trace = run_episode(cycle, kernel_table, cfg, kernel_rng)
    _, expected = oracle.run_episode(cycle, oracle_table, cfg, oracle_rng)
    assert bits(trace.records) == bits(expected.records)
    assert trace.monthly_total == expected.monthly_total
    assert_same_tables(kernel_table, oracle_table)
    next_draw = oracle_rng.random()
    assert kernel_rng.random() == next_draw

    untraced_table, untraced_rng = table.copy(), np.random.default_rng(seed)
    _, empty = run_episode(cycle, untraced_table, cfg, untraced_rng, record=False)
    assert len(empty) == 0
    assert_same_tables(untraced_table, oracle_table)
    assert untraced_rng.random() == next_draw


@EXAMPLES
@given(st.lists(cycles(), min_size=1, max_size=4), configs(), st.integers(0, 3))
def test_train_equals_oracle_passes(history, cfg, episodes):
    cfg = replace(cfg, episodes=episodes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the step-size divergence warning
        trained = train(history, cfg)
    expected = init_state_values(history[0].monthly_total, history[0].forecasts)
    rng = rng_for(cfg.seed, "train")
    for _ in range(episodes):
        for cycle in history:
            oracle.run_episode(cycle, expected, cfg, rng)
    assert_same_tables(trained, expected)


@st.composite
def streams(draw, n):
    """Actuals as bare values or (day, value) pairs: the whole cycle, a
    prefix, one day too many, or pairs that skip a day."""
    actuals = draw(st.lists(values, min_size=n + 1, max_size=n + 1))
    kind = draw(st.sampled_from(["whole", "prefix", "too_long", "skips_a_day"]))
    if kind == "whole":
        stream = actuals[:n]
    elif kind == "prefix":
        stream = actuals[: draw(st.integers(0, n - 1))]
    elif kind == "too_long":
        stream = actuals
    else:
        stream = actuals[:n]
        days = list(range(1, n + 1))
        skip = draw(st.integers(0, n - 1))
        days[skip:] = [day + 1 for day in days[skip:]]
        return list(zip(days, stream))
    if draw(st.booleans()):
        return list(enumerate(stream, start=1))
    return stream


@EXAMPLES
@given(st.data(), tables, configs(), st.integers(0, 2**32))
def test_reconcile_online_matches_oracle(data, table, cfg, seed):
    n = data.draw(st.integers(1, MAX_CYCLE_DAYS))
    forecasts = data.draw(st.lists(values, min_size=n, max_size=n))
    forecast = ForecastSet(np.array(forecasts), data.draw(values))
    stream = data.draw(streams(n))
    outcomes, finals = [], []
    for reconcile in (reconcile_online, oracle.reconcile_online):
        run_table, rng = table.copy(), np.random.default_rng(seed)
        try:
            trace = reconcile(run_table, forecast, iter(stream), cfg, rng)
            outcomes.append((bits(trace.records), trace.monthly_total))
        except StreamOrderError as exc:
            outcomes.append(str(exc))
        finals.append((run_table, rng.random()))
    assert outcomes[0] == outcomes[1]
    (kernel_table, kernel_next), (oracle_table, oracle_next) = finals
    assert_same_tables(kernel_table, oracle_table)
    assert kernel_next == oracle_next


def test_nan_discount_raises_distribution_error_in_both():
    """A NaN discount, which AgentConfig rejects, poisons the Q rows it
    updates; the next policy read of such a row raises in both loops."""
    cycle = CycleData(np.array([10.0, 20.0, 30.0]), np.array([12.0, 18.0, 33.0]), 60.0)
    cfg = AgentConfig(tolerance=1.0, exploration=0.1, episodes=2)
    object.__setattr__(cfg, "discount", math.nan)
    with pytest.raises(DistributionError):
        train([cycle], cfg)
    tables = []
    for episode in (run_episode, oracle.run_episode):
        table = init_state_values(cycle.monthly_total, cycle.forecasts)
        rng = rng_for(0, "nan")
        episode(cycle, table, cfg, rng)
        with pytest.raises(DistributionError):
            episode(cycle, table, cfg, rng)
        tables.append(table)
    assert np.isnan(tables[0].q).any()
    assert np.array_equal(tables[0].q, tables[1].q, equal_nan=True)
    assert np.array_equal(tables[0].v, tables[1].v, equal_nan=True)
