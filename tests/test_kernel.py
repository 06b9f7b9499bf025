"""The scalar day-loop kernel against the reference oracle, bit for bit."""

import math
import warnings

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
from dtreconcile.seeding import rng_for

EXAMPLES = settings(max_examples=40, deadline=None)

# Small integers make ties in Q and equal forecasts likely; zero and
# negative values are in range on purpose, and -0.0 pins that "keep" adds
# 0.0 to a forecast of -0.0, as every adjusted forecast adds its move.
values = st.one_of(
    st.just(-0.0),
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
    assert [[x.hex() for x in row] for row in a.q] == [[x.hex() for x in row] for row in b.q]
    assert [x.hex() for x in a.v] == [x.hex() for x in b.v]


@EXAMPLES
@given(cycles(), tables, configs(), st.integers(0, 2**32))
def test_run_episode_matches_oracle(cycle, table, cfg, seed):
    kernel_table, oracle_table = table.copy(), table.copy()
    kernel_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    run_episode(cycle, kernel_table, cfg, kernel_rng.random)
    oracle.run_episode(cycle, oracle_table, cfg, oracle_rng)
    assert_same_tables(kernel_table, oracle_table)
    assert kernel_rng.random() == oracle_rng.random()


@EXAMPLES
@given(st.lists(cycles(), min_size=1, max_size=4), configs(), st.integers(0, 3))
def test_train_equals_oracle_passes(history, cfg, episodes):
    cfg = cfg._replace(episodes=episodes)
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
    """Actuals as bare values: the whole cycle, a prefix, or one day too many."""
    actuals = draw(st.lists(values, min_size=n + 1, max_size=n + 1))
    kind = draw(st.sampled_from(["whole", "prefix", "too_long"]))
    if kind == "whole":
        return actuals[:n]
    if kind == "prefix":
        return actuals[: draw(st.integers(0, n - 1))]
    return actuals


@EXAMPLES
@given(st.data(), tables, configs(), st.integers(0, 2**32))
def test_reconcile_online_matches_oracle(data, table, cfg, seed):
    n = data.draw(st.integers(1, MAX_CYCLE_DAYS))
    forecasts = data.draw(st.lists(values, min_size=n, max_size=n))
    forecasts = np.array(forecasts)
    stream = data.draw(streams(n))
    outcomes, finals = [], []
    for reconcile in (reconcile_online, oracle.reconcile_online):
        run_table, rng = table.copy(), np.random.default_rng(seed)
        try:
            trace = reconcile(run_table, forecasts, iter(stream), cfg, rng)
            outcomes.append(bits(trace))
        except StreamOrderError as exc:
            outcomes.append(str(exc))
        finals.append((run_table, rng.random()))
    assert outcomes[0] == outcomes[1]
    (kernel_table, kernel_next), (oracle_table, oracle_next) = finals
    assert_same_tables(kernel_table, oracle_table)
    assert kernel_next == oracle_next


def test_nan_discount_raises_distribution_error_in_both():
    """A NaN discount, which AgentConfig rejects, poisons the Q rows it
    updates; the next policy read of such a row raises in both loops, and
    online the RMF's read of the row just updated raises on day 1."""
    cycle = CycleData(np.array([10.0, 20.0, 30.0]), np.array([12.0, 18.0, 33.0]), 60.0)
    cfg = AgentConfig(tolerance=1.0, exploration=0.1, episodes=2)
    # `_make` builds a config without its checks.
    cfg = AgentConfig._make({**cfg._asdict(), "discount": math.nan}.values())
    with pytest.raises(DistributionError):
        train([cycle], cfg)
    tables = []
    for episode in (run_episode, oracle.run_episode):
        table = init_state_values(cycle.monthly_total, cycle.forecasts)
        rng = rng_for(0, "nan")
        source = rng.random if episode is run_episode else rng
        episode(cycle, table, cfg, source)
        with pytest.raises(DistributionError):
            episode(cycle, table, cfg, source)
        tables.append(table)
    next_draws = []
    for online in (reconcile_online, oracle.reconcile_online):
        table = init_state_values(cycle.monthly_total, cycle.forecasts)
        rng = rng_for(0, "nan")
        with pytest.raises(DistributionError):
            online(table, cycle.forecasts, cycle.actuals, cfg, rng)
        tables.append(table)
        next_draws.append(rng.random())
    assert next_draws[0] == next_draws[1]
    assert np.isnan(tables[0].q).any() and np.isnan(tables[2].q).any()
    for kernel, expected in (tables[:2], tables[2:]):
        assert np.array_equal(kernel.q, expected.q, equal_nan=True)
        assert np.array_equal(kernel.v, expected.v, equal_nan=True)


@pytest.mark.parametrize("bad, day", [(math.inf, 2), (math.inf, 4), (-math.inf, 2),
                                      (-math.inf, 4), (math.nan, 2), (math.nan, 3),
                                      (math.nan, 4)])
@pytest.mark.parametrize("action", range(N_ACTIONS))
def test_non_finite_next_row_raises_before_its_draw_in_both(bad, day, action):
    """A non-finite entry in the row of day t+1 raises when the loop
    chooses that day's action, before it draws, and online a NaN raises
    too where an RMF first reads its row: the tables and the next draw
    match the oracle's afterwards. The training kernel draws one uniform
    per call through `run_episode`'s ``draw``, as the oracle does."""
    cycle = CycleData([10.0, 20.0, 30.0, 40.0], [12.0, 18.0, 33.0, 41.0], 100.0)
    cfg = AgentConfig(tolerance=1.0, exploration=0.5)

    def episode(table, rng):
        run_episode(cycle, table, cfg, rng.random)

    def oracle_episode(table, rng):
        oracle.run_episode(cycle, table, cfg, rng)

    def online(table, rng):
        reconcile_online(table, cycle.forecasts, cycle.actuals, cfg, rng)

    def oracle_online(table, rng):
        oracle.reconcile_online(table, cycle.forecasts, cycle.actuals, cfg, rng)

    for pair in ((episode, oracle_episode), (online, oracle_online)):
        finals = []
        for walk in pair:
            table = init_state_values(cycle.monthly_total, cycle.forecasts)
            table.q[day - 1][action] = bad
            rng = rng_for(0, "non-finite")
            with pytest.raises(DistributionError):
                walk(table, rng)
            finals.append((table, rng.random()))
        (kernel, kernel_next), (expected, expected_next) = finals
        assert np.array_equal(kernel.q, expected.q, equal_nan=True)
        assert np.array_equal(kernel.v, expected.v, equal_nan=True)
        assert kernel_next == expected_next
