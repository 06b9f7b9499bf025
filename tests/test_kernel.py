"""The scalar day-loop kernel against the reference oracle, bit for bit."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from dtreconcile.agent import (
    MAX_CYCLE_DAYS,
    N_ACTIONS,
    V_LOG_LIMIT,
    AgentConfig,
    CycleData,
    ValueTable,
    init_state_values,
    reconcile_online,
    run_episode,
    train,
)
from dtreconcile.errors import AGENT_LIMIT, StreamOrderError
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


class DrawFailed(Exception):
    pass


class Draws:
    """A seeded generator's uniforms, except that call ``fail_at`` raises."""

    def __init__(self, seed, fail_at):
        self.rng, self.calls, self.fail_at = np.random.default_rng(seed), 0, fail_at

    def random(self):
        self.calls += 1
        if self.calls == self.fail_at:
            raise DrawFailed
        return self.rng.random()


@EXAMPLES
@given(cycles(), tables, configs(), st.integers(0, 2**32),
       st.none() | st.integers(1, MAX_CYCLE_DAYS))
def test_run_episode_matches_oracle(cycle, table, cfg, seed, fail_at):
    """Also when a draw raises mid-walk: the days updated before it stay
    updated, in V as in Q."""
    kernel_table, oracle_table = table.copy(), table.copy()
    kernel_rng, oracle_rng = Draws(seed, fail_at), Draws(seed, fail_at)
    raised = []
    for walk in (lambda: run_episode(cycle, kernel_table, cfg, kernel_rng.random),
                 lambda: oracle.run_episode(cycle, oracle_table, cfg, oracle_rng)):
        try:
            walk()
            raised.append(False)
        except DrawFailed:
            raised.append(True)
    assert raised[0] == raised[1] == (fail_at is not None and fail_at <= len(cycle.forecasts))
    assert_same_tables(kernel_table, oracle_table)
    assert kernel_rng.rng.random() == oracle_rng.rng.random()


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


def test_many_episodes_keep_the_v_log_bounded():
    """Training settles V once `V_LOG_LIMIT` walks are logged, so the log
    stays bounded however many episodes run, and V is still the oracle's,
    also in a copy or a pickle taken while walks are logged."""
    history = [CycleData([10.0, 20.0], [12.0, 18.0], 30.0),
               CycleData([5.0, 5.0, 5.0], [4.0, 7.0, 6.0], 15.0)]
    cfg = AgentConfig(tolerance=2.0, episodes=V_LOG_LIMIT, seed=5)
    trained = train(history, cfg)
    assert 0 < len(trained.v_log) <= V_LOG_LIMIT
    copies = [copy.deepcopy(trained), pickle.loads(pickle.dumps(trained))]
    expected = init_state_values(history[0].monthly_total, history[0].forecasts)
    rng = rng_for(cfg.seed, "train")
    for _ in range(cfg.episodes):
        for cycle in history:
            oracle.run_episode(cycle, expected, cfg, rng)
    for table in (trained, *copies):
        assert_same_tables(table, expected)
        assert table.v_log == []


@st.composite
def streams(draw, n):
    """Actuals as bare values: the whole cycle, a prefix, one day too many,
    or one value past `AGENT_LIMIT` on a day up to the one too many."""
    actuals = draw(st.lists(values, min_size=n + 1, max_size=n + 1))
    kind = draw(st.sampled_from(["whole", "prefix", "too_long", "past_limit"]))
    if kind == "whole":
        return actuals[:n]
    if kind == "prefix":
        return actuals[: draw(st.integers(0, n - 1))]
    if kind == "past_limit":
        bad = draw(st.sampled_from([math.inf, -math.inf, math.nan, 2 * AGENT_LIMIT, -1e308]))
        actuals[draw(st.integers(0, n))] = bad
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
        except (StreamOrderError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
        finals.append((run_table, rng.random()))
    assert outcomes[0] == outcomes[1]
    (kernel_table, kernel_next), (oracle_table, oracle_next) = finals
    assert_same_tables(kernel_table, oracle_table)
    assert kernel_next == oracle_next


@pytest.mark.parametrize("seed", range(4))
def test_reconcile_online_refolds_every_flip_as_the_oracle(seed):
    """Uniform actions, whole-step updates and actuals of alternating sign
    flip the greedy action on most days; each flip refolds the RMF from
    its day on, and every record must match the oracle's full refold."""
    rng = np.random.default_rng(seed)
    forecasts = rng.uniform(-50.0, 150.0, MAX_CYCLE_DAYS)
    actuals = [(-1.0) ** t * x for t, x in enumerate(rng.uniform(0.1, 9.0, MAX_CYCLE_DAYS))]
    cfg = AgentConfig(tolerance=0.3, exploration=1.0, step_size=1.0, discount=0.5, seed=seed)
    traces = []
    for reconcile in (reconcile_online, oracle.reconcile_online):
        table = ValueTable([[0.0] * N_ACTIONS] * MAX_CYCLE_DAYS, [0.0] * MAX_CYCLE_DAYS)
        traces.append(bits(reconcile(table, forecasts, actuals, cfg, rng_for(seed, "online"))))
    assert traces[0] == traces[1]
    rmfs = [record[-1] for record in traces[0]]
    assert sum(a != b for a, b in zip(rmfs, rmfs[1:])) >= MAX_CYCLE_DAYS // 3


@pytest.mark.parametrize("bad, day", [(math.inf, 2), (math.inf, 4), (-math.inf, 2),
                                      (-math.inf, 4), (math.nan, 2), (math.nan, 3),
                                      (math.nan, 4)])
@pytest.mark.parametrize("action", range(N_ACTIONS))
def test_value_table_refuses_a_non_finite_entry(bad, day, action):
    """A Q entry that is not finite never reaches the day loop, which
    checks no row: `ValueTable` refuses it wherever it lies."""
    table = init_state_values(100.0, [10.0, 20.0, 30.0, 40.0])
    table.q[day - 1][action] = bad
    with pytest.raises(ValueError, match=r"^value table entries must be finite and at most "
                                         r"1e\+306 in magnitude$"):
        ValueTable(table.q, table.v)
