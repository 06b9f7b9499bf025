"""Tests for the TD revision agent."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtreconcile import agent
from dtreconcile.agent import (
    ACTION_DECREASE,
    ACTION_INCREASE,
    ACTION_KEEP,
    MAX_CYCLE_DAYS,
    AgentConfig,
    CycleData,
    ValueTable,
    adjusted_forecast,
    init_state_values,
    load_table,
    reconcile_online,
    run_episode,
    save_table,
    train,
)
from dtreconcile.errors import (
    DataError,
    InsufficientDataError,
    ShapeError,
    StreamOrderError,
)
from dtreconcile.evaluation import mape_rec
from dtreconcile.seeding import rng_for

import oracle
from conftest import regime_shift_cycles
from oracle import egreedy_probabilities, greedy_action, sarsa_step, select_action


def make_cfg(**kwargs):
    defaults = dict(tolerance=1.0, exploration=0.0, step_size=0.5, seed=0)
    defaults.update(kwargs)
    return AgentConfig(**defaults)


def forcing_table(action, n=31, margin=10.0):
    """Q table whose greedy action is ``action`` for every day."""
    q = np.zeros((MAX_CYCLE_DAYS, 3))
    q[:, action] = margin
    return ValueTable(q=q, v=q.max(axis=1))


# --- initialization -------------------------------------------------------


def test_init_state_values_reference_example():
    table = init_state_values(150.0, [10.0, 20.0])
    assert table.v[1] == 120.0  # day 2
    assert table.v[0] == 140.0  # day 1
    assert table.q[0] == [140.0] * 3
    assert table.q[1] == [120.0] * 3


def test_init_state_values_telescopes_to_zero():
    daily = np.array([5.0, 7.0, 9.0, 4.0])
    table = init_state_values(float(daily.sum()), daily)
    assert table.v[3] == 0.0


def test_init_state_values_empty_cycle():
    with pytest.raises(InsufficientDataError):
        init_state_values(100.0, [])


def test_init_state_values_covers_max_cycle():
    table = init_state_values(100.0, [10.0, 20.0])
    assert np.shape(table.q) == (MAX_CYCLE_DAYS, 3)
    assert np.all(np.isfinite(table.q))
    assert np.all(np.array(table.v[2:]) == 70.0)
    # A full cycle fills every row; one more forecast is refused, as by `CycleData`.
    assert len(init_state_values(31.0, [1.0] * MAX_CYCLE_DAYS).q) == MAX_CYCLE_DAYS
    for days in (MAX_CYCLE_DAYS + 1, 40):
        with pytest.raises(ShapeError, match=f"cycle length {days} outside 1..31"):
            init_state_values(1.0, [1.0] * days)


# --- adjusted forecasts ---------------------------------------------------


def candidates(y_hat_t, cfg):
    """Adjusted forecasts for (increase, keep, decrease)."""
    return tuple(adjusted_forecast(y_hat_t, a, cfg)
                 for a in (ACTION_INCREASE, ACTION_KEEP, ACTION_DECREASE))


def test_adjusted_forecast_worked_example():
    cfg = make_cfg(tolerance=5.0)
    assert candidates(30.0, cfg) == (35.0, 30.0, 25.0)


def test_adjusted_forecast_zero_forecast():
    cfg = make_cfg(tolerance=1.0)
    assert candidates(0.0, cfg) == (1.0, 0.0, -1.0)


def test_zero_tolerance_rejected_at_config():
    for bad in (0.0, np.inf):
        with pytest.raises(ValueError):
            make_cfg(tolerance=bad)
        with pytest.raises(ValueError):
            make_cfg(adjustment_unit=bad)


def test_adjustment_unit_overrides_tolerance():
    cfg = make_cfg(tolerance=5.0, adjustment_unit=2.0)
    assert candidates(30.0, cfg) == (32.0, 30.0, 28.0)


def test_adjusted_forecast_clamp():
    cfg = make_cfg(tolerance=5.0, clamp_nonnegative=True)
    assert adjusted_forecast(2.0, ACTION_DECREASE, cfg) == 0.0
    assert adjusted_forecast(2.0, ACTION_INCREASE, cfg) == 7.0


# --- policy: the per-step reference in oracle.py ------------------------


def test_egreedy_probabilities_reference():
    probs = egreedy_probabilities([5.0, 1.0, 0.0], 0.05)
    assert probs == pytest.approx([0.9666667, 0.0166667, 0.0166667], abs=1e-6)


def test_egreedy_fully_random_and_fully_greedy():
    assert np.allclose(egreedy_probabilities([3.0, 1.0, 2.0], 1.0), 1 / 3)
    assert np.array_equal(egreedy_probabilities([3.0, 1.0, 2.0], 0.0), [1, 0, 0])


def test_greedy_tie_breaking_prefers_keep_then_decrease():
    assert greedy_action(np.array([1.0, 1.0, 1.0])) == ACTION_KEEP
    assert greedy_action(np.array([1.0, 0.5, 1.0])) == ACTION_DECREASE
    assert greedy_action(np.array([2.0, 0.5, 1.0])) == ACTION_INCREASE


@given(
    st.floats(0, 1),
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
)
def test_egreedy_probabilities_normalized(epsilon, q_row):
    probs = np.array(egreedy_probabilities(q_row, epsilon))
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert np.all(probs >= 0)


def test_select_action_degenerate():
    rng = np.random.default_rng(0)
    assert all(select_action([1.0, 0.0, 0.0], rng) == 0 for _ in range(100))


def test_select_action_uniform_frequencies():
    rng = np.random.default_rng(123)
    counts = np.zeros(3)
    draws = 300_000
    for _ in range(draws):
        counts[select_action([1 / 3, 1 / 3, 1 / 3], rng)] += 1
    assert np.max(np.abs(counts / draws - 1 / 3)) < 0.005


def test_select_action_deterministic_given_seed():
    seq1 = [select_action([0.2, 0.5, 0.3], np.random.default_rng(7)) for _ in range(1)]
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    seq_a = [select_action([0.2, 0.5, 0.3], rng_a) for _ in range(50)]
    seq_b = [select_action([0.2, 0.5, 0.3], rng_b) for _ in range(50)]
    assert seq_a == seq_b
    assert seq1[0] == seq_a[0]


def test_select_action_rejects_malformed():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        select_action([0.5, 0.4, 0.2], rng)
    with pytest.raises(ValueError):
        select_action([0.5, 0.5], rng)
    with pytest.raises(ValueError):
        select_action([1.2, -0.2, 0.0], rng)


# --- TD update: the per-step reference in oracle.py ---------------------


def test_sarsa_step_reference_update():
    cfg = make_cfg(step_size=0.1)
    table = ValueTable(
        q=np.full((MAX_CYCLE_DAYS, 3), 0.0), v=np.zeros(MAX_CYCLE_DAYS)
    )
    table.q[0][ACTION_KEEP] = 120.0
    table.q[1][ACTION_KEEP] = 95.0
    table.v[0], table.v[1] = 120.0, 95.0
    sarsa_step(table, 1, ACTION_KEEP, 18.0, 2, ACTION_KEEP, cfg)
    assert table.q[0][ACTION_KEEP] == pytest.approx(119.3, abs=1e-12)
    assert table.v[0] == pytest.approx(119.3, abs=1e-12)


def test_sarsa_step_zero_td_error_is_noop():
    cfg = make_cfg(step_size=1.0)
    table = init_state_values(30.0, [10.0, 10.0, 10.0])
    before = table.copy().q
    # r + Q(s', a') equals Q(s, a): 10 + 10 = 20
    sarsa_step(table, 1, ACTION_KEEP, 10.0, 2, ACTION_KEEP, cfg)
    assert np.array_equal(table.q, before)


def test_sarsa_step_terminal_bootstraps_zero():
    cfg = make_cfg(step_size=0.5)
    table = init_state_values(30.0, [10.0, 10.0, 10.0])
    sarsa_step(table, 3, ACTION_KEEP, 5.0, None, None, cfg)
    assert table.q[2][ACTION_KEEP] == pytest.approx(2.5)


# --- episodes -------------------------------------------------------------


def test_run_episode_tied_rows_keep_everywhere():
    forecasts = np.array([10.0, 20.0, 15.0, 5.0])
    cycle = CycleData(forecasts, np.array([11.0, 18.0, 16.0, 4.0]))
    table = init_state_values(float(forecasts.sum()), forecasts)
    before = table.copy()
    cfg = make_cfg(exploration=0.0)
    run_episode(cycle, table, cfg, iter(rng_for(0, "t").random, None))
    # Every day took "keep": only that column moved, on each of the 4 days.
    moved = np.array(table.q) != np.array(before.q)
    assert moved[:, [ACTION_INCREASE, ACTION_DECREASE]].sum() == 0
    assert moved[:, ACTION_KEEP].tolist() == [True] * 4 + [False] * (MAX_CYCLE_DAYS - 4)


def test_run_episode_fully_random_matches_hand_simulation():
    """With exploration=1 the action sequence is fixed by the uniform
    draws alone; replay them and redo the arithmetic independently."""
    forecasts = np.array([10.0, 20.0, 30.0])
    actuals = np.array([12.0, 17.0, 28.0])
    m = 60.0
    cfg = make_cfg(exploration=1.0, step_size=0.5, tolerance=2.0)
    table = init_state_values(m, forecasts)
    run_episode(CycleData(forecasts, actuals), table, cfg,
                iter(np.random.default_rng(99).random, None))

    draws = np.random.default_rng(99).random(3)
    # SARSA pairing: a1 drawn first, then a2 (used at day 2), then a3.
    a1, a2, a3 = [0 if u < 1 / 3 else (1 if u < 2 / 3 else 2) for u in draws]
    q = np.array(init_state_values(m, forecasts).q)
    q[0, a1] += 0.5 * (actuals[0] + q[1, a2] - q[0, a1])
    q[1, a2] += 0.5 * (actuals[1] + q[2, a3] - q[1, a2])
    q[2, a3] += 0.5 * (actuals[2] + 0.0 - q[2, a3])
    # The whole table: another action would have moved another entry.
    assert np.allclose(table.q, q, rtol=0, atol=1e-12)


def test_run_episode_length_mismatch():
    with pytest.raises(ShapeError):
        CycleData(np.ones(3), np.ones(4))


def test_cycle_rejects_non_finite_forecasts():
    with pytest.raises(ValueError):
        CycleData(np.array([1.0, np.nan]), np.ones(2))


def test_train_zero_episodes_returns_initialization():
    forecasts = np.array([10.0, 20.0])
    cycle = CycleData(forecasts, np.array([9.0, 21.0]))
    table = train([cycle], make_cfg(episodes=0))
    expected = init_state_values(30.0, forecasts)
    assert np.array_equal(table.q, expected.q)


def test_train_requires_history():
    with pytest.raises(InsufficientDataError):
        train([], make_cfg(episodes=3))


def test_train_deterministic():
    rng = np.random.default_rng(4)
    cycles = [
        CycleData(rng.uniform(90, 110, 30), rng.uniform(90, 110, 30))
        for _ in range(5)
    ]
    cfg = make_cfg(exploration=0.1, episodes=3, seed=42)
    t1 = train(cycles, cfg)
    t2 = train(cycles, cfg)
    assert np.array_equal(t1.q, t2.q) and np.array_equal(t1.v, t2.v)


def test_the_action_never_reaches_the_learning():
    # Characterises the learning rule, not a target: the reward is the
    # day's actual whatever the action did, so for a fixed seed neither
    # the tolerance, the unit nor the clamp moves Q or an online action.
    # They move only the adjusted forecasts, and so the RMF.
    rng = np.random.default_rng(8)
    history = [CycleData(rng.uniform(5, 40, n), rng.uniform(0, 45, n))
               for n in (31, 28, 31, 30, 31)]
    test = CycleData(rng.uniform(5, 40, 30), rng.uniform(0, 45, 30))
    settings = [dict(tolerance=0.5), dict(tolerance=20.0),
                dict(tolerance=20.0, adjustment_unit=1e3),
                dict(tolerance=3.0, clamp_nonnegative=True),
                dict(tolerance=1e4, adjustment_unit=30.0, clamp_nonnegative=True)]
    outcomes, rmfs = set(), set()
    for setting in settings:
        cfg = AgentConfig(exploration=0.3, step_size=0.2, episodes=3, seed=5, **setting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the step-size divergence warning
            table = train(history, cfg)
        trained = tuple(x.hex() for row in table.q for x in row)
        trace = reconcile_online(table, test.forecasts, test.actuals, cfg,
                                 rng_for(cfg.seed, "online"))
        online = tuple(x.hex() for row in table.q for x in row)
        outcomes.add((trained, online, tuple(rec.action for rec in trace)))
        rmfs.add(tuple(rec.rmf for rec in trace))
    assert len(outcomes) == 1
    assert len(rmfs) == len(settings)


def test_online_rmf_is_the_base_total_plus_whole_units():
    # Characterises the learning rule, not a target: with the clamp off
    # each day's forecast moves by -1, 0 or +1 unit, so every online RMF
    # is the base total plus k units, k a whole number in [-n, n] that
    # only the greedy actions set.
    rng = np.random.default_rng(9)
    history = [CycleData(rng.uniform(5, 40, n), rng.uniform(0, 45, n))
               for n in (31, 28, 31, 30)]
    tests = [CycleData(rng.uniform(5, 40, n), rng.uniform(0, 45, n)) for n in (31, 28)]
    ks = set()
    for seed in range(30):
        cfg = AgentConfig(tolerance=2.5, exploration=0.3, step_size=0.2, episodes=2, seed=seed)
        table = train(history, cfg)
        for test in tests:
            trace = reconcile_online(table.copy(), test.forecasts, test.actuals, cfg,
                                     rng_for(seed, "online"))
            base_total, n = math.fsum(test.forecasts), len(test.forecasts)
            for rmf in (rec.rmf for rec in trace):
                k = (rmf - base_total) / cfg.unit
                assert abs(k - round(k)) <= 1e-6 and -n <= round(k) <= n, (seed, n, k)
                ks.add(round(k))
    assert len(ks) > 1


def _oracle_final_rmfs(training, test, cfgs):
    """Criterion 7's runs, trained and revised one step at a time."""
    finals = []
    for cfg in cfgs:
        table = init_state_values(float(np.sum(training[0].forecasts)), training[0].forecasts)
        rng = rng_for(cfg.seed, "train")
        for cycle in training:
            oracle.run_episode(cycle, table, cfg, rng)
        trace = oracle.reconcile_online(table, test.forecasts, test.actuals, cfg,
                                        rng_for(cfg.seed, "online"))
        finals.append(trace[-1].rmf)
    return finals


def test_regime_shift_adaptation_rests_on_the_tie_order(monkeypatch):
    # Characterises the learning rule, not a target: the sampled action's
    # Q falls with the collapsing actuals while the two actions exploration
    # rarely tried stay tied at their initial value, and the tie goes to
    # "decrease". Preferring "increase" in that tie (keep still first)
    # undoes criterion 7 in every seed.
    training, test = regime_shift_cycles(n_days=30, n_train=14, level=100.0,
                                         drop_from_day=10, drop_fraction=0.2)
    tolerance = 0.2 * float(np.mean(test.forecasts))
    cfgs = [AgentConfig(tolerance=tolerance, exploration=0.05, step_size=0.1, seed=seed)
            for seed in range(10)]
    base_total, actual_total = float(np.sum(test.forecasts)), float(np.sum(test.actuals))

    def adapted(finals):
        return sum(final < base_total
                   and mape_rec(actual_total, final) < mape_rec(actual_total, base_total)
                   for final in finals)

    finals = _oracle_final_rmfs(training, test, cfgs)
    assert finals == [
        reconcile_online(train(training, cfg), test.forecasts, test.actuals, cfg,
                         rng_for(cfg.seed, "online"))[-1].rmf
        for cfg in cfgs
    ]
    assert adapted(finals) == 10

    def increase_before_decrease(q0, q1, q2):
        if q1 >= q0 and q1 >= q2:
            return ACTION_KEEP
        if q0 >= q1 and q0 >= q2:
            return ACTION_INCREASE
        return ACTION_DECREASE

    monkeypatch.setattr(agent, "_greedy", increase_before_decrease)
    assert adapted(_oracle_final_rmfs(training, test, cfgs)) == 0


def test_train_warns_on_large_step_reward_product():
    cycle = CycleData(np.array([10.0, 10.0]), np.array([1e6, 1e6]))
    with pytest.warns(UserWarning, match="diverge"):
        train([cycle], make_cfg(step_size=1.0, episodes=1))


def test_train_warning_names_a_negative_actual_by_its_magnitude():
    # The largest |actual| here is the most negative actual.
    cycle = CycleData([10.0, 10.0], [-3e6, 1e6])
    with pytest.warns(UserWarning) as caught:
        train([cycle], make_cfg(step_size=1.0, episodes=1))
    assert [str(w.message) for w in caught] == [
        "step size 1.0 times max reward 3000000.0 exceeds the initial value scale 10.0; "
        "updates may diverge"]


def test_learned_fixed_point_is_actuals_from_day_t_on():
    # Characterises the learning rule, not a target: Q(t) starts at the
    # forecast remaining after day t (criterion 6), but the TD target adds
    # day t's own actual (criterion 5), so with gamma = 1 every visited
    # Q(t, a) converges to the actuals of days t..n, one day offset.
    forecasts = np.array([10.0, 20.0, 30.0, 40.0])
    actuals = np.array([12.0, 18.0, 33.0, 41.0])
    cycle = CycleData(forecasts, actuals)
    start = init_state_values(float(forecasts.sum()), forecasts)
    assert [row[0] for row in start.q[:4]] == [90.0, 70.0, 40.0, 0.0]  # forecast after day t
    table = train([cycle], make_cfg(exploration=0.5, step_size=0.2, discount=1.0,
                                    episodes=2000))
    actuals_from_t = np.cumsum(actuals[::-1])[::-1]  # 104, 92, 74, 41
    # every (day, action) was visited
    assert np.all(np.array(table.q[:4]) != np.array(start.q[:4]))
    assert np.allclose(table.q[:4], actuals_from_t[:, None], rtol=0, atol=1e-6)
    assert np.allclose(table.v[:4], actuals_from_t, rtol=0, atol=1e-6)


# --- online reconciliation ------------------------------------------------


def test_reconcile_online_keep_forcing_table():
    cfg = make_cfg(online_updates=False)
    trace = reconcile_online(forcing_table(ACTION_KEEP), np.full(5, 10.0),
                             np.full(5, 9.0), cfg, rng_for(0, "o"))
    assert np.allclose([rec.rmf for rec in trace], 50.0)


def test_reconcile_online_decrease_forcing_table():
    n = 31
    cfg = make_cfg(tolerance=2.0, online_updates=False)
    trace = reconcile_online(forcing_table(ACTION_DECREASE), np.full(n, 10.0),
                             np.full(n, 9.0), cfg, rng_for(0, "o"))
    assert np.allclose([rec.rmf for rec in trace], 310.0 - n * 2.0)


def test_reconcile_online_collapse_hand_simulation():
    """3-day cycle, actuals collapse after day 1: the day-2 penalty
    dethrones 'keep' and ties break toward 'decrease'."""
    forecasts = [10.0, 10.0, 10.0]
    table = init_state_values(30.0, forecasts)
    cfg = make_cfg(tolerance=1.0, step_size=0.5, exploration=0.0)
    trace = reconcile_online(table, forecasts, [10.0, 5.0, 5.0], cfg, rng_for(1, "o"))
    assert [rec.action for rec in trace] == [ACTION_KEEP] * 3
    assert [rec.rmf for rec in trace] == [30.0, 29.0, 29.0]
    assert trace[-1].rmf < 30.0
    # hand-updated entries: day-2 keep 10 -> 7.5, day-3 keep 0 -> 2.5
    assert table.q[1][ACTION_KEEP] == pytest.approx(7.5)
    assert table.q[2][ACTION_KEEP] == pytest.approx(2.5)


def test_reconcile_online_partial_stream():
    forecasts = np.full(10, 10.0)
    table = init_state_values(100.0, forecasts)
    trace = reconcile_online(table, forecasts, [10.0, 10.0, 10.0],
                             make_cfg(), rng_for(0, "o"))
    assert len(trace) == 3


def test_reconcile_online_rejects_a_day_past_the_cycle():
    # Day 4 of a 3-day cycle raises before it draws: the table and the
    # random stream stand as after the 3 days.
    forecasts, stream, cfg = [10.0, 10.0, 10.0], [9.0, 11.0, 10.0, 12.0], make_cfg(exploration=0.5)
    table, rng = init_state_values(30.0, forecasts), rng_for(0, "o")
    reconcile_online(table, forecasts, stream[:3], cfg, rng)
    expected = (table.q, table.v, rng.random())
    table, rng = init_state_values(30.0, forecasts), rng_for(0, "o")
    with pytest.raises(StreamOrderError, match="^day 4 beyond the 3-day cycle$"):
        reconcile_online(table, forecasts, stream, cfg, rng)
    assert (table.q, table.v, rng.random()) == expected


def test_reconcile_online_without_updates_leaves_table_unchanged():
    forecasts = np.full(5, 10.0)
    table = init_state_values(50.0, forecasts)
    before = table.copy().q
    reconcile_online(table, forecasts, np.full(5, 3.0),
                     make_cfg(online_updates=False), rng_for(0, "o"))
    assert np.array_equal(table.q, before)


def test_rmf_band_invariant():
    rng = np.random.default_rng(5)
    forecasts = rng.uniform(80, 120, 28)
    m = float(forecasts.sum())
    cfg = make_cfg(tolerance=3.0, exploration=0.3, seed=9)
    table = init_state_values(m, forecasts)
    trace = reconcile_online(table, forecasts, rng.uniform(60, 140, 28),
                             cfg, rng_for(9, "o"))
    assert np.all(np.abs(np.array([rec.rmf for rec in trace]) - m) <= 28 * cfg.unit + 1e-9)


def test_zero_adjustment_limit():
    rng = np.random.default_rng(6)
    forecasts = rng.uniform(80, 120, 30)
    m = float(forecasts.sum())
    cfg = make_cfg(tolerance=1e-9 * m, exploration=0.2, step_size=0.3)
    table = init_state_values(m, forecasts)
    trace = reconcile_online(table, forecasts, rng.uniform(60, 140, 30),
                             cfg, rng_for(3, "o"))
    assert np.all(np.abs(np.array([rec.rmf for rec in trace]) - m) <= 1e-6 * m)


def test_q_values_stay_bounded_over_many_episodes():
    rng = np.random.default_rng(8)
    n = 6
    forecasts = rng.uniform(10, 20, n)
    actuals = rng.uniform(10, 20, n)
    m = float(forecasts.sum())
    cycle = CycleData(forecasts, actuals)
    cfg = make_cfg(exploration=0.2, step_size=0.9)
    table = init_state_values(m, forecasts)
    bound = max(np.max(np.abs(table.q)), n * np.max(np.abs(actuals))) + 1e-9
    draws = iter(rng_for(0, "bound").random, None)
    for _ in range(10_000):
        run_episode(cycle, table, cfg, draws)
        assert np.max(np.abs(table.q)) <= bound


def enumerate_two_day_oracle(forecasts, actuals, m, cfg):
    """All 9 (a1, a2) pairs under the update rule, plus the greedy pair."""
    results = {}
    init = {(t, a): m - forecasts[: t + 1].sum() for t in range(2) for a in range(3)}
    for a1 in range(3):
        for a2 in range(3):
            q = dict(init)
            q[(0, a1)] += cfg.step_size * (actuals[0] + q[(1, a2)] - q[(0, a1)])
            q[(1, a2)] += cfg.step_size * (actuals[1] + 0.0 - q[(1, a2)])
            results[(a1, a2)] = q
    # epsilon=0 selects per-row argmax of the initialization (ties: keep)
    greedy_pair = (ACTION_KEEP, ACTION_KEEP)
    return results, greedy_pair


def test_two_day_episode_matches_exhaustive_enumeration():
    forecasts = np.array([10.0, 12.0])
    actuals = np.array([11.0, 9.0])
    m = 22.0
    cfg = make_cfg(exploration=0.0, step_size=0.4)
    table = init_state_values(m, forecasts)
    run_episode(CycleData(forecasts, actuals), table, cfg,
                iter(rng_for(0, "e").random, None))
    results, pair = enumerate_two_day_oracle(forecasts, actuals, m, cfg)
    # Each pair moves its own entries, so the whole table pins the pair.
    expected = init_state_values(m, forecasts)
    for (t, a), value in results[pair].items():
        expected.q[t][a] = value
    assert np.allclose(table.q, expected.q, rtol=0, atol=1e-12)


# --- persistence ----------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    cfg = make_cfg(seed=17)
    table = init_state_values(100.0, np.array([30.0, 30.0, 40.0]))
    table.q[0][2] = -1.25
    path = tmp_path / "qtable.txt"
    save_table(table, path, cfg)
    loaded = load_table(path)
    assert np.array_equal(loaded.q, table.q)
    assert path.read_text().splitlines()[0] == f"# config_hash={cfg.config_hash()} seed=17"


def test_config_hash_is_pinned():
    # The snapshot header's hash, computed when configs were dataclasses:
    # it serialises the same field dict however the record is built.
    assert AgentConfig(tolerance=1.0).config_hash() == "bc59e1502de7"
    cfg = AgentConfig(tolerance=2.5, exploration=0.2, seed=7, adjustment_unit=0.5)
    assert cfg.config_hash() == "f15087415c98"


@pytest.mark.parametrize("change, message", [
    ({"exploration": 2.0}, "exploration probability"),
    ({"step_size": 0}, "step size"),
    ({"tolerance": float("inf")}, "tolerance must be positive and finite"),
])
def test_derived_config_is_checked(change, message):
    # `_replace` is how grid cells and the tests derive a config, and
    # NamedTuple's own would build it without the constructor's checks.
    base = AgentConfig(tolerance=1.0)
    with pytest.raises(ValueError, match=message):
        base._replace(**change)
    assert base._replace(exploration=0.5) == AgentConfig(tolerance=1.0, exploration=0.5)


def test_load_table_rejects_headerless_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,0,2.0\n")
    with pytest.raises(DataError, match=f"{path}: missing snapshot header"):
        load_table(path)


@pytest.mark.parametrize("edit, line, message", [
    (lambda rows: rows[:-1], 93, "92 of 93 entries; day 31, action 2 is missing"),
    (lambda rows: rows[:5] + [rows[4]] + rows[6:], 7, "duplicate entry for day 2, action 1"),
    (lambda rows: rows[:-1] + ["32,2,1.0"], 94, "day 32, action 2 outside"),
    (lambda rows: rows[:-1] + ["31,3,1.0"], 94, "day 31, action 3 outside"),
    (lambda rows: rows[:2] + ["garbage"] + rows[3:], 4, "expected day,action,q_value"),
    (lambda rows: rows[:2] + ["1,2,nan"] + rows[3:], 4, "is not finite"),
])
def test_load_table_rejects_malformed_entries(tmp_path, edit, line, message):
    path = tmp_path / "qtable.txt"
    save_table(init_state_values(100.0, np.array([30.0, 70.0])), path, make_cfg())
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *edit(rows)]) + "\n")
    with pytest.raises(DataError, match=f"{path}:{line}: .*{message}"):
        load_table(path)
