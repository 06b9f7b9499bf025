"""Acceptance suite: one test per release criterion.

Each test prints a PASS line when its criterion holds; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from dtreconcile.agent import (
    ACTION_KEEP,
    AgentConfig,
    CycleData,
    MAX_CYCLE_DAYS,
    N_ACTIONS,
    ValueTable,
    _choose,
    _policy_edges,
    init_state_values,
    reconcile_online,
    run_episode,
    train,
)
from dtreconcile.baselines import p_bottom_up, p_ols, p_top_down, p_wls, reconcile
from dtreconcile.cli import main, resolve_tolerance
from dtreconcile.evaluation import mape_rec, pct_improvement
from dtreconcile.hierarchy import HierarchyVector, build_two_level, coherence_residual
from dtreconcile.seeding import rng_for

from conftest import REFERENCE_FORECASTS, regime_shift_cycles, write_daily_csv
from test_agent import enumerate_two_day_oracle
from test_baselines import random_hierarchy, weighted_ls_oracle

ACTUAL_TOTAL = 294452.0
BASE_TOTAL = 367706.0


def test_criterion_1_metric_reproduction():
    assert round(mape_rec(ACTUAL_TOTAL, BASE_TOTAL)) == 25
    assert round(mape_rec(ACTUAL_TOTAL, 298910.0)) == 2
    assert round(pct_improvement(BASE_TOTAL, 298910.0)) == 19
    assert round(mape_rec(ACTUAL_TOTAL, 294165.0)) == 0
    assert round(pct_improvement(BASE_TOTAL, 294165.0)) == 20
    print("ACCEPTANCE PASS: criterion 1 (metric reproduction)")


def test_criterion_2_coherence_of_all_baselines():
    rng = np.random.default_rng(2024)
    for k in range(1000):
        m = int(rng.integers(1, 51))
        if k % 2 == 0:
            s = build_two_level(m)
        else:
            s = random_hierarchy(rng, m)
        y_hat = HierarchyVector(rng.normal(scale=1000, size=s.n))
        shares = rng.random(m)
        shares /= shares.sum()
        mappings = [
            p_bottom_up(s),
            p_ols(s),
            p_wls(s, rng.uniform(0.1, 10.0, s.n)),
        ]
        if s.r == 1 or np.all(s.entries[0] == 1):
            mappings.append(p_top_down(shares, s))
        for p in mappings:
            assert coherence_residual(reconcile(s, p, y_hat), s) <= 1e-9
    print("ACCEPTANCE PASS: criterion 2 (baseline coherence, 1000 hierarchies)")


def test_criterion_3_ols_oracle_and_idempotence():
    s = build_two_level(2)
    p = p_ols(s)
    y = reconcile(s, p, HierarchyVector([12.0, 4.0, 5.0]))
    assert np.max(np.abs(y.full - [11, 5, 6])) <= 1e-9
    assert np.max(np.abs(y.full - weighted_ls_oracle(s, np.array([12.0, 4.0, 5.0])))) <= 1e-9
    rng = np.random.default_rng(3)
    for _ in range(100):
        y_hat = HierarchyVector(rng.normal(scale=100, size=3))
        once = reconcile(s, p, y_hat)
        twice = reconcile(s, p, once)
        assert np.max(np.abs(twice.full - once.full)) <= 1e-9
    print("ACCEPTANCE PASS: criterion 3 (OLS oracle and idempotence)")


def test_criterion_4_policy_distribution():
    q_row = [2.0, 5.0, 1.0]
    draws = 300_000
    for epsilon in (0.0, 0.05, 0.1, 0.2, 1.0):
        # Greedy "keep" gets 1 - epsilon on top of epsilon / 3 each.
        probs = np.full(N_ACTIONS, epsilon / N_ACTIONS)
        probs[ACTION_KEEP] += 1.0 - epsilon
        assert abs(probs.sum() - 1.0) <= 1e-12
        # The kernel's choice consumes one uniform per call; it must agree
        # with the inverse-CDF mapping on every draw.
        rng = np.random.default_rng(int(epsilon * 100) + 1)
        u = rng.random(draws)
        expected = np.searchsorted(np.cumsum(probs), u, side="right")
        edges, draw = _policy_edges(epsilon), iter(u.tolist()).__next__
        actions = np.array([_choose(q_row, edges, draw) for _ in range(draws)])
        assert np.array_equal(actions, expected)
        freqs = np.bincount(actions, minlength=3) / draws
        assert np.max(np.abs(freqs - probs)) <= 0.005
    print("ACCEPTANCE PASS: criterion 4 (epsilon-greedy distribution)")


def test_criterion_5_td_update_oracle():
    # Day 1 takes "keep" (greedy at exploration 0), earns 18 and
    # bootstraps from Q(2, keep) = 95, which day 2 has not yet updated.
    # Day 2 takes "keep" too, and no other entry of the table moves.
    cfg = AgentConfig(tolerance=1.0, exploration=0.0, step_size=0.1)
    table = ValueTable(q=np.zeros((MAX_CYCLE_DAYS, 3)), v=np.zeros(MAX_CYCLE_DAYS))
    table.q[0][ACTION_KEEP] = 120.0
    table.q[1][ACTION_KEEP] = 95.0
    table.v[0], table.v[1] = 120.0, 95.0
    run_episode(CycleData([10.0, 12.0], [18.0, 9.0]), table, cfg,
                iter(rng_for(0, "acc5").random, None))
    assert abs(table.q[0][ACTION_KEEP] - 119.3) <= 1e-12
    assert abs(table.v[0] - 119.3) <= 1e-12
    expected = np.zeros((MAX_CYCLE_DAYS, 3))
    expected[0][ACTION_KEEP] = 119.3
    expected[1][ACTION_KEEP] = 95.0 + 0.1 * (9.0 - 95.0)
    assert np.allclose(table.q, expected, rtol=0, atol=1e-12)
    assert np.allclose(table.v, expected.max(axis=1), rtol=0, atol=1e-12)

    forecasts = np.array([10.0, 12.0])
    actuals = np.array([11.0, 9.0])
    cfg2 = AgentConfig(tolerance=1.0, exploration=0.0, step_size=0.4)
    table2 = init_state_values(22.0, forecasts)
    run_episode(CycleData(forecasts, actuals), table2, cfg2,
                iter(rng_for(0, "acc5").random, None))
    # Each action pair moves its own entries, so the whole table pins the pair.
    results, pair = enumerate_two_day_oracle(forecasts, actuals, 22.0, cfg2)
    expected2 = init_state_values(22.0, forecasts)
    for (t, a), value in results[pair].items():
        expected2.q[t][a] = value
    assert np.allclose(table2.q, expected2.q, rtol=0, atol=1e-12)
    print("ACCEPTANCE PASS: criterion 5 (TD update oracle)")


def test_criterion_6_state_initialization():
    table = init_state_values(150.0, [10.0, 20.0, 30.0, 40.0, 25.0, 25.0])
    assert table.v[1] == 120.0
    print("ACCEPTANCE PASS: criterion 6 (state-value initialization)")


def _regime_shift_traces():
    training, test = regime_shift_cycles(n_days=30, n_train=14, level=100.0,
                                         drop_from_day=10, drop_fraction=0.2)
    tolerance = 0.2 * float(np.mean(test.forecasts))
    traces = []
    for seed in range(10):
        cfg = AgentConfig(tolerance=tolerance, exploration=0.05,
                          step_size=0.1, episodes=1, seed=seed)
        table = train(training, cfg)
        trace = reconcile_online(table, test.forecasts, test.actuals, cfg,
                                 rng_for(seed, "online"))
        traces.append((cfg, trace, test))
    return traces


@pytest.fixture(scope="module")
def regime_shift_traces():
    return _regime_shift_traces()


def test_criterion_7_regime_shift_property(regime_shift_traces):
    successes = 0
    for cfg, trace, test in regime_shift_traces:
        base_total = float(np.sum(test.forecasts))
        actual_total = float(np.sum(test.actuals))
        base_mape = mape_rec(actual_total, base_total)
        if (trace[-1].rmf < base_total
                and mape_rec(actual_total, trace[-1].rmf) < base_mape):
            successes += 1
    assert successes >= 8, f"regime shift adapted in only {successes}/10 seeds"
    print(f"ACCEPTANCE PASS: criterion 7 (regime shift, {successes}/10 seeds)")


def test_criterion_8_rmf_band(regime_shift_traces):
    for cfg, trace, test in regime_shift_traces:
        n = len(test.forecasts)
        band = n * cfg.unit + 1e-9
        base_total = float(np.sum(test.forecasts))
        assert np.all(np.abs(np.array([rec.rmf for rec in trace]) - base_total) <= band)
    print("ACCEPTANCE PASS: criterion 8 (RMF band invariant)")


def test_criterion_9_end_to_end_determinism(tmp_path, daily_csv):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data_path = {daily_csv}\n"
        "train_start = 2019-01\ntrain_end = 2020-02\ntest_month = 2020-03\n"
        "tolerance = 20%\nexploration = 0.05\nseed = 11\n"
        f"output_dir = {out}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    first = {name: (out / name).read_bytes()
             for name in ("metrics.csv", "summary.json")}
    assert main(["run", "--config", str(cfg)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob
    print("ACCEPTANCE PASS: criterion 9 (byte-identical reruns)")


def _dataset_path(tmp_path):
    for candidate in (os.environ.get("NIFTY_CSV"), "data/nifty50.csv"):
        if candidate and Path(candidate).exists():
            return Path(candidate), "public dataset"
    from conftest import nifty_like_value
    from datetime import date

    path = tmp_path / "synthetic_nifty.csv"
    write_daily_csv(path, date(2018, 12, 1), date(2020, 3, 31), nifty_like_value)
    return path, "synthetic stand-in"


def test_criterion_10_protocol_smoke_and_tolerance_resolution(tmp_path):
    data_path, source = _dataset_path(tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data_path = {data_path}\n"
        "train_start = 2019-01\ntrain_end = 2020-02\ntest_month = 2020-03\n"
        "tolerance = 20%\nexploration = 0.05\nseed = 1\n"
        "grid_tolerances = 10%,20%,30%\ngrid_epsilons = 0.05,0.1,0.2\n"
        f"output_dir = {out}\n"
    )
    assert main(["grid", "--config", str(cfg)]) == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert len(lines) == 10  # header + 9 cells
    assert not any("error" in line for line in lines[1:])

    # Percentage tolerances resolved against the reference forecast column.
    daily = np.array(REFERENCE_FORECASTS, dtype=float)
    for pct, reported in (("10%", 36736.0), ("20%", 73473.0), ("30%", 110209.0)):
        resolved = resolve_tolerance(pct, float(daily.sum()))
        assert abs(resolved - reported) <= 0.005 * reported
    print(f"ACCEPTANCE PASS: criterion 10 (protocol smoke test on {source})")
