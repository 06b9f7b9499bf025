"""Tests for metrics and the grid harness."""

import math

import numpy as np
import pytest

from dtreconcile import agent, evaluation
from dtreconcile.agent import AgentConfig, CycleData, ValueTable, reconcile_online, train
from dtreconcile.errors import AGENT_LIMIT
from dtreconcile.evaluation import (
    build_metric_report,
    mape_rec,
    pct_improvement,
    run_grid,
)
from dtreconcile.seeding import derive_seed, rng_for

from conftest import regime_shift_cycles


def test_mape_rec_reference_values():
    assert mape_rec(294452, 367706) == pytest.approx(24.88, abs=0.01)  # the base total
    assert mape_rec(294452, 298910) == pytest.approx(1.51, abs=0.01)
    assert round(mape_rec(294452, 298910)) == 2
    assert mape_rec(294452, 294165) == pytest.approx(0.10, abs=0.005)
    assert round(mape_rec(294452, 294165)) == 0
    assert mape_rec(500.0, 500.0) == 0.0


def test_mape_rec_zero_iff_equal():
    assert mape_rec(100.0, 100.0) == 0.0
    assert mape_rec(100.0, 100.0001) > 0.0


def test_pct_improvement_reference_values():
    assert pct_improvement(367706, 333308) == pytest.approx(9.35, abs=0.01)
    assert round(pct_improvement(367706, 298910)) == 19
    assert round(pct_improvement(367706, 294165)) == 20
    assert pct_improvement(42.0, 42.0) == 0.0


def test_metric_zero_denominators():
    with pytest.raises(ZeroDivisionError):
        mape_rec(0.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        pct_improvement(0.0, 1.0)


def _small_run(cfg, training, test):
    table = train(training, cfg)
    return reconcile_online(table, test.forecasts, test.actuals, cfg,
                            rng_for(cfg.seed, "online"))


def test_build_metric_report_columns():
    training, test = regime_shift_cycles(n_days=28, n_train=2)
    cfg = AgentConfig(tolerance=10.0, exploration=0.05, seed=3)
    trace = _small_run(cfg, training, test)
    labels = [f"day {rec.day_index}" for rec in trace]
    report = build_metric_report(trace, test, labels)
    assert len(report.rows) == 28
    assert [row.label for row in report.rows] == labels
    assert report.base_total == pytest.approx(2800.0)
    assert report.actual_total == pytest.approx(float(np.sum(test.actuals)))
    last = report.rows[-1]
    assert last.mape_rec_pct == pytest.approx(
        mape_rec(report.actual_total, trace[-1].rmf)
    )
    assert last.pct_f == pytest.approx(
        pct_improvement(report.base_total, trace[-1].rmf)
    )
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "date,actual,forecast,rmf,mape_rec_pct,pct_f"
    assert len(csv_text.splitlines()) == 29


def _grid(training, test, tolerances, epsilons, base):
    """Sweep row-major cells seeded by their coordinates, as `cli.prepare`
    builds them."""
    cells = [base._replace(tolerance=tol, exploration=eps,
                           seed=derive_seed(base.seed, f"grid:{i}:{j}"))
             for i, tol in enumerate(tolerances) for j, eps in enumerate(epsilons)]
    return run_grid(training, test, cells)


def test_run_grid_shape_and_header():
    training, test = regime_shift_cycles(n_days=28, n_train=2)
    base = AgentConfig(tolerance=1.0, seed=5)
    grid = _grid(training, test, [5.0, 10.0, 20.0], [0.05, 0.1, 0.2], base)
    assert len(grid.rows) == 9
    lines = grid.to_csv().splitlines()
    assert lines[0] == "tolerance,epsilon,mape_rec_pct,pct_f"
    assert len(lines) == 10


def test_run_grid_single_cell_matches_direct_run():
    training, test = regime_shift_cycles(n_days=28, n_train=2)
    base = AgentConfig(tolerance=1.0, exploration=0.5, seed=5)
    grid = _grid(training, test, [7.0], [0.1], base)
    cell = grid.rows[0]

    direct_cfg = base._replace(tolerance=7.0, exploration=0.1,
                               seed=derive_seed(5, "grid:0:0"))
    trace = _small_run(direct_cfg, training, test)
    assert cell.mape_rec_pct == pytest.approx(
        mape_rec(float(np.sum(test.actuals)), trace[-1].rmf)
    )


def _noisy_cycles(seed, lengths):
    rng = np.random.default_rng(seed)
    return [CycleData(rng.uniform(90, 110, n), rng.uniform(70, 130, n), 100.0 * n)
            for n in lengths]


def _hex_table(table):
    return [[x.hex() for x in row] for row in table.q], [x.hex() for x in table.v]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_run_grid_cells_equal_fresh_runs(monkeypatch, order):
    # Every cell trains on the one history, and so shares its start: each
    # must still get a table of its own. Reversed, a table shared between
    # cells would reach a cell in another state than a fresh run's.
    training = _noisy_cycles(11, [31, 28, 30])
    test = _noisy_cycles(12, [31])[0]
    base = AgentConfig(tolerance=1.0, seed=21, episodes=2)
    cells = [base._replace(tolerance=tol, exploration=eps,
                           seed=derive_seed(base.seed, f"grid:{i}:{j}"))
             for i, tol in enumerate([2.0, 5.0, 9.0])
             for j, eps in enumerate([0.05, 0.3, 1.0])][::order]
    seen = []

    def recording_reconcile(table, forecasts, actuals, cfg, rng):
        records = reconcile_online(table, forecasts, actuals, cfg, rng)
        seen.append((_hex_table(table), records[-1].rmf.hex()))
        return records

    monkeypatch.setattr(evaluation, "reconcile_online", recording_reconcile)
    grid = run_grid(training, test, cells)
    assert all(row.error is None for row in grid.rows)
    for cfg, cell in zip(cells, seen, strict=True):
        history = [CycleData(*cycle) for cycle in training]  # new cycles: no shared start
        table = train(history, cfg)
        rmf = reconcile_online(table, test.forecasts, test.actuals, cfg,
                               rng_for(cfg.seed, "online"))[-1].rmf
        assert cell == (_hex_table(table), rmf.hex())


def test_a_grid_computes_its_start_once(monkeypatch):
    calls = []
    init = agent.init_state_values
    monkeypatch.setattr(agent, "init_state_values",
                        lambda *args: calls.append(args) or init(*args))
    training, test = _noisy_cycles(13, [30, 31]), _noisy_cycles(14, [30])[0]
    grid = _grid(training, test, [1.0, 2.0, 3.0], [0.05, 0.2, 0.5], AgentConfig(tolerance=1.0))
    assert len(grid.rows) == 9 and len(calls) == 1
    # A list changed in place, or another list of equal cycles, misses.
    training.append(_noisy_cycles(15, [28])[0])
    _grid(training, test, [1.0], [0.05], AgentConfig(tolerance=1.0))
    _grid([CycleData(*cycle) for cycle in training], test, [1.0], [0.05],
          AgentConfig(tolerance=1.0))
    assert len(calls) == 3


@pytest.mark.parametrize("training, message", [
    ([], "cannot initialize a table without data"),
    ([CycleData._make(((1.0,), (1.0,), 2 * AGENT_LIMIT))],
     f"monthly total and forecasts must be finite and at most {AGENT_LIMIT:g} in magnitude"),
], ids=["empty", "past_limit"])
def test_run_grid_marks_every_cell_of_a_bad_history(training, message):
    # A history that raises is not remembered: every cell raises again.
    _, test = regime_shift_cycles(n_days=28, n_train=1)
    grid = _grid(training, test, [1.0, 5.0], [0.05, 0.2], AgentConfig(tolerance=1.0))
    assert [row.error for row in grid.rows] == [message] * 4


def test_run_grid_deterministic():
    training, test = regime_shift_cycles(n_days=28, n_train=2)
    base = AgentConfig(tolerance=1.0, seed=8)
    g1 = _grid(training, test, [5.0, 10.0], [0.05, 0.2], base)
    g2 = _grid(training, test, [5.0, 10.0], [0.05, 0.2], base)
    assert g1 == g2


def _train_failing_at(tolerance, exc):
    def failing_train(history, cfg):
        if cfg.tolerance == tolerance:
            raise exc
        return train(history, cfg)
    return failing_train


def test_run_grid_marks_failed_cells(monkeypatch):
    training, test = regime_shift_cycles(n_days=28, n_train=2)
    base = AgentConfig(tolerance=1.0, seed=8)
    monkeypatch.setattr(evaluation, "train",
                        _train_failing_at(1.0, ValueError("injected cell failure")))
    grid = _grid(training, test, [1.0, 5.0], [0.05], base)
    assert grid.rows[0].error is not None
    assert np.isnan(grid.rows[0].mape_rec_pct)
    assert grid.rows[1].error is None
    assert "error" in grid.to_csv()


def test_run_grid_propagates_faults(monkeypatch):
    # Only reconciliation and numeric errors mark a cell; a fault such as a
    # TypeError is a bug and must not be hidden behind an `error` row.
    training, test = regime_shift_cycles(n_days=28, n_train=2)
    monkeypatch.setattr(evaluation, "train",
                        _train_failing_at(5.0, TypeError("injected fault")))
    with pytest.raises(TypeError, match="injected fault"):
        _grid(training, test, [1.0, 5.0], [0.05], AgentConfig(tolerance=1.0, seed=8))


def test_run_grid_rejects_empty_grid():
    training, test = regime_shift_cycles(n_days=28, n_train=1)
    with pytest.raises(ValueError):
        _grid(training, test, [], [0.05], AgentConfig(tolerance=1.0))


# One training cycle whose day-31 actual and total sit at `AGENT_LIMIT`,
# and a 30-day test cycle whose walk never reads row 31.
AT_LIMIT = CycleData([1.0] * 31, [1.0] * 30 + [AGENT_LIMIT], -AGENT_LIMIT)
THIRTY_DAYS = CycleData([1.0] * 30, [1.0] * 30, 30.0)


def finite(table):
    return all(map(math.isfinite, [x for row in table.q for x in row] + table.v))


def test_cycle_data_refuses_the_cycle_that_overflowed_training():
    # Its day-31 update overflowed Q row 31 where no later day read it.
    with pytest.raises(ValueError, match="^forecasts, actuals and monthly total must be"):
        CycleData([1.0] * 31, [1.0] * 30 + [1.7976931348623157e308], -1.5e308)


def test_training_and_its_grid_cell_at_the_agent_limit_stay_finite():
    cfg = AgentConfig(tolerance=1.0, step_size=1.0, episodes=3)
    assert finite(train([AT_LIMIT], cfg))
    row = run_grid([AT_LIMIT], THIRTY_DAYS, [cfg]).rows[0]
    assert row.error is None and math.isfinite(row.mape_rec_pct)


def test_run_grid_walks_a_table_at_the_agent_limit(monkeypatch):
    # Rows alternating +-AGENT_LIMIT, where +-1.7e308 overflowed the online
    # updates: `ValueTable` refuses those, and these revise to a finite RMF.
    q = [[AGENT_LIMIT if t % 2 else -AGENT_LIMIT] * 3 for t in range(1, 32)]
    with pytest.raises(ValueError, match="^value table entries must be"):
        ValueTable([[1.7e308] * 3] * 31, [0.0] * 31)
    table = ValueTable(q, [0.0] * 31)
    monkeypatch.setattr(evaluation, "train", lambda history, cfg: table)
    training, test = regime_shift_cycles(n_days=28, n_train=1)
    row = run_grid(training, test, [AgentConfig(tolerance=1.0, step_size=1.0)]).rows[0]
    assert row.error is None and math.isfinite(row.pct_f) and finite(table)
