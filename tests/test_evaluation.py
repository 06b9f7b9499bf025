"""Tests for metrics and the grid harness."""

import numpy as np
import pytest

from dtreconcile import evaluation
from dtreconcile.agent import AgentConfig, CycleData, reconcile_online, train
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
