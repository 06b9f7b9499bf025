"""Forecast accuracy metrics and the hyperparameter grid harness."""

from __future__ import annotations

import io
from typing import NamedTuple, Sequence

from .agent import AgentConfig, CycleData, DayRecord, History, reconcile_online, train
from .errors import InsufficientDataError
from .seeding import rng_for
from .totals import pairwise_sum


def mape_rec(actual_total: float, rmf: float) -> float:
    """Percentage error of a revised monthly forecast vs the actual total."""
    return abs(actual_total - rmf) / abs(actual_total) * 100.0


def pct_improvement(base_total: float, rmf: float) -> float:
    """Percentage change of the revised total vs the unreconciled total."""
    return abs(base_total - rmf) / abs(base_total) * 100.0


class MetricRow(NamedTuple):
    label: str  # date or day label
    actual: float
    forecast: float
    rmf: float
    mape_rec_pct: float
    pct_f: float


class MetricReport(NamedTuple):
    """Per-day revision metrics for one test cycle."""

    rows: tuple[MetricRow, ...]
    base_total: float
    actual_total: float
    base_mape: float

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("date,actual,forecast,rmf,mape_rec_pct,pct_f\n")
        for row in self.rows:
            out.write(
                f"{row.label},{row.actual!r},{row.forecast!r},{row.rmf!r},"
                f"{row.mape_rec_pct!r},{row.pct_f!r}\n"
            )
        return out.getvalue()


def build_metric_report(
    trace: Sequence[DayRecord],
    test: CycleData,
    labels: Sequence[str],
) -> MetricReport:
    """Evaluate an online revision's day records against the test cycle;
    ``labels`` name the rows, one per record.

    The cycle-level totals anchor the per-day percentages.
    """
    actuals, forecasts = test.actuals, test.forecasts
    actual_total = pairwise_sum(actuals)
    base_total = pairwise_sum(forecasts)
    rows = tuple(
        MetricRow(
            label=label,
            actual=actuals[rec.day_index - 1],
            forecast=forecasts[rec.day_index - 1],
            rmf=rec.rmf,
            mape_rec_pct=mape_rec(actual_total, rec.rmf),
            pct_f=pct_improvement(base_total, rec.rmf),
        )
        for rec, label in zip(trace, labels)
    )
    return MetricReport(
        rows=rows,
        base_total=base_total,
        actual_total=actual_total,
        base_mape=mape_rec(actual_total, base_total),
    )


class GridRow(NamedTuple):
    tolerance: float
    epsilon: float
    mape_rec_pct: float
    pct_f: float
    error: str | None = None


class GridReport(NamedTuple):
    """Final-day metrics for every (tolerance, epsilon) grid cell."""

    rows: tuple[GridRow, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("tolerance,epsilon,mape_rec_pct,pct_f\n")
        for row in self.rows:
            if row.error is not None:
                out.write(f"{row.tolerance!r},{row.epsilon!r},error,error\n")
            else:
                out.write(
                    f"{row.tolerance!r},{row.epsilon!r},"
                    f"{row.mape_rec_pct!r},{row.pct_f!r}\n"
                )
        return out.getvalue()


def run_grid(
    training: Sequence[CycleData],
    test: CycleData,
    cells: Sequence[AgentConfig],
) -> GridReport:
    """Train one independent agent per grid cell and stream the test
    cycle's actuals through it.

    Each cell carries its own tolerance, exploration and seed, and calls
    ``train(history, cfg)`` on one `History` of ``training``: the cells
    share its start, computed once, and each gets a table of its own. A
    cell that fails is marked with its message rather than aborting the
    sweep: `InsufficientDataError` for no training cycles,
    `ZeroDivisionError` for test totals of 0, `ValueError` for test
    actuals past `AGENT_LIMIT`, or a first training cycle whose forecasts
    or their total lie past it (`init_state_values`; no later cycle is
    checked). The command line refuses all three. Any other exception
    propagates.
    """
    if not cells:
        raise ValueError("grid must have at least one tolerance and one epsilon")
    history = History(training)
    actual_total = pairwise_sum(test.actuals)
    base_total = pairwise_sum(test.forecasts)
    rows: list[GridRow] = []
    for cfg in cells:
        try:
            table = train(history, cfg)
            rmf = reconcile_online(table, test.forecasts, test.actuals, cfg,
                                   rng_for(cfg.seed, "online"))[-1].rmf
            scores, error = (mape_rec(actual_total, rmf), pct_improvement(base_total, rmf)), None
        except (InsufficientDataError, ValueError, ZeroDivisionError) as exc:
            scores, error = (float("nan"), float("nan")), str(exc)
        rows.append(GridRow(float(cfg.tolerance), float(cfg.exploration), *scores, error=error))
    return GridReport(tuple(rows))
