"""Spans and counts for the traced run, recorded from the benchmark's side.

Each wrapper is installed on the name in the module that makes the call
(`train` as imported by `cli` and by `evaluation`, `run_episode` inside
`agent`), so a traced op makes the same calls as an untraced one. Spans
are kept in memory and reduced to per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    op: int | None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    result = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                                 for c in children[i]):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append((span.end - span.start) - covered)
    return result


# Per-layer time metric -> span whose self time it sums.
LAYER_TIMES = {
    "data.load_ohlcv_csv_s": "data.load_ohlcv_csv",
    "data.fill_calendar_s": "data.fill_calendar",
    "data.month_partition_s": "data.month_partition",
    "forecasting.forecast_s": "forecasting.forecast",
    "cli.prepare_self_s": "cli.prepare",
    "cli.main_self_s": "cli.main",
    "agent.train_self_s": "agent.train",
    "agent.run_episode_s": "agent.run_episode",
    "agent.reconcile_online_s": "agent.reconcile_online",
    "agent.save_table_s": "agent.save_table",
    "agent.load_table_s": "agent.load_table",
    "evaluation.build_metric_report_s": "evaluation.build_metric_report",
    "evaluation.to_csv_s": "evaluation.to_csv",
    "evaluation.run_grid_self_s": "evaluation.run_grid",
    "baselines.reconcile_s": "baselines.reconcile",
}
LAYER_COUNTS = (
    "data.rows_read", "data.calendar_days", "data.months", "forecasting.calls",
    "agent.episodes_run", "agent.td_steps", "agent.trace_records_built",
    "evaluation.grid_cells", "evaluation.grid_cells_failed",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.test_forecast: dict[int, object] = {}  # op -> last base forecast made
        self._stack: list[int] = []
        self._op: int | None = None
        self._installed: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        if op is not None:
            self._op = op
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                count(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install(self) -> None:
        from dtreconcile import agent, cli, evaluation, forecasting

        def counts():
            return self.counts[self._op]

        def length(key):
            def count(args, result):
                counts()[key] += len(result)
            return count

        def forecast(args, result):
            counts()["forecasting.calls"] += 1
            self.test_forecast[self._op] = result

        def episode(args, result):
            c = counts()
            c["agent.episodes_run"] += 1
            c["agent.td_steps"] += len(args[0].forecasts)
            c["agent.trace_records_built"] += len(result[1])

        def online(args, result):
            c = counts()
            c["agent.td_steps"] += len(result)
            c["agent.trace_records_built"] += len(result)

        def grid(args, result):
            c = counts()
            c["evaluation.grid_cells"] += len(result.rows)
            c["evaluation.grid_cells_failed"] += sum(r.error is not None for r in result.rows)

        self.wrap(cli, "load_ohlcv_csv", "data.load_ohlcv_csv", length("data.rows_read"))
        self.wrap(cli, "fill_calendar", "data.fill_calendar", length("data.calendar_days"))
        self.wrap(cli, "month_partition", "data.month_partition", length("data.months"))
        for method in ("naive", "seasonal_naive", "drift"):
            self.wrap(forecasting, method, "forecasting.forecast", forecast)
        self.wrap(cli, "prepare", "cli.prepare")
        for module in (cli, evaluation):
            self.wrap(module, "train", "agent.train")
            self.wrap(module, "reconcile_online", "agent.reconcile_online", online)
        self.wrap(agent, "run_episode", "agent.run_episode", episode)
        self.wrap(cli, "save_table", "agent.save_table")
        self.wrap(cli, "load_table", "agent.load_table")
        self.wrap(cli, "build_metric_report", "evaluation.build_metric_report")
        for report in (evaluation.MetricReport, evaluation.GridReport):
            self.wrap(report, "to_csv", "evaluation.to_csv")
        self.wrap(cli, "run_grid", "evaluation.run_grid", grid)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, ops: list[int], used_records: dict[int, int],
                      scale: dict[int, float]) -> dict[str, float]:
        """Medians over ``ops`` of each layer's per-op self time and counts.

        ``used_records`` maps an op to the trace records that reached its
        `metrics.csv`; ``scale`` maps it to the factor that turns its wall
        seconds into reference seconds.
        """
        per_op: dict[int, dict[str, float]] = {op: defaultdict(float) for op in ops}
        for span, own in zip(self.spans, self_times(self.spans)):
            if span.op in per_op:
                per_op[span.op][span.name] += own * scale[span.op]
        metrics = {metric: statistics.median(per_op[op][name] for op in ops)
                   for metric, name in LAYER_TIMES.items()}
        for key in LAYER_COUNTS:
            metrics[key] = statistics.median(self.counts[op][key] for op in ops)
        metrics["agent.trace_used_ratio"] = statistics.median(
            used_records[op] / built if (built := self.counts[op]["agent.trace_records_built"])
            else 0.0
            for op in ops)
        return metrics
