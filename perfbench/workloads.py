"""Seeded benchmark inputs and the three CLI workloads.

All workloads read one generated weekday OHLCV CSV covering
2010-01..2020-03. An op is one closed-loop unit of work: one or more
`dtreconcile.cli.main(argv)` calls made back to back by a single client.

No op repeats an earlier op's exact inputs in the same process: the
agent seed is derived from the workload seed and the op index, and
`daily_ops` also rotates its test month. Each op also gets its own copy
of the CSV (and of the Q snapshot), so a cache keyed on a path cannot
carry work from one `main` call to the next. A CLI user starts a fresh
process per call and would never see such a gain.
"""

from __future__ import annotations

import calendar
import math
import random
from dataclasses import dataclass
from datetime import date, timedelta

DEFAULT_SEED = 0
CSV_START = date(2010, 1, 1)
CSV_END = date(2020, 3, 31)
RUN_OUTPUTS = ("metrics.csv", "qtable.txt", "summary.json")
# The Q snapshot `daily_ops` streams from; trained once during set-up.
SNAPSHOT_CONFIG = {
    "train_start": "2010-01", "train_end": "2019-02", "test_month": "2019-03",
    "forecaster": "naive", "episodes": "1",
}


def nifty_like_level(day: date) -> float:
    """Trend, a slow wiggle and a 20% collapse from 2020-03-10, as in the
    test suite's synthetic index."""
    t = (day - date(2019, 1, 1)).days
    level = 11000.0 + 2.0 * t + 150.0 * math.sin(t / 9.0)
    if day >= date(2020, 3, 10):
        level *= 0.8
    return level


def write_csv(path, seed: int) -> None:
    """Weekday Date,Open,High,Low,Close,Volume rows with 1% seeded
    multiplicative noise on the nifty-like level."""
    rng = random.Random(seed)
    lines = ["Date,Open,High,Low,Close,Volume"]
    day = CSV_START
    while day <= CSV_END:
        if day.weekday() < 5:
            value = nifty_like_level(day) * (1.0 + 0.01 * rng.gauss(0.0, 1.0))
            lines.append(f"{day.isoformat()},{value:.2f},{value * 1.01:.2f},"
                         f"{value * 0.99:.2f},{value:.2f},1000")
        day += timedelta(days=1)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def month_days(label: str) -> int:
    year, month = map(int, label.split("-"))
    return calendar.monthrange(year, month)[1]


def months(start: str, end: str) -> list[str]:
    year, month = map(int, start.split("-"))
    out = []
    while f"{year:04d}-{month:02d}" <= end:
        out.append(f"{year:04d}-{month:02d}")
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    return out


# The operator loop tests each of the last twelve complete months in turn.
DAILY_TEST_MONTHS = tuple(months("2019-04", "2020-03"))


def previous_month(label: str) -> str:
    year, month = map(int, label.split("-"))
    return f"{year - 1:04d}-12" if month == 1 else f"{year:04d}-{month - 1:02d}"


@dataclass(frozen=True)
class Workload:
    name: str
    verbs: tuple[str, ...]      # cli.main calls made by one op, in order
    outputs: tuple[str, ...]    # pinned files the op writes to its output_dir
    config: dict[str, str]      # the workload's config file
    uses_snapshot: bool = False

    def op_config(self, index: int) -> dict[str, str]:
        """Month keys of op ``index``: fixed, or rotated for ``daily_ops``."""
        if not self.uses_snapshot:
            return {}
        test = DAILY_TEST_MONTHS[index % len(DAILY_TEST_MONTHS)]
        return {"train_end": previous_month(test), "test_month": test}

    def td_steps(self, index: int) -> int:
        """TD day-steps of one op, counted from its inputs: episodes x
        training days x cells, plus the streamed test days per cell."""
        cfg = {**self.config, **self.op_config(index)}
        test_days = month_days(cfg["test_month"])
        if self.uses_snapshot:  # reconcile streams the test month, no training
            return test_days
        train_days = sum(month_days(m) for m in months(cfg["train_start"], cfg["train_end"]))
        cells = (len(cfg["grid_tolerances"].split(",")) * len(cfg["grid_epsilons"].split(","))
                 if "grid" in self.verbs else 1)
        return cells * (int(cfg["episodes"]) * train_days + test_days)


WORKLOADS = {
    # The agent's training loop is ~90% of an op: a TD-kernel change shows here.
    "run_long": Workload(
        "run_long", ("run",), RUN_OUTPUTS,
        {"train_start": "2010-01", "train_end": "2020-02", "test_month": "2020-03",
         "forecaster": "naive", "episodes": "3"},
    ),
    # Nine short independent agents: per-cell set-up and online revision
    # weigh more, and only this workload runs the grid harness and high
    # exploration. adjustment_unit stays unset, otherwise the grid
    # tolerances would not reach the agent.
    "grid_sweep": Workload(
        "grid_sweep", ("grid",), ("grid.csv",),
        {"train_start": "2018-03", "train_end": "2020-02", "test_month": "2020-03",
         "forecaster": "seasonal_naive", "episodes": "1",
         "grid_tolerances": "10%,20%,30%", "grid_epsilons": "0.05,0.2,0.5"},
    ),
    # The operator's loop: no training. Ingest, calendar fill, partition and
    # prepare dominate; the agent only streams a loaded snapshot.
    "daily_ops": Workload(
        "daily_ops", ("validate-data", "reconcile"), RUN_OUTPUTS,
        {"train_start": "2010-01", "train_end": "2019-03", "test_month": "2019-04",
         "forecaster": "naive", "episodes": "1"},
        uses_snapshot=True,
    ),
}


def agent_seed(seed: int, index: int) -> int:
    """Distinct agent seed per op index within one workload seed."""
    return seed * 100_000 + index
