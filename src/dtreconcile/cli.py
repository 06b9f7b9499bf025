"""Command-line surface: configuration, orchestration, report files.

Verbs:
  run            train on the configured months, stream the test month,
                 write metrics.csv / qtable.txt / summary.json
  grid           tolerance x epsilon sweep, write grid.csv
  reconcile      load a Q-table snapshot and stream a cycle (no training)
  validate-data  ingestion and calendar checks only

Configuration is a flat key=value file; command-line --set overrides win.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from . import forecasting
from .agent import AgentConfig, CycleData, load_table, reconcile_online, save_table, train
from .data import (
    MonthlyActuals,
    fill_calendar,
    iter_months,
    load_ohlcv_csv,
    month_partition,
    parse_month,
)
from .errors import ConfigError, DataError, ReconcileError
from .evaluation import build_metric_report, run_grid
from .forecasting import ForecastSet
from .seeding import rng_for

FORECASTERS = ("naive", "seasonal_naive", "drift", "external")


@dataclass(frozen=True)
class RunConfig:
    """Resolved experiment configuration."""

    data_path: str
    train_start: str
    train_end: str
    test_month: str
    date_column: str = "Date"
    value_column: str = "Open"
    forecaster: str = "naive"
    seasonal_period: int = 7
    external_forecast_path: str | None = None
    tolerance: str = "20%"
    exploration: float = 0.05
    step_size: float = 0.1
    discount: float = 1.0
    episodes: int = 1
    seed: int = 0
    online_updates: bool = True
    adjustment_unit: str | None = None  # absolute number or "per-day"
    clamp_nonnegative: bool = False
    grid_tolerances: tuple[str, ...] = ()
    grid_epsilons: tuple[float, ...] = ()
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if self.forecaster not in FORECASTERS:
            raise ConfigError(
                f"unknown forecaster {self.forecaster!r}; choose from {FORECASTERS}"
            )
        if self.forecaster == "external" and not self.external_forecast_path:
            raise ConfigError("external forecaster needs external_forecast_path")
        y_end, m_end = parse_month(self.train_end)
        y_test, m_test = parse_month(self.test_month)
        if parse_month(self.train_start) > (y_end, m_end):
            raise ConfigError("train_start is after train_end")
        if (y_test, m_test) <= (y_end, m_end):
            raise ConfigError("test month must follow the training range")


def parse_config_file(path) -> dict[str, str]:
    """Read a flat key=value file, ignoring blanks and # comments."""
    mapping: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


_BOOL_KEYS = {"online_updates", "clamp_nonnegative"}
_INT_KEYS = {"seasonal_period", "episodes", "seed"}
_FLOAT_KEYS = {"exploration", "step_size", "discount"}


def build_run_config(mapping: dict[str, str]) -> RunConfig:
    kwargs: dict = {}
    valid = set(RunConfig.__dataclass_fields__)
    for key, raw in mapping.items():
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if key in _BOOL_KEYS:
                kwargs[key] = raw.lower() in ("1", "true", "yes", "on")
            elif key in _INT_KEYS:
                kwargs[key] = int(raw)
            elif key in _FLOAT_KEYS:
                kwargs[key] = float(raw)
            elif key == "grid_tolerances":
                kwargs[key] = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
            elif key == "grid_epsilons":
                kwargs[key] = tuple(float(tok) for tok in raw.split(",") if tok.strip())
            else:
                kwargs[key] = raw
        except ValueError:
            raise ConfigError(f"bad value for {key}: {raw!r}") from None
    missing = [k for k in ("data_path", "train_start", "train_end", "test_month")
               if k not in kwargs]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    return RunConfig(**kwargs)


def resolve_tolerance(raw: str | float, test_forecasts: np.ndarray) -> float:
    """Absolute tolerance from a number or a percentage of the
    test-cycle forecast total."""
    if isinstance(raw, str) and raw.strip().endswith("%"):
        try:
            pct = float(raw.strip().rstrip("%"))
        except ValueError:
            raise ConfigError(f"bad tolerance {raw!r}") from None
        if not pct > 0:
            raise ConfigError(f"tolerance {raw!r} must be a positive percentage")
        return pct / 100.0 * float(np.sum(test_forecasts))
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"bad tolerance {raw!r}") from None
    if not value > 0:
        raise ConfigError("tolerance must be positive")
    return value


def _resolve_unit(config: RunConfig, tolerance_abs: float, n_days: int) -> float | None:
    if config.adjustment_unit is None:
        return None
    if config.adjustment_unit.strip() == "per-day":
        return tolerance_abs / n_days
    try:
        return float(config.adjustment_unit)
    except ValueError:
        raise ConfigError(
            f"bad adjustment_unit {config.adjustment_unit!r}"
        ) from None


def forecast_month(
    history_values: np.ndarray,
    month: MonthlyActuals,
    forecaster: str,
    period: int,
) -> np.ndarray:
    """Daily base forecasts for one month from the data preceding it.

    A month with no preceding data falls back to repeating its own first
    observation.
    """
    h = len(month)
    if history_values.size == 0:
        return np.full(h, month.values[0])
    if forecaster == "seasonal_naive" and history_values.size >= period:
        return forecasting.seasonal_naive(history_values, period, h)
    if forecaster == "drift" and history_values.size >= 2:
        return forecasting.drift(history_values, h)
    return forecasting.naive(history_values, h)


def load_external_forecasts(path, month: MonthlyActuals) -> ForecastSet:
    """CSV `date,forecast` covering the test cycle, with an optional
    `monthly_total,<value>` override row."""
    by_date: dict[date, float] = {}
    monthly_total: float | None = None
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            key = row[0].strip().lower()
            if key in ("date", "day"):  # header
                continue
            if key == "monthly_total":
                monthly_total = float(row[1])
                continue
            from .data import _parse_date

            day = _parse_date(row[0], line_no)
            by_date[day] = float(row[1])
    missing = [d for d in month.dates if d not in by_date]
    if missing:
        raise DataError(
            f"external forecast file missing {len(missing)} days of "
            f"{month.label} (first {missing[0].isoformat()})"
        )
    daily = np.array([by_date[d] for d in month.dates])
    return ForecastSet.from_daily(daily, month.label, monthly_total=monthly_total)


@dataclass
class PreparedExperiment:
    training: list[CycleData]
    test_month: MonthlyActuals
    test_forecast: ForecastSet
    tolerance_abs: float
    agent_cfg: AgentConfig


def prepare(config: RunConfig) -> PreparedExperiment:
    series = load_ohlcv_csv(config.data_path, config.date_column, config.value_column)
    filled = fill_calendar(series)
    train_months = month_partition(filled, (config.train_start, config.train_end))
    test = month_partition(filled, (config.test_month, config.test_month))[0]

    start = filled.timestamps[0]

    def history_before(first_day: date) -> np.ndarray:
        # The filled series has one value per calendar day from `start`.
        return filled.values[: (first_day - start).days]

    # Training months always use a simple forecaster; the external file
    # only covers the test cycle.
    train_method = config.forecaster if config.forecaster != "external" else "naive"
    training = []
    for month in train_months:
        daily = forecast_month(
            history_before(month.dates[0]), month, train_method, config.seasonal_period
        )
        training.append(
            CycleData(daily, month.values, float(daily.sum()), label=month.label)
        )

    if config.forecaster == "external":
        test_forecast = load_external_forecasts(config.external_forecast_path, test)
    else:
        daily = forecast_month(
            history_before(test.dates[0]), test, config.forecaster,
            config.seasonal_period,
        )
        test_forecast = ForecastSet.from_daily(daily, test.label)

    tolerance_abs = resolve_tolerance(config.tolerance, test_forecast.daily)
    try:
        agent_cfg = AgentConfig(
            tolerance=tolerance_abs,
            exploration=config.exploration,
            step_size=config.step_size,
            discount=config.discount,
            episodes=config.episodes,
            seed=config.seed,
            online_updates=config.online_updates,
            adjustment_unit=_resolve_unit(config, tolerance_abs, len(test)),
            clamp_nonnegative=config.clamp_nonnegative,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return PreparedExperiment(training, test, test_forecast, tolerance_abs, agent_cfg)


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)


def _summary_json(config: RunConfig, prep: PreparedExperiment, report) -> str:
    last = report.rows[-1]
    payload = {
        "final_rmf": last.rmf,
        "mape_rec_pct": last.mape_rec_pct,
        "pct_f": last.pct_f,
        "base_total": report.base_total,
        "actual_total": report.actual_total,
        "base_mape_pct": report.base_mape,
        "resolved_tolerance": prep.tolerance_abs,
        "adjustment_unit": prep.agent_cfg.unit,
        "seed": config.seed,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in sorted(config.__dict__.items())},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_experiment(config: RunConfig, qtable_path: str | None = None) -> dict:
    """Full pipeline; returns the final-day metrics.

    With ``qtable_path`` set, training is skipped and the snapshot is
    streamed directly (the `reconcile` verb).
    """
    snapshot_out = Path(config.output_dir) / "qtable.txt"
    if qtable_path is not None and Path(qtable_path).resolve() == snapshot_out.resolve():
        raise ConfigError(
            f"--qtable {qtable_path} would be overwritten by this run's snapshot "
            f"{snapshot_out}; set output_dir to another directory"
        )
    prep = prepare(config)
    if qtable_path is None:
        table = train(prep.training, prep.agent_cfg)
    else:
        table, _meta = load_table(qtable_path)
    trace = reconcile_online(
        table,
        prep.test_forecast,
        prep.test_month.values,
        prep.agent_cfg,
        rng_for(prep.agent_cfg.seed, "online"),
    )
    report = build_metric_report(
        trace,
        prep.test_month.values,
        prep.test_forecast.daily,
        labels=[d.isoformat() for d in prep.test_month.dates[: len(trace)]],
    )
    out = Path(config.output_dir)
    _write(out / "metrics.csv", report.to_csv())
    save_table(table, snapshot_out, prep.agent_cfg)
    _write(out / "summary.json", _summary_json(config, prep, report))

    if config.grid_tolerances and config.grid_epsilons:
        _write_grid(config, prep, out)

    last = report.rows[-1]
    print(
        f"final RMF {last.rmf:.1f}  MAPE_rec {last.mape_rec_pct:.2f}%  "
        f"%_f {last.pct_f:.2f}%  (base MAPE {report.base_mape:.2f}%)"
    )
    return {
        "final_rmf": last.rmf,
        "mape_rec_pct": last.mape_rec_pct,
        "pct_f": last.pct_f,
        "base_mape_pct": report.base_mape,
    }


def _write_grid(config: RunConfig, prep: PreparedExperiment, out: Path) -> None:
    tolerances = [
        resolve_tolerance(raw, prep.test_forecast.daily)
        for raw in config.grid_tolerances
    ]
    test_cycle = CycleData(
        prep.test_forecast.daily,
        prep.test_month.values,
        prep.test_forecast.monthly_total,
        label=prep.test_month.label,
    )
    grid = run_grid(
        prep.training, test_cycle, tolerances, list(config.grid_epsilons),
        prep.agent_cfg,
    )
    _write(out / "grid.csv", grid.to_csv())
    print(f"grid: {len(grid.rows)} cells -> {out / 'grid.csv'}")


def grid_experiment(config: RunConfig) -> None:
    if not (config.grid_tolerances and config.grid_epsilons):
        raise ConfigError("grid verb needs grid_tolerances and grid_epsilons")
    prep = prepare(config)
    _write_grid(config, prep, Path(config.output_dir))


def validate_data(config: RunConfig) -> None:
    series = load_ohlcv_csv(config.data_path, config.date_column, config.value_column)
    filled = fill_calendar(series)
    months = month_partition(filled, (config.train_start, config.test_month))
    print(
        f"{config.data_path}: {len(series)} rows, {len(filled)} after calendar "
        f"fill, {len(months)} complete months "
        f"{months[0].label}..{months[-1].label}"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtreconcile",
        description="Revise a monthly forecast from streaming daily actuals",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "grid", "reconcile", "validate-data"):
        p = sub.add_parser(verb)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key (repeatable; wins over the file)",
        )
        if verb == "reconcile":
            p.add_argument("--qtable", required=True, help="Q-table snapshot to load")
    return parser


def _merge_config(args) -> RunConfig:
    mapping: dict[str, str] = {}
    if args.config:
        mapping.update(parse_config_file(args.config))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    if not mapping:
        raise ConfigError("no configuration given (use --config and/or --set)")
    return build_run_config(mapping)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        if args.verb == "run":
            run_experiment(config)
        elif args.verb == "grid":
            grid_experiment(config)
        elif args.verb == "reconcile":
            run_experiment(config, qtable_path=args.qtable)
        else:
            validate_data(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ReconcileError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
