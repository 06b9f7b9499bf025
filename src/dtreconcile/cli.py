"""Command-line surface: configuration, orchestration, report files.

Verbs:
  run            train on the configured months, stream the test month,
                 write metrics.csv / qtable.txt / summary.json
  grid           tolerance x epsilon sweep, write grid.csv (the only verb
                 that sweeps; run and reconcile only check the grid keys)
  reconcile      load a Q-table snapshot and stream a cycle (no training)
  validate-data  ingestion and calendar checks only

Configuration is a flat key=value file; command-line --set overrides win.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .agent import AgentConfig, CycleData, load_table, reconcile_online, save_table, train
from .data import (
    MonthlyActuals,
    TimeSeries,
    fill_calendar,
    load_external_forecasts,
    load_ohlcv_csv,
    month_partition,
    parse_month,
)
from .errors import ConfigError, DataError, ReconcileError
from .evaluation import build_metric_report, run_grid
from .forecasting import ForecastSet, forecast_month
from .seeding import derive_seed, rng_for

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
        if self.seasonal_period < 1:
            raise ConfigError("seasonal_period must be at least 1")
        months = {}
        for key in ("train_start", "train_end", "test_month"):
            try:
                months[key] = parse_month(getattr(self, key))
            except DataError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        if months["train_start"] > months["train_end"]:
            raise ConfigError("train_start is after train_end")
        if months["test_month"] <= months["train_end"]:
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


def _parse_bool(raw: str) -> bool:
    word = raw.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(raw)
    return word in ("1", "true", "yes", "on")


# Parser per declared `RunConfig` field type, keyed by the annotation text
# (this module postpones annotations); a ValueError is a bad value.
_PARSERS = {
    "str": str,
    "str | None": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[str, ...]": lambda raw: tuple(tok.strip() for tok in raw.split(",") if tok.strip()),
    "tuple[float, ...]": lambda raw: tuple(float(tok) for tok in raw.split(",") if tok.strip()),
}


def build_run_config(mapping: dict[str, str]) -> RunConfig:
    """Parse each value by its `RunConfig` field's declared type."""
    declared = {f.name: f for f in fields(RunConfig)}
    kwargs: dict = {}
    for key, raw in mapping.items():
        if key not in declared:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _PARSERS[declared[key].type](raw)
        except ValueError:
            raise ConfigError(f"bad value for {key}: {raw!r}") from None
    missing = [name for name, f in declared.items()
               if f.default is MISSING and name not in kwargs]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    return RunConfig(**kwargs)


def resolve_tolerance(raw: str | float, test_forecasts: np.ndarray) -> float:
    """Absolute tolerance from a number or a percentage of the
    test-cycle forecast total."""
    text = str(raw).strip()
    percent = text.endswith("%")
    try:
        value = float(text.rstrip("%") if percent else text)
    except ValueError:
        raise ConfigError(f"bad tolerance {raw!r}") from None
    if not value > 0:
        raise ConfigError(f"tolerance {raw!r} must be positive")
    return value / 100.0 * float(np.sum(test_forecasts)) if percent else value


def _resolve_unit(config: RunConfig, tolerance_abs: float, n_days: int) -> float | None:
    unit = config.adjustment_unit
    if unit is None:
        return None
    if unit.strip() == "per-day":
        return tolerance_abs / n_days
    try:
        return float(unit)
    except ValueError:
        raise ConfigError(f"bad adjustment_unit {unit!r}") from None


def _months(config: RunConfig, filled: TimeSeries, first: str, last: str) -> list[MonthlyActuals]:
    """The complete months first..last of the data; a gap names the data file."""
    try:
        return month_partition(filled, (first, last))
    except DataError as exc:
        raise DataError(f"{config.data_path}: {exc}") from None


@dataclass
class PreparedExperiment:
    config: RunConfig
    filled: TimeSeries
    train_months: list[MonthlyActuals]
    test_month: MonthlyActuals
    test_forecast: ForecastSet
    agent_cfg: AgentConfig
    # Row-major over grid_tolerances x grid_epsilons; each seed derives from
    # the cell's coordinates, so a row does not depend on the sweep order.
    grid_cells: list[AgentConfig]

    def training(self) -> list[CycleData]:
        """Each training month forecast from the data before it."""
        config = self.config
        cycles = []
        for month in self.train_months:
            daily = forecast_month(self.filled, month, config.forecaster, config.seasonal_period)
            cycles.append(CycleData(daily, month.values, float(daily.sum()), label=month.label))
        return cycles


def prepare(config: RunConfig) -> PreparedExperiment:
    """Load and partition the data, forecast the test month, check its two
    totals, and build and check every agent setting and grid cell, all
    before any file is written."""
    series = load_ohlcv_csv(config.data_path, config.date_column, config.value_column)
    filled = fill_calendar(series)
    train_months = _months(config, filled, config.train_start, config.train_end)
    test = _months(config, filled, config.test_month, config.test_month)[0]

    if config.forecaster == "external":
        base_path = config.external_forecast_path
        test_forecast = load_external_forecasts(base_path, test)
    else:
        base_path = config.data_path
        daily = forecast_month(filled, test, config.forecaster, config.seasonal_period)
        test_forecast = ForecastSet.from_daily(daily, test.label)
    # MAPE_rec divides by the actual total and %_f by the base total.
    for path, total, what in ((config.data_path, test.values.sum(), "actuals"),
                              (base_path, test_forecast.daily.sum(), "base forecasts")):
        if total == 0:
            raise DataError(f"{path}: the {what} of test month {test.label} sum to 0; "
                            "MAPE_rec and %_f need nonzero totals")

    tolerance = resolve_tolerance(config.tolerance, test_forecast.daily)
    # Settings the two dataclasses share by name are copied; the
    # tolerance and the unit are resolved against the test cycle.
    shared = {f.name: getattr(config, f.name) for f in fields(AgentConfig)
              if hasattr(config, f.name)}
    shared.update(tolerance=tolerance,
                  adjustment_unit=_resolve_unit(config, tolerance, len(test)))
    where = ""
    grid_cells = []
    try:
        agent_cfg = AgentConfig(**shared)
        for i, raw in enumerate(config.grid_tolerances):
            tol = resolve_tolerance(raw, test_forecast.daily)
            unit = _resolve_unit(config, tol, len(test))
            for j, eps in enumerate(config.grid_epsilons):
                where = f"grid_tolerances={raw}, grid_epsilons={eps}: "
                grid_cells.append(replace(agent_cfg, tolerance=tol, adjustment_unit=unit,
                                          exploration=eps,
                                          seed=derive_seed(agent_cfg.seed, f"grid:{i}:{j}")))
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from None
    return PreparedExperiment(config, filled, train_months, test, test_forecast,
                              agent_cfg, grid_cells)


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
        "resolved_tolerance": prep.agent_cfg.tolerance,
        "adjustment_unit": prep.agent_cfg.unit,
        "seed": config.seed,
        "config": vars(config),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_experiment(config: RunConfig, qtable_path: str | None = None) -> None:
    """Full pipeline: train, stream the test month, write the reports.

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
        table = train(prep.training(), prep.agent_cfg)
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

    last = report.rows[-1]
    print(
        f"final RMF {last.rmf:.1f}  MAPE_rec {last.mape_rec_pct:.2f}%  "
        f"%_f {last.pct_f:.2f}%  (base MAPE {report.base_mape:.2f}%)"
    )


def grid_experiment(config: RunConfig) -> None:
    if not (config.grid_tolerances and config.grid_epsilons):
        raise ConfigError("grid verb needs grid_tolerances and grid_epsilons")
    prep = prepare(config)
    grid = run_grid(prep.training(), prep.test_forecast, prep.test_month.values,
                    prep.grid_cells)
    path = Path(config.output_dir) / "grid.csv"
    _write(path, grid.to_csv())
    for row in grid.rows:
        if row.error is not None:
            print(f"grid: cell tolerance={row.tolerance!r}, epsilon={row.epsilon!r} "
                  f"failed: {row.error}", file=sys.stderr)
    print(f"grid: {len(grid.rows)} cells -> {path}")


def validate_data(config: RunConfig) -> None:
    series = load_ohlcv_csv(config.data_path, config.date_column, config.value_column)
    filled = fill_calendar(series)
    months = _months(config, filled, config.train_start, config.test_month)
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
