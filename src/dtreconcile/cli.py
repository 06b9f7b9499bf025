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
import os
import sys
from math import isfinite
from pathlib import Path
from typing import NamedTuple

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
from .forecasting import forecast_month
from .seeding import derive_seed, rng_for
from .totals import pairwise_sum

FORECASTERS = ("naive", "seasonal_naive", "drift", "external")


class _RunFields(NamedTuple):
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


class RunConfig(_RunFields):
    """Resolved experiment configuration."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self


def parse_config_file(path) -> dict[str, str]:
    """Read a flat key=value file, ignoring blanks and # comments."""
    mapping: dict[str, str] = {}
    try:
        # A byte that is not text decodes to U+FFFD, which a comment
        # ignores and which makes a key unknown or a value bad.
        text = Path(path).read_text(errors="replace")
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
# (this module postpones annotations, so NamedTuple holds each as a
# ForwardRef of its text); a ValueError is a bad value.
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
    declared = {name: getattr(annotation, "__forward_arg__", annotation)
                for name, annotation in _RunFields.__annotations__.items()}
    kwargs: dict = {}
    for key, raw in mapping.items():
        if key not in declared:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if "\0" in raw:  # no path, column name or number holds a NUL
                raise ValueError(raw)
            kwargs[key] = _PARSERS[declared[key]](raw)
        except ValueError:
            raise ConfigError(f"bad value for {key}: {raw!r}") from None
    missing = [name for name in RunConfig._fields
               if name not in RunConfig._field_defaults and name not in kwargs]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    return RunConfig(**kwargs)


def _is_percentage(raw: str | float) -> bool:
    return str(raw).strip().endswith("%")


def resolve_tolerance(raw: str | float, test_forecasts) -> float:
    """Absolute tolerance from a number or a percentage of the
    test-cycle forecast total."""
    text = str(raw).strip()
    percent = _is_percentage(text)
    try:
        value = float(text.rstrip("%") if percent else text)
    except ValueError:
        raise ConfigError(f"bad tolerance {raw!r}") from None
    if not value > 0:
        raise ConfigError(f"tolerance {raw!r} must be positive")
    return value / 100.0 * pairwise_sum(test_forecasts) if percent else value


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


def _unit_key(config: RunConfig) -> str:
    """The config key that sets the adjustment unit."""
    unit = config.adjustment_unit
    return "tolerance" if unit is None or unit.strip() == "per-day" else "adjustment_unit"


def _metrics_overflow(reach: float, smallest_total: float) -> bool:
    """Whether MAPE_rec or %_f can overflow for an RMF within ``reach`` of
    0. Each divides |total - RMF|, at most |total| + reach, by a nonzero
    total; the factor 2 covers rounding."""
    return not isfinite((smallest_total + reach) / smallest_total * 200.0)


def _load(config: RunConfig) -> tuple[TimeSeries, TimeSeries]:
    """The data as read and calendar-filled; a fill that overflows names
    the data file."""
    series = load_ohlcv_csv(config.data_path, config.date_column, config.value_column)
    try:
        return series, fill_calendar(series)
    except DataError as exc:
        raise DataError(f"{config.data_path}: {exc}") from None


def _months(config: RunConfig, filled: TimeSeries, first: str, last: str) -> list[MonthlyActuals]:
    """The complete months first..last of the data; a gap names the data file."""
    try:
        return month_partition(filled, (first, last))
    except DataError as exc:
        raise DataError(f"{config.data_path}: {exc}") from None


class PreparedExperiment(NamedTuple):
    config: RunConfig
    filled: TimeSeries
    train_months: list[MonthlyActuals]
    test_month: MonthlyActuals  # its dates label the rows of metrics.csv
    test: CycleData
    agent_cfg: AgentConfig
    # Row-major over grid_tolerances x grid_epsilons; each seed derives from
    # the cell's coordinates, so a row does not depend on the sweep order.
    grid_cells: list[AgentConfig]

    def training(self) -> list[CycleData]:
        """Each training month forecast from the data before it; forecasts
        that overflow when summed name the data file and the month."""
        config = self.config
        cycles = []
        for month in self.train_months:
            daily = forecast_month(self.filled, month, config.forecaster,
                                   config.seasonal_period)
            total = pairwise_sum(daily)
            if not isfinite(total):
                raise DataError(f"{config.data_path}: the base forecasts of training month "
                                f"{month.label} overflow when summed")
            # A finite sum has finite terms: `CycleData`'s checks would repeat.
            cycles.append(CycleData._make((daily, month.values, total)))
        return cycles


def prepare(config: RunConfig) -> PreparedExperiment:
    """Load and partition the data, forecast the test month, check its two
    totals, and build and check every agent setting and grid cell, all
    before any file is written."""
    _, filled = _load(config)
    train_months = _months(config, filled, config.train_start, config.train_end)
    month = _months(config, filled, config.test_month, config.test_month)[0]

    if config.forecaster == "external":
        base_path = config.external_forecast_path
        daily = load_external_forecasts(base_path, month)
    else:
        base_path = config.data_path
        daily = forecast_month(filled, month, config.forecaster, config.seasonal_period)
    # MAPE_rec divides by the actual total and %_f by the base total.
    actual_total, base_total = pairwise_sum(month.values), pairwise_sum(daily)
    for path, total, what in ((config.data_path, actual_total, "actuals"),
                              (base_path, base_total, "base forecasts")):
        if total == 0:
            raise DataError(f"{path}: the {what} of test month {month.label} sum to 0; "
                            "MAPE_rec and %_f need nonzero totals")
        if not isfinite(total):
            raise DataError(f"{path}: the {what} of test month {month.label} overflow "
                            "when summed")
    # Every RMF sums the daily forecasts, each moved by at most one unit,
    # so it lies within `abs_sum + n * unit` of 0; the base forecasts
    # alone are the RMF with no move.
    abs_sum = pairwise_sum(tuple(map(abs, daily)))
    smallest_total = min(abs(actual_total), abs(base_total))
    if _metrics_overflow(abs_sum, smallest_total):
        raise DataError(f"{base_path}: the base forecasts of test month {month.label} "
                        f"(total {base_total!r}) against actuals that sum to "
                        f"{actual_total!r} overflow MAPE_rec or %_f")
    test = CycleData(daily, month.values, base_total)
    # A percentage tolerance is a share of the base total; below 0 it would
    # be a negative tolerance, and the data, not the config, is at fault.
    if base_total < 0 and any(map(_is_percentage, (config.tolerance, *config.grid_tolerances))):
        raise DataError(f"{base_path}: the base forecasts of test month {month.label} sum to "
                        f"{base_total!r}, below 0; a percentage tolerance needs a positive "
                        "total")

    tolerance = resolve_tolerance(config.tolerance, daily)
    # Every agent setting has a config key of the same name; the
    # tolerance and the unit are resolved against the test cycle.
    shared = {name: getattr(config, name) for name in AgentConfig._fields}
    shared.update(tolerance=tolerance,
                  adjustment_unit=_resolve_unit(config, tolerance, len(month)))

    def check_reach(cfg: AgentConfig) -> AgentConfig:
        if _metrics_overflow(abs_sum + len(daily) * cfg.unit, smallest_total):
            raise ValueError(f"moving each of the {len(daily)} daily forecasts of test month "
                             f"{month.label} by {cfg.unit!r} overflows MAPE_rec or %_f")
        return cfg

    where = ""
    grid_cells = []
    try:
        agent_cfg = AgentConfig(**shared)
        where = f"{_unit_key(config)}: "
        check_reach(agent_cfg)
        for i, raw in enumerate(config.grid_tolerances):
            tol = resolve_tolerance(raw, daily)
            unit = _resolve_unit(config, tol, len(month))
            for j, eps in enumerate(config.grid_epsilons):
                where = f"grid_tolerances={raw}, grid_epsilons={eps}: "
                grid_cells.append(check_reach(agent_cfg._replace(
                    tolerance=tol, adjustment_unit=unit, exploration=eps,
                    seed=derive_seed(agent_cfg.seed, f"grid:{i}:{j}"))))
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from None
    return PreparedExperiment(config, filled, train_months, month, test,
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
        "config": config._asdict(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _refuse_overwrite(config: RunConfig, outputs: tuple[str, ...],
                      qtable_path: str | None = None,
                      config_path: str | None = None) -> None:
    """Refuse, before anything is read, a verb whose ``output_dir`` is not
    a directory or lies under a file, or whose output files in it include
    one of its input files."""
    out = Path(config.output_dir)
    # `mkdir` would fail on it only at the first write, after all the work.
    existing = next((path for path in (out, *out.parents) if os.path.lexists(path)), None)
    if existing is not None and not os.path.isdir(existing):
        raise ConfigError(f"output_dir {config.output_dir}: {existing} is not a directory")
    inputs = [("data_path", config.data_path)]
    if config.forecaster == "external":
        inputs.append(("external_forecast_path", config.external_forecast_path))
    if qtable_path is not None:
        inputs.append(("--qtable", qtable_path))
    if config_path is not None:
        inputs.append(("--config", config_path))
    # `realpath`, unlike `Path.resolve`, returns on a symlink loop.
    written = {os.path.realpath(path): path for path in (out / name for name in outputs)}
    for key, path in inputs:
        if (output := written.get(os.path.realpath(path))) is not None:
            raise ConfigError(f"{key} {path} would be overwritten by {output}; "
                              "set output_dir to another directory")


def run_experiment(config: RunConfig, qtable_path: str | None = None,
                   config_path: str | None = None) -> None:
    """Full pipeline: train, stream the test month, write the reports.

    With ``qtable_path`` set, training is skipped and the snapshot is
    streamed directly (the `reconcile` verb). ``config_path``, the file
    the configuration was read from, is refused as an output too.
    """
    _refuse_overwrite(config, ("metrics.csv", "qtable.txt", "summary.json"), qtable_path,
                      config_path)
    prep = prepare(config)
    if qtable_path is None:
        table = train(prep.training(), prep.agent_cfg)
    else:
        table, _meta = load_table(qtable_path)
    test = prep.test
    trace = reconcile_online(
        table,
        test.forecasts,
        test.actuals,
        prep.agent_cfg,
        rng_for(prep.agent_cfg.seed, "online"),
    )
    report = build_metric_report(
        trace,
        test.actuals,
        test.forecasts,
        labels=[d.isoformat() for d in prep.test_month.dates[: len(trace)]],
    )
    out = Path(config.output_dir)
    _write(out / "metrics.csv", report.to_csv())
    save_table(table, out / "qtable.txt", prep.agent_cfg)
    _write(out / "summary.json", _summary_json(config, prep, report))

    last = report.rows[-1]
    print(
        f"final RMF {last.rmf:.1f}  MAPE_rec {last.mape_rec_pct:.2f}%  "
        f"%_f {last.pct_f:.2f}%  (base MAPE {report.base_mape:.2f}%)"
    )


def grid_experiment(config: RunConfig, config_path: str | None = None) -> None:
    if not (config.grid_tolerances and config.grid_epsilons):
        raise ConfigError("grid verb needs grid_tolerances and grid_epsilons")
    _refuse_overwrite(config, ("grid.csv",), config_path=config_path)
    prep = prepare(config)
    grid = run_grid(prep.training(), prep.test, prep.grid_cells)
    path = Path(config.output_dir) / "grid.csv"
    _write(path, grid.to_csv())
    for row in grid.rows:
        if row.error is not None:
            print(f"grid: cell tolerance={row.tolerance!r}, epsilon={row.epsilon!r} "
                  f"failed: {row.error}", file=sys.stderr)
    print(f"grid: {len(grid.rows)} cells -> {path}")


def validate_data(config: RunConfig) -> None:
    series, filled = _load(config)
    months = _months(config, filled, config.train_start, config.test_month)
    print(
        f"{config.data_path}: {len(series)} rows, {len(filled)} after calendar "
        f"fill, {len(months)} complete months "
        f"{months[0].label}..{months[-1].label}"
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # A usage error is a configuration error: exit 1, not argparse's 2,
        # which is the data-error code. The verbs' parsers are this class too.
        raise ConfigError(f"{self.prog}: {message}")


def _parse_args(argv) -> argparse.Namespace:
    """The verb and its options. Only the named verb's parser is built:
    building all four took longer than a parse."""
    parser = _Parser(
        prog="dtreconcile",
        description="Revise a monthly forecast from streaming daily actuals",
    )
    parser.add_argument("verb", choices=("run", "grid", "reconcile", "validate-data"))
    options = parser.add_argument("options", nargs=argparse.REMAINDER,
                                  help="the verb's options")
    options.required = False  # so that a missing verb is named alone
    head = parser.parse_args(argv)
    p = _Parser(prog=f"dtreconcile {head.verb}")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable; wins over the file)",
    )
    if head.verb == "reconcile":
        p.add_argument("--qtable", required=True, help="Q-table snapshot to load")
    return p.parse_args(head.options, argparse.Namespace(verb=head.verb))


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
    try:
        args = _parse_args(argv)
        config = _merge_config(args)
        if args.verb == "run":
            run_experiment(config, config_path=args.config)
        elif args.verb == "grid":
            grid_experiment(config, config_path=args.config)
        elif args.verb == "reconcile":
            run_experiment(config, qtable_path=args.qtable, config_path=args.config)
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
