"""Command-line surface: configuration, orchestration, report files.

Verbs:
  run            train on the configured months, stream the test month,
                 write metrics.csv / qtable.txt / summary.json
  grid           tolerance x epsilon sweep, write grid.csv (the only verb
                 that sweeps; run and reconcile only check the grid keys)
  reconcile      load a Q-table snapshot and stream a cycle (no training)
  validate-data  ingestion and calendar checks only

Each verb calls `load` once for the work done once per data file: read,
fill the calendar days the verb reads, check the months
train_start..test_month. `prepare` then builds the test month from the
filled calendar, and `training` the training cycles.

Configuration is a flat key=value file; command-line --set overrides win.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from datetime import date
from math import isfinite
from pathlib import Path
from typing import NamedTuple

from .agent import AgentConfig, CycleData, History, load_table, reconcile_online, save_table, train
from .data import (
    DEFAULT_DATE_COLUMN,
    DEFAULT_VALUE_COLUMN,
    Calendar,
    TimeSeries,
    check_months,
    days_in_month,
    fill_calendar,
    load_external_forecasts,
    load_ohlcv_csv,
    month_label,
    month_partition,
    parse_month,
)
from .errors import ConfigError, DataError, ReconcileError
from .evaluation import build_metric_report, run_grid
from .forecasting import forecast_month, lookback
from .seeding import derive_seed, rng_for
from .totals import pairwise_sum

FORECASTERS = ("naive", "seasonal_naive", "drift", "external")
_AGENT = AgentConfig._field_defaults  # the agent settings' defaults, declared once


class _RunFields(NamedTuple):
    data_path: str
    train_start: str
    train_end: str
    test_month: str
    date_column: str = DEFAULT_DATE_COLUMN
    value_column: str = DEFAULT_VALUE_COLUMN
    forecaster: str = "naive"
    seasonal_period: int = 7
    external_forecast_path: str | None = None
    tolerance: str = "20%"
    exploration: float = _AGENT["exploration"]
    step_size: float = _AGENT["step_size"]
    discount: float = _AGENT["discount"]
    episodes: int = _AGENT["episodes"]
    seed: int = _AGENT["seed"]
    online_updates: bool = _AGENT["online_updates"]
    adjustment_unit: str | None = _AGENT["adjustment_unit"]  # absolute number or "per-day"
    clamp_nonnegative: bool = _AGENT["clamp_nonnegative"]
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
        # ignores and which makes a key unknown or a value bad; a leading
        # byte-order mark is dropped.
        with open(path, encoding="utf-8-sig", errors="replace") as fh:
            text = fh.read()
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


def resolve_tolerance(raw: str | float, base_total: float) -> float:
    """Absolute tolerance from a number, or from a percentage (one
    trailing `%`) of the test cycle's base total."""
    text = str(raw).strip()
    number = text.removesuffix("%")
    try:
        value = float(number)
    except ValueError:
        raise ConfigError(f"bad tolerance {raw!r}") from None
    return value / 100.0 * base_total if number != text else value


def _metrics_overflow(reach: float, smallest_total: float) -> bool:
    """Whether MAPE_rec or %_f can overflow for an RMF within ``reach`` of
    0. Each divides |total - RMF|, at most |total| + reach, by a nonzero
    total; the factor 2 covers rounding."""
    return not isfinite((smallest_total + reach) / smallest_total * 200.0)


def load(config: RunConfig,
         fill_from: str | None = "train_start") -> tuple[TimeSeries, Calendar, int]:
    """The data as read, its calendar filled over the days a verb reads, and
    the number of months train_start..test_month the data's first and last
    days cover, the work done once per data file.

    The filled days run from the month that the config key ``fill_from``
    names, less the forecaster's `lookback`, through the last day of
    test_month, clipped to the data's ends: from train_start for `run` and
    `grid`, from test_month for `reconcile`. With ``fill_from`` None no day
    is filled. A month not covered names the data file."""
    series = load_ohlcv_csv(config.data_path, config.date_column, config.value_column)
    stamps = series.timestamps
    first, last = date.max, date.min  # an empty window
    if fill_from is not None:
        # In day ordinals, so that no day before date.min is made.
        year, month = parse_month(getattr(config, fill_from))
        first = date.fromordinal(max(
            date(year, month, 1).toordinal() - lookback(config.forecaster, config.seasonal_period),
            stamps[0].toordinal()))
        year, month = parse_month(config.test_month)
        last = date(year, month, days_in_month(year, month))
    filled = fill_calendar(series, first, last)
    try:
        return series, filled, check_months(stamps[0], stamps[-1],
                                            (config.train_start, config.test_month))
    except DataError as exc:
        raise DataError(f"{config.data_path}: {exc}") from None


class PreparedExperiment(NamedTuple):
    test_month: Calendar  # its dates label the rows of metrics.csv
    test: CycleData
    agent_cfg: AgentConfig
    # Row-major over grid_tolerances x grid_epsilons; each seed derives from
    # the cell's coordinates, so a row does not depend on the sweep order.
    grid_cells: list[AgentConfig]


def training(config: RunConfig, filled: Calendar) -> History:
    """Each training month of a calendar that `load` checked, partitioned
    here, forecast from the data before it."""
    # Data within `LIMIT` keep both within `AGENT_LIMIT` (see `errors`).
    return History(
        CycleData._make((forecast_month(filled, month, config.forecaster, config.seasonal_period),
                         month.values))
        for month in month_partition(filled, (config.train_start, config.train_end)))


def prepare(config: RunConfig, filled: Calendar) -> PreparedExperiment:
    """Partition and forecast the test month of a calendar `load` checked
    and check its two totals; then build the base agent setting and every
    grid cell through one path, `setting`, all before any file is written."""
    month = month_partition(filled, (config.test_month, config.test_month))[0]

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
    # Every RMF sums the daily forecasts, each moved by at most one unit,
    # so it lies within `abs_sum + n * unit` of 0; the base forecasts
    # alone are the RMF with no move.
    abs_sum = pairwise_sum(tuple(map(abs, daily)))
    smallest_total = min(abs(actual_total), abs(base_total))
    if _metrics_overflow(abs_sum, smallest_total):
        raise DataError(f"{base_path}: the base forecasts of test month {month.label} "
                        f"(total {base_total!r}) against actuals that sum to "
                        f"{actual_total!r} overflow MAPE_rec or %_f")
    test = CycleData(daily, month.values)
    # A percentage tolerance is a share of the base total; below 0 it would
    # be a negative tolerance, and the data, not the config, is at fault.
    if base_total < 0 and any(str(raw).strip().endswith("%")
                              for raw in (config.tolerance, *config.grid_tolerances)):
        raise DataError(f"{base_path}: the base forecasts of test month {month.label} sum to "
                        f"{base_total!r}, below 0; a percentage tolerance needs a positive "
                        "total")
    # Every agent setting has a config key of the same name.
    shared = {name: getattr(config, name) for name in AgentConfig._fields}

    def setting(raw: str, where: str = "", **changes) -> AgentConfig:
        """The checked setting at tolerance ``raw`` with ``changes``. An error
        names ``where``, or, for the base setting's reach, the unit's key."""
        try:
            tolerance = resolve_tolerance(raw, base_total)
        except ConfigError as exc:
            raise ConfigError(f"{where}{exc}") from None
        unit, key = config.adjustment_unit, "tolerance"
        if unit is not None and unit.strip() == "per-day":
            unit = tolerance / len(daily)
        elif unit is not None:
            try:
                unit = float(unit)
            except ValueError:
                raise ConfigError(f"bad adjustment_unit {unit!r}") from None
            key = "adjustment_unit"
        try:
            cfg = AgentConfig(**{**shared, "tolerance": tolerance, "adjustment_unit": unit,
                                 **changes})
        except ValueError as exc:
            raise ConfigError(f"{where}{exc}") from None
        if _metrics_overflow(abs_sum + len(daily) * cfg.unit, smallest_total):
            raise ConfigError(f"{where or key + ': '}moving each of the {len(daily)} daily "
                              f"forecasts of test month {month.label} by {cfg.unit!r} "
                              "overflows MAPE_rec or %_f")
        return cfg

    agent_cfg = setting(config.tolerance)
    grid_cells = [setting(raw, f"grid_tolerances={raw}, grid_epsilons={eps}: ", exploration=eps,
                          seed=derive_seed(agent_cfg.seed, f"grid:{i}:{j}"))
                  for i, raw in enumerate(config.grid_tolerances)
                  for j, eps in enumerate(config.grid_epsilons)]
    # With one grid list empty no cell is built, but each value of the other
    # is checked: a tolerance at the base exploration, an epsilon at the
    # base tolerance.
    if not config.grid_epsilons:
        for raw in config.grid_tolerances:
            setting(raw, f"grid_tolerances={raw}: ")
    if not config.grid_tolerances:
        for eps in config.grid_epsilons:
            setting(config.tolerance, f"grid_epsilons={eps}: ", exploration=eps)
    return PreparedExperiment(month, test, agent_cfg, grid_cells)


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
    """Refuse, before anything is read, a verb whose ``output_dir`` is empty,
    is not a directory or lies under a file, or whose output files in it
    include one of its input files.

    Outputs and inputs are compared by file identity, device and inode, so
    an input that is an existing output, by any path or through a symbolic
    or hard link, is refused. An output not written yet cannot be an
    existing input, and an input that does not exist fails at its own
    read, before any file is written."""
    if not config.output_dir:  # `Path("")` is the current directory
        raise ConfigError("output_dir is empty")
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
    written = {}
    for output in (out / name for name in outputs):
        if (inode := _inode(output)) is not None:
            written[inode] = output
    for key, path in inputs:
        if (output := written.get(_inode(path))) is not None:
            raise ConfigError(f"{key} {path} would be overwritten by {output}; "
                              "set output_dir to another directory")


def _inode(path) -> tuple[int, int] | None:
    """The device and inode of an existing file, or None."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_dev, stat.st_ino


def run_experiment(config: RunConfig, qtable_path: str | None = None,
                   config_path: str | None = None) -> None:
    """Full pipeline: train, stream the test month, write the reports.

    With ``qtable_path`` set, training is skipped and the snapshot is
    streamed directly (the `reconcile` verb). ``config_path``, the file
    the configuration was read from, is refused as an output too.
    """
    _refuse_overwrite(config, ("metrics.csv", "qtable.txt", "summary.json"), qtable_path,
                      config_path)
    _, filled, _ = load(config, "train_start" if qtable_path is None else "test_month")
    prep = prepare(config, filled)
    if qtable_path is None:
        table = train(training(config, filled), prep.agent_cfg)
    else:
        table = load_table(qtable_path)
    test = prep.test
    trace = reconcile_online(table, test.forecasts, test.actuals, prep.agent_cfg,
                             rng_for(prep.agent_cfg.seed, "online"))
    report = build_metric_report(trace, test,
                                 [d.isoformat() for d in prep.test_month.dates[:len(trace)]])
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:  # a walk from a snapshot near `AGENT_LIMIT` can move an entry past it
        save_table(table, out / "qtable.txt", prep.agent_cfg)
    except ValueError as exc:
        raise DataError(f"{qtable_path}: revising {prep.test_month.label}: {exc}") from None
    (out / "metrics.csv").write_text(report.to_csv())
    (out / "summary.json").write_text(_summary_json(config, prep, report))

    last = report.rows[-1]
    print(
        f"final RMF {last.rmf:.1f}  MAPE_rec {last.mape_rec_pct:.2f}%  "
        f"%_f {last.pct_f:.2f}%  (base MAPE {report.base_mape:.2f}%)"
    )


def grid_experiment(config: RunConfig, config_path: str | None = None) -> None:
    if not (config.grid_tolerances and config.grid_epsilons):
        raise ConfigError("grid verb needs grid_tolerances and grid_epsilons")
    _refuse_overwrite(config, ("grid.csv",), config_path=config_path)
    _, filled, _ = load(config)
    prep = prepare(config, filled)
    grid = run_grid(training(config, filled), prep.test, prep.grid_cells)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "grid.csv"
    path.write_text(grid.to_csv())
    for row in grid.rows:
        if row.error is not None:
            print(f"grid: cell tolerance={row.tolerance!r}, epsilon={row.epsilon!r} "
                  f"failed: {row.error}", file=sys.stderr)
    print(f"grid: {len(grid.rows)} cells -> {path}")


def validate_data(config: RunConfig) -> None:
    series, _, n_months = load(config, None)
    days = (series.timestamps[-1] - series.timestamps[0]).days + 1
    first, last = (month_label(*parse_month(label))
                   for label in (config.train_start, config.test_month))
    print(
        f"{config.data_path}: {len(series)} rows, {days} after calendar "
        f"fill, {n_months} complete months {first}..{last}"
    )


_VERBS = ("run", "grid", "reconcile", "validate-data")


class _Args(NamedTuple):
    verb: str
    config: str | None
    set: list[str]
    qtable: str | None


def _parse_args(argv) -> _Args:
    """`dtreconcile VERB [--config PATH] [--set KEY=VALUE]... [--qtable PATH]`,
    ``--qtable`` for `reconcile` alone and required there. A direct scan,
    which spares a call building argparse's parsers, reads the line written
    in this form: each option in full, each value after ``=`` or as the
    next argument, not starting with ``-``. `_argparse` reads every other
    line, so argparse alone gives abbreviations, help and usage errors."""
    args = sys.argv[1:] if argv is None else list(argv)
    if args and args[0] in _VERBS:
        names = (("--config", "--set", "--qtable") if args[0] == "reconcile"
                 else ("--config", "--set"))
        found = {"--config": None, "--set": [], "--qtable": None}
        rest = iter(args[1:])
        for arg in rest:
            name, eq, value = arg.partition("=")
            value = value if eq else next(rest, "-")
            if name not in names or value.startswith("-"):
                break
            if name == "--set":
                found[name].append(value)
            else:
                found[name] = value
        else:
            if args[0] != "reconcile" or found["--qtable"] is not None:
                return _Args(args[0], found["--config"], found["--set"], found["--qtable"])
    return _argparse(args)


def _argparse(args: list[str]) -> _Args:
    """``args`` read by argparse, imported only here, where its start-up cost
    is paid: a parser for the verb, then one for the named verb's options."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            # A usage error is a configuration error: exit 1, not argparse's
            # 2, which is the data-error code.
            raise ConfigError(f"{self.prog}: {message}")

    parser = Parser(prog="dtreconcile",
                    description="Revise a monthly forecast from streaming daily actuals")
    parser.add_argument("verb", choices=_VERBS)
    options = parser.add_argument("options", nargs=argparse.REMAINDER,
                                  help="the verb's options")
    options.required = False  # so that a missing verb is named alone
    head = parser.parse_args(args)
    p = Parser(prog=f"dtreconcile {head.verb}")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable; wins over the file)")
    if head.verb == "reconcile":
        p.add_argument("--qtable", required=True, help="Q-table snapshot to load")
    ns = p.parse_args(head.options, argparse.Namespace(verb=head.verb, qtable=None))
    # Python 3.11's argparse reads the value of `--opt=--` as [], not "--".
    given = lambda value: "--" if value == [] else value
    return _Args(ns.verb, given(ns.config), list(map(given, ns.set)), given(ns.qtable))


def _merge_config(args) -> RunConfig:
    mapping: dict[str, str] = {}
    if args.config is not None:
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
    # A warning prints as one line, without the source path and line that
    # the default format adds. Entering `catch_warnings` resets Python's
    # record of the warnings already shown once per location, so each call
    # prints its own.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        with warnings.catch_warnings():
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
    finally:
        warnings.formatwarning = formatwarning
    return 0


if __name__ == "__main__":
    sys.exit(main())
