"""Exception hierarchy shared across the package, and the magnitude
limits checked where numbers enter: `LIMIT` for values read from files,
`AGENT_LIMIT` for numbers the agent API takes, which admits the
forecasts (63 `LIMIT`) and totals (1,953 `LIMIT`) built from the data.
A TD update mixes an entry with ``actual + discount * next entry``, so
no sum or update overflows: a trained entry stays below 4,000 `LIMIT`."""

LIMIT = 1e300
AGENT_LIMIT = 1e306


class ReconcileError(Exception):
    """Base class for all errors raised by this package."""


class HierarchyError(ReconcileError):
    """Invalid hierarchy definition (e.g. empty bottom level)."""


class ShapeError(ReconcileError):
    """Dimension mismatch between vectors/matrices."""


class InsufficientDataError(ReconcileError):
    """Not enough observations for the requested operation."""


class StreamOrderError(ReconcileError):
    """More daily actuals streamed than the cycle has days."""


class ConfigError(ReconcileError):
    """Invalid run configuration. CLI exit status 1."""


class DataError(ReconcileError):
    """Data ingestion failure (schema, parse, duplicates, gaps). CLI exit status 2."""
