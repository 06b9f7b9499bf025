"""Exception hierarchy shared across the package."""


class ReconcileError(Exception):
    """Base class for all errors raised by this package."""


class HierarchyError(ReconcileError):
    """Invalid hierarchy definition (e.g. empty bottom level)."""


class ShapeError(ReconcileError):
    """Dimension mismatch between vectors/matrices."""


class InsufficientDataError(ReconcileError):
    """Not enough observations for the requested operation."""


class DistributionError(ReconcileError):
    """Malformed probability distribution."""


class StreamOrderError(ReconcileError):
    """More daily actuals streamed than the cycle has days."""


class ConfigError(ReconcileError):
    """Invalid run configuration. CLI exit status 1."""


class DataError(ReconcileError):
    """Data ingestion failure (schema, parse, duplicates, gaps). CLI exit status 2."""
