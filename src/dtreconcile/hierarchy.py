"""Temporal hierarchies: aggregation matrices and coherence checks.

A two-level temporal hierarchy stacks one aggregate (the monthly total)
on top of m bottom-level (daily) series. The aggregation matrix S maps a
bottom vector v to the full hierarchy vector Y = S @ v, ordered
aggregates-first then bottom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HierarchyError, ShapeError


@dataclass(frozen=True)
class AggregationMatrix:
    """0/1 matrix S of shape (n, m) with an identity bottom block.

    n = r + m where r rows are aggregates and the last m rows map each
    bottom series to itself.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", s)
        if s.ndim != 2:
            raise ShapeError("aggregation matrix must be 2-dimensional")
        n, m = s.shape
        if n < m or m < 1:
            raise HierarchyError(f"invalid shape {s.shape}: need n >= m >= 1")
        if not np.all((s == 0.0) | (s == 1.0)):
            raise HierarchyError("aggregation matrix entries must be 0 or 1")
        if not np.array_equal(s[n - m:], np.eye(m)):
            raise HierarchyError("bottom block of S must be the identity")
        r = n - m
        if r > 0 and not np.all(s[:r].sum(axis=0) >= 1):
            raise HierarchyError("every bottom series must feed some aggregate")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    @property
    def r(self) -> int:
        return self.n - self.m


@dataclass(frozen=True)
class HierarchyVector:
    """Full hierarchy vector Y, aggregates first then bottom entries."""

    full: np.ndarray

    def __post_init__(self) -> None:
        full = np.atleast_1d(np.asarray(self.full, dtype=float))
        object.__setattr__(self, "full", full)

    def bottom(self, s: AggregationMatrix) -> np.ndarray:
        if self.full.size != s.n:
            raise ShapeError(f"vector length {self.full.size} != n={s.n}")
        return self.full[s.r:]


def build_two_level(n_bottom: int) -> AggregationMatrix:
    """Build S for one aggregate over ``n_bottom`` daily series.

    Row 0 is all ones (the total); the remaining rows are the identity.
    """
    if n_bottom < 1:
        raise HierarchyError("hierarchy needs at least one bottom series")
    s = np.vstack([np.ones((1, n_bottom)), np.eye(n_bottom)])
    return AggregationMatrix(s)


def aggregate_bottom(v: np.ndarray, s: AggregationMatrix) -> HierarchyVector:
    """Lift a bottom-level vector to the full hierarchy: Y = S @ v."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size != s.m:
        raise ShapeError(f"bottom vector length {v.size} != m={s.m}")
    return HierarchyVector(s.entries @ v)


def coherence_residual(y: HierarchyVector, s: AggregationMatrix) -> float:
    """Max-norm distance of ``y`` from the coherent subspace.

    Zero iff every aggregate equals the sum of its bottom entries.
    """
    return float(np.max(np.abs(y.full - s.entries @ y.bottom(s))))
