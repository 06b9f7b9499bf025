"""Static linear reconciliation baselines: Y_tilde = S @ P @ Y_hat.

Each method is a choice of the m-by-n mapping matrix P that extracts and
combines base forecasts so the reconciled vector is coherent by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .hierarchy import AggregationMatrix, HierarchyVector

SHARES_TOL = 1e-9


@dataclass(frozen=True)
class MappingMatrix:
    """The m-by-n mapping matrix P."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", p)
        if p.ndim != 2:
            raise ShapeError("mapping matrix must be 2-dimensional")
        if not np.all(np.isfinite(p)):
            raise ValueError("mapping matrix entries must be finite")


def _check_pair(s: AggregationMatrix, p: MappingMatrix) -> None:
    if p.entries.shape != (s.m, s.n):
        raise ShapeError(
            f"mapping matrix shape {p.entries.shape} incompatible with S "
            f"(expected {(s.m, s.n)})"
        )


def p_bottom_up(s: AggregationMatrix) -> MappingMatrix:
    """Keep bottom forecasts untouched and re-sum the aggregates."""
    p = np.hstack([np.zeros((s.m, s.r)), np.eye(s.m)])
    return MappingMatrix(p)


def p_top_down(shares: np.ndarray, s: AggregationMatrix) -> MappingMatrix:
    """Disaggregate the top-level forecast by fixed nonnegative shares."""
    shares = np.atleast_1d(np.asarray(shares, dtype=float))
    if shares.size != s.m:
        raise ShapeError(f"need {s.m} shares, got {shares.size}")
    if np.any(shares < 0):
        raise ValueError("shares must be nonnegative")
    if abs(shares.sum() - 1.0) > SHARES_TOL:
        raise ValueError(f"shares must sum to 1, got {shares.sum()}")
    p = np.zeros((s.m, s.n))
    p[:, 0] = shares
    return MappingMatrix(p)


def p_ols(s: AggregationMatrix) -> MappingMatrix:
    """Orthogonal projection: P = (S'S)^-1 S'."""
    gram = s.entries.T @ s.entries
    try:
        p = np.linalg.solve(gram, s.entries.T)
    except np.linalg.LinAlgError as exc:  # unreachable for a valid S
        raise ValueError(f"singular normal matrix: {exc}") from exc
    return MappingMatrix(p)


def p_wls(s: AggregationMatrix, weights: np.ndarray) -> MappingMatrix:
    """Diagonal-weight GLS: P = (S' W^-1 S)^-1 S' W^-1, W = diag(weights)."""
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if weights.size != s.n:
        raise ShapeError(f"need {s.n} weights, got {weights.size}")
    if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be positive and finite")
    w_inv = 1.0 / weights
    st_winv = s.entries.T * w_inv  # S' W^-1 without forming W
    try:
        p = np.linalg.solve(st_winv @ s.entries, st_winv)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular weighted normal matrix: {exc}") from exc
    return MappingMatrix(p)


def reconcile(
    s: AggregationMatrix, p: MappingMatrix, y_hat: HierarchyVector
) -> HierarchyVector:
    """Apply Y_tilde = S @ P @ Y_hat; the result is coherent."""
    _check_pair(s, p)
    if y_hat.full.size != s.n:
        raise ShapeError(f"forecast length {y_hat.full.size} != n={s.n}")
    return HierarchyVector(s.entries @ (p.entries @ y_hat.full))
