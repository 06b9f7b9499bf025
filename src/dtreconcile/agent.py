"""Tabular TD agent that revises a monthly forecast from daily actuals.

An episode is one monthly cycle walked day by day. The state is the day
index; each day the agent picks one of three adjustments to the daily
base forecast (up one unit, keep, down one unit) under an epsilon-greedy
policy over a Q table, receives the day's actual as reward, and applies
an on-policy one-step TD update. After every observed day the revised
monthly forecast (RMF) is the sum of the adjusted daily forecasts.

Learning is carried by Q keyed on (day index, action); a state-value
table V is updated with the same rule purely as a diagnostic.

One private scalar kernel, `_walk`, runs the day loop for training
episodes (`run_episode`, which `train` calls once per cycle and pass)
and for online revision (`reconcile_online`). Each call converts Q, V,
the forecasts and the actuals to Python floats once and writes Q and V
back into the table's arrays when it returns or raises. The kernel
repeats the float operations of the single-step helpers
(`egreedy_probabilities`, `select_action`, `sarsa_step`,
`adjusted_forecast`) in the same order, so its results are bit-identical
to walking the cycle with them. `run_episode(..., record=False)`, as
`train` calls it, builds no trace and computes no RMF. A recorded RMF
reads a per-call cache of each day's greedy-adjusted forecast; online
revision refreshes only the row it has just updated. RMF sums fold the
day-ordered floats left to right with `reduce(add, ..., 0.0)`, not with
the builtin `sum`: from Python 3.12 `sum` compensates float rounding, so
its last bits, and the output files, would depend on the Python version.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from functools import reduce
from math import isfinite
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, DistributionError, InsufficientDataError, ShapeError
from .errors import StreamOrderError
from .forecasting import ForecastSet
from .seeding import rng_for

MAX_CYCLE_DAYS = 31
N_ACTIONS = 3

ACTION_INCREASE = 0
ACTION_KEEP = 1
ACTION_DECREASE = 2

_ACTION_DELTAS = np.array([1.0, 0.0, -1.0])


@dataclass(frozen=True)
class AgentConfig:
    """Hyperparameters for training and online revision.

    ``tolerance`` is the action bucketing width in forecast units;
    ``adjustment_unit`` (default: the tolerance) is the actual step each
    action moves a daily forecast by.
    """

    tolerance: float
    exploration: float = 0.05
    step_size: float = 0.1
    discount: float = 1.0
    episodes: int = 1
    seed: int = 0
    online_updates: bool = True
    adjustment_unit: float | None = None
    clamp_nonnegative: bool = False

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not 0.0 <= self.exploration <= 1.0:
            raise ValueError("exploration probability must be in [0, 1]")
        if not 0.0 < self.step_size <= 1.0:
            raise ValueError("step size must be in (0, 1]")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        if self.episodes < 0:
            raise ValueError("episodes must be nonnegative")
        if self.adjustment_unit is not None and not self.adjustment_unit > 0:
            raise ValueError("adjustment unit must be positive")

    @property
    def unit(self) -> float:
        return self.tolerance if self.adjustment_unit is None else self.adjustment_unit

    def config_hash(self) -> str:
        payload = json.dumps(self.__dict__, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class EpisodeState:
    """Day index t (1-based) plus the remaining monthly total payload."""

    day_index: int
    remaining_total: float

    def __post_init__(self) -> None:
        if not 1 <= self.day_index <= MAX_CYCLE_DAYS:
            raise ValueError(f"day index {self.day_index} outside 1..{MAX_CYCLE_DAYS}")
        if not np.isfinite(self.remaining_total):
            raise ValueError("remaining total must be finite")


@dataclass
class ValueTable:
    """Q(s, a) over (day, action) plus the diagnostic V(s) per day."""

    q: np.ndarray  # (MAX_CYCLE_DAYS, N_ACTIONS)
    v: np.ndarray  # (MAX_CYCLE_DAYS,)

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.q.shape != (MAX_CYCLE_DAYS, N_ACTIONS):
            raise ShapeError(f"Q table must be {MAX_CYCLE_DAYS}x{N_ACTIONS}")
        if self.v.shape != (MAX_CYCLE_DAYS,):
            raise ShapeError(f"V table must have {MAX_CYCLE_DAYS} entries")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.v))):
            raise ValueError("value tables must be finite")

    def q_row(self, day_index: int) -> np.ndarray:
        return self.q[day_index - 1]

    def copy(self) -> "ValueTable":
        return ValueTable(self.q.copy(), self.v.copy())


@dataclass(frozen=True)
class CycleData:
    """One monthly episode: daily forecasts, daily actuals, monthly total."""

    forecasts: np.ndarray
    actuals: np.ndarray
    monthly_total: float
    label: str = ""

    def __post_init__(self) -> None:
        forecasts = np.atleast_1d(np.asarray(self.forecasts, dtype=float))
        actuals = np.atleast_1d(np.asarray(self.actuals, dtype=float))
        object.__setattr__(self, "forecasts", forecasts)
        object.__setattr__(self, "actuals", actuals)
        if forecasts.size != actuals.size:
            raise ShapeError(
                f"{forecasts.size} forecasts but {actuals.size} actuals"
            )
        if not 1 <= forecasts.size <= MAX_CYCLE_DAYS:
            raise ShapeError(f"cycle length {forecasts.size} outside 1..{MAX_CYCLE_DAYS}")
        if not (np.all(np.isfinite(forecasts)) and np.isfinite(self.monthly_total)):
            raise ValueError("forecasts and monthly total must be finite")


@dataclass(frozen=True)
class DayRecord:
    day_index: int
    action: int
    adjusted_forecast: float
    actual: float
    rmf: float


@dataclass(frozen=True)
class ReconciliationTrace:
    """Per-day revision record for one traversed cycle."""

    records: tuple[DayRecord, ...]
    monthly_total: float

    def __len__(self) -> int:
        return len(self.records)

    @property
    def rmf(self) -> np.ndarray:
        return np.array([rec.rmf for rec in self.records])

    @property
    def final_rmf(self) -> float:
        if not self.records:
            raise ValueError("empty trace has no final revised forecast")
        return self.records[-1].rmf


def init_state_values(monthly_total: float, daily_forecasts) -> ValueTable:
    """Initialize V(S_t) = M minus cumulative forecasts through day t.

    Q rows start equal to their day's V for all three actions. Days past
    the cycle length keep the end-of-cycle remainder so the table always
    covers the maximum cycle length.
    """
    daily = np.atleast_1d(np.asarray(daily_forecasts, dtype=float))
    if daily.size == 0:
        raise InsufficientDataError("cannot initialize values for an empty cycle")
    if daily.size > MAX_CYCLE_DAYS:
        raise ShapeError(f"cycle length {daily.size} exceeds {MAX_CYCLE_DAYS}")
    remaining = monthly_total - np.cumsum(daily)
    v = np.full(MAX_CYCLE_DAYS, remaining[-1])
    v[: daily.size] = remaining
    q = np.repeat(v[:, None], N_ACTIONS, axis=1)
    return ValueTable(q=q, v=v)


def adjusted_forecast(y_hat_t: float, action: int, cfg: AgentConfig) -> float:
    value = y_hat_t + _ACTION_DELTAS[action] * cfg.unit
    if cfg.clamp_nonnegative:
        value = max(value, 0.0)
    return float(value)


def _greedy(q0: float, q1: float, q2: float) -> int:
    # Argmax ties resolve conservatively to "keep", then toward "decrease":
    # with collapsing actuals a freshly penalized greedy action must not
    # flip the policy to "increase". No branch holds for a NaN entry.
    if q1 >= q0 and q1 >= q2:
        return ACTION_KEEP
    if q2 >= q0 and q2 >= q1:
        return ACTION_DECREASE
    if q0 >= q1 and q0 >= q2:
        return ACTION_INCREASE
    raise DistributionError("need a finite Q row with one entry per action")


def greedy_action(q_row) -> int:
    """Argmax with ties resolved keep > decrease > increase."""
    q0, q1, q2 = (float(x) for x in q_row)
    return _greedy(q0, q1, q2)


def egreedy_probabilities(q_row, epsilon: float) -> np.ndarray:
    """Epsilon-greedy selection probabilities over the three actions."""
    q_row = np.asarray(q_row, dtype=float)
    if q_row.shape != (N_ACTIONS,) or not np.all(np.isfinite(q_row)):
        raise DistributionError("need a finite Q row with one entry per action")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    probs = np.full(N_ACTIONS, epsilon / N_ACTIONS)
    probs[greedy_action(q_row)] += 1.0 - epsilon
    return probs


def select_action(probs, rng: np.random.Generator) -> int:
    """Draw one action index; consumes exactly one uniform variate."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (N_ACTIONS,):
        raise DistributionError(f"need {N_ACTIONS} probabilities")
    if np.any(probs < 0) or not np.all(np.isfinite(probs)):
        raise DistributionError("probabilities must be finite and nonnegative")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise DistributionError(f"probabilities sum to {probs.sum()}, not 1")
    u = rng.random()
    edge = 0.0
    for action in range(N_ACTIONS - 1):
        edge += probs[action]
        if u < edge:
            return action
    return N_ACTIONS - 1


def sarsa_step(
    table: ValueTable,
    s: EpisodeState,
    a: int,
    r: float,
    s_next: EpisodeState | None,
    a_next: int | None,
    cfg: AgentConfig,
) -> ValueTable:
    """One on-policy TD(0) update; ``s_next=None`` is the terminal case.

    Q(s,a) moves toward r + gamma * Q(s',a'); V(s) is updated with the
    same rule against V(s') as a diagnostic.
    """
    alpha, gamma = cfg.step_size, cfg.discount
    t = s.day_index - 1
    if s_next is None:
        q_next = 0.0
        v_next = 0.0
    else:
        if a_next is None:
            raise ValueError("non-terminal update needs the successor action")
        q_next = table.q[s_next.day_index - 1, a_next]
        v_next = table.v[s_next.day_index - 1]
    table.q[t, a] += alpha * (r + gamma * q_next - table.q[t, a])
    table.v[t] += alpha * (r + gamma * v_next - table.v[t])
    return table


def _policy_edges(epsilon: float) -> tuple[tuple[float, float], ...]:
    """Inverse-CDF edges of `select_action` for each greedy action,
    built with the float operations of `egreedy_probabilities`; `AgentConfig`
    has checked that ``epsilon`` is in [0, 1]."""
    low = epsilon / N_ACTIONS
    high = low + (1.0 - epsilon)
    return (
        (0.0 + high, 0.0 + high + low),  # greedy increase
        (0.0 + low, 0.0 + low + high),  # greedy keep
        (0.0 + low, 0.0 + low + low),  # greedy decrease
    )


def _choose(row: list[float], edges, draw) -> int:
    """One epsilon-greedy draw on a Q row; checks the row before drawing."""
    q0, q1, q2 = row
    if not (isfinite(q0) and isfinite(q1) and isfinite(q2)):
        raise DistributionError("need a finite Q row with one entry per action")
    first, second = edges[_greedy(q0, q1, q2)]
    u = draw()
    return 0 if u < first else 1 if u < second else 2


def _walk(
    table: ValueTable,
    forecasts: list[float],
    days: Iterable[tuple[int, float]],
    cfg: AgentConfig,
    draw: Callable[[], float],
    *,
    online: bool,
    record: bool,
) -> list[DayRecord]:
    """The SARSA day loop over ``days`` as (day index, actual) pairs.

    Training (``online=False``) always updates, and a day's RMF is the
    running sum of committed adjusted forecasts plus the greedy
    look-ahead over the days after it. Online revision updates only
    under ``cfg.online_updates``, and a day's RMF is the greedy sum over
    the whole cycle. Q and V are written back to ``table`` on return and
    on error, so rows updated before an exception stay updated.
    """
    n = len(forecasts)
    q = table.q.tolist()
    v = table.v.tolist()
    alpha, gamma = cfg.step_size, cfg.discount
    update = cfg.online_updates or not online
    edges = _policy_edges(cfg.exploration)
    if record:
        # Greedy-adjusted forecast per day; only the updated row can change.
        greedy = [adjusted_forecast(f, _greedy(*row), cfg) for f, row in zip(forecasts, q)]
    records: list[DayRecord] = []
    committed_sum = 0.0
    action = None
    try:
        for t, actual in days:
            if action is None:
                action = _choose(q[t - 1], edges, draw)
            if t < n:
                action_next = _choose(q[t], edges, draw)
                q_next, v_next = q[t][action_next], v[t]
            else:
                action_next, q_next, v_next = None, 0.0, 0.0
            if update:
                row = q[t - 1]
                row[action] += alpha * (actual + gamma * q_next - row[action])
                v[t - 1] += alpha * (actual + gamma * v_next - v[t - 1])
            if record:
                adjusted = adjusted_forecast(forecasts[t - 1], action, cfg)
                if online:
                    greedy[t - 1] = adjusted_forecast(forecasts[t - 1], _greedy(*q[t - 1]), cfg)
                    rmf = reduce(add, greedy, 0.0)
                else:
                    committed_sum += adjusted
                    rmf = committed_sum + reduce(add, greedy[t:], 0.0)
                records.append(DayRecord(t, action, adjusted, actual, rmf))
            action = action_next
    finally:
        table.q[:] = q
        table.v[:] = v
    return records


def run_episode(
    cycle: CycleData,
    table: ValueTable,
    cfg: AgentConfig,
    rng: np.random.Generator,
    record: bool = True,
) -> tuple[ValueTable, ReconciliationTrace]:
    """Traverse one training cycle, updating the table in place.

    Consumes one block of n uniform variates. The trace's RMF for day t
    sums the committed adjusted forecasts of days 1..t plus greedy
    adjustments of the remaining days under the current Q; with
    ``record=False`` the trace is empty and no RMF is computed.
    """
    n = len(cycle.forecasts)
    draws = iter(rng.random(n).tolist())
    records = _walk(
        table, cycle.forecasts.tolist(), enumerate(cycle.actuals.tolist(), start=1),
        cfg, draws.__next__, online=False, record=record,
    )
    return table, ReconciliationTrace(tuple(records), monthly_total=cycle.monthly_total)


def train(history: Sequence[CycleData], cfg: AgentConfig) -> ValueTable:
    """Run ``cfg.episodes`` chronological passes over the training cycles.

    The table is initialized from the first cycle's monthly total and
    base forecasts, then updated across all passes.
    """
    if not history:
        raise InsufficientDataError("cannot initialize a table without data")
    first = history[0]
    table = init_state_values(first.monthly_total, first.forecasts)
    max_reward = max(float(np.max(np.abs(c.actuals))) for c in history)
    value_scale = float(np.max(np.abs(table.v)))
    if cfg.step_size * max_reward > max(value_scale, 1e-12):
        warnings.warn(
            f"step size {cfg.step_size} times max reward {max_reward} exceeds "
            f"the initial value scale {value_scale}; updates may diverge",
            stacklevel=2,
        )
    rng = rng_for(cfg.seed, "train")
    for _ in range(cfg.episodes):
        for cycle in history:
            run_episode(cycle, table, cfg, rng, record=False)
    return table


def _stream_days(actual_stream, n: int) -> Iterator[tuple[int, float]]:
    """Number the streamed actuals 1, 2, ...; items are bare values or
    (day_index, value) pairs, which must arrive in day order."""
    for expected_day, item in enumerate(actual_stream, start=1):
        if isinstance(item, (tuple, list)) and len(item) == 2:
            day, actual = int(item[0]), float(item[1])
            if day != expected_day:
                raise StreamOrderError(f"expected day {expected_day}, got day {day}")
        else:
            actual = float(item)
        if expected_day > n:
            raise StreamOrderError(f"day {expected_day} beyond the {n}-day cycle")
        yield expected_day, actual


def reconcile_online(
    table: ValueTable,
    forecast: ForecastSet,
    actual_stream,
    cfg: AgentConfig,
    rng: np.random.Generator,
) -> ReconciliationTrace:
    """Stream a test cycle's actuals and emit a revised total per day.

    After each observed day the greedy action for every day of the cycle
    is read from the current Q, and RMF is the sum of all n adjusted
    daily forecasts. Actuals influence the revision only through the TD
    updates (enabled by ``cfg.online_updates``), never by direct
    substitution. Each policy call consumes one uniform variate.

    The stream may cover only part of the cycle; items are either bare
    values or (day_index, value) pairs, which must arrive in day order.
    """
    n = len(forecast)
    if n > MAX_CYCLE_DAYS:
        raise ShapeError(f"cycle length {n} exceeds {MAX_CYCLE_DAYS}")
    records = _walk(
        table, forecast.daily.tolist(), _stream_days(actual_stream, n), cfg, rng.random,
        online=True, record=True,
    )
    return ReconciliationTrace(tuple(records), monthly_total=forecast.monthly_total)


def save_table(table: ValueTable, path, cfg: AgentConfig) -> None:
    """Write the Q table as `day_index,action_index,q_value` rows.

    The single header line carries the config hash and seed so a
    snapshot can be matched back to the run that produced it.
    """
    lines = [f"# config_hash={cfg.config_hash()} seed={cfg.seed}"]
    for t in range(1, MAX_CYCLE_DAYS + 1):
        for a in range(N_ACTIONS):
            lines.append(f"{t},{a},{float(table.q[t - 1, a])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_table(path) -> tuple[ValueTable, dict]:
    """Load a Q snapshot; V is rebuilt as the per-day Q maximum.

    Every (day, action) entry must appear exactly once with a finite
    value. A malformed, duplicate, out-of-range or missing entry raises
    `DataError` naming the file and line; an unreadable file, naming the file.
    """
    try:
        # A byte that is not text decodes to U+FFFD and fails its line's parse.
        with open(path, errors="replace") as fh:
            lines = [(no, line.strip()) for no, line in enumerate(fh, start=1) if line.strip()]
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc}") from exc
    if not lines or not lines[0][1].startswith("#"):
        raise DataError(f"{path}: missing snapshot header line")
    meta = {}
    for token in lines[0][1].lstrip("# ").split():
        if "=" in token:
            key, value = token.split("=", 1)
            meta[key] = value
    q = np.zeros((MAX_CYCLE_DAYS, N_ACTIONS))
    seen: set[tuple[int, int]] = set()
    for line_no, line in lines[1:]:
        where = f"{path}:{line_no}"
        try:
            day_str, action_str, value_str = line.split(",")
            day, action, value = int(day_str), int(action_str), float(value_str)
        except ValueError:
            raise DataError(f"{where}: expected day,action,q_value, got {line!r}") from None
        if not (1 <= day <= MAX_CYCLE_DAYS and 0 <= action < N_ACTIONS):
            raise DataError(
                f"{where}: day {day}, action {action} outside "
                f"1..{MAX_CYCLE_DAYS} x 0..{N_ACTIONS - 1}"
            )
        if (day, action) in seen:
            raise DataError(f"{where}: duplicate entry for day {day}, action {action}")
        if not isfinite(value):
            raise DataError(f"{where}: q value {value_str!r} is not finite")
        seen.add((day, action))
        q[day - 1, action] = value
    if len(seen) < MAX_CYCLE_DAYS * N_ACTIONS:
        day, action = min(
            (t, a) for t in range(1, MAX_CYCLE_DAYS + 1) for a in range(N_ACTIONS)
            if (t, a) not in seen
        )
        raise DataError(
            f"{path}:{lines[-1][0]}: table ends with {len(seen)} of "
            f"{MAX_CYCLE_DAYS * N_ACTIONS} entries; day {day}, action {action} is missing"
        )
    return ValueTable(q=q, v=q.max(axis=1)), meta
