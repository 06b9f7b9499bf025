"""Tabular TD agent that revises a monthly forecast from daily actuals.

An episode is one monthly cycle walked day by day. The state is the day
index; each day the agent picks one of three adjustments to the daily
base forecast (up one unit, keep, down one unit) under an epsilon-greedy
policy over a Q table, receives the day's actual as reward, and applies
an on-policy one-step TD update. After every observed day the revised
monthly forecast (RMF) is the sum of the adjusted daily forecasts.

Learning is carried by Q keyed on (day index, action); a state-value
table V is updated with the same rule purely as a diagnostic. Nothing
in a walk reads V, so a walk only logs its update, and V is settled
when it is read (`ValueTable`).

Q is held as 31 rows of three Python floats and V as one list of 31,
and the cycle containers hold tuples of Python floats, so the agent
needs no numpy. Only `train` imports it, for its one block of uniforms
per pass from the ``train`` stream (see `seeding`).

One private scalar kernel, `_walk`, runs the day loop for training
episodes (`run_episode`, which `train` calls once per cycle and pass)
and for online revision (`reconcile_online`). It updates the table's Q
rows in place and logs V's update of the same days when it ends or
raises, so days updated before an exception stay updated in both. Each
day it draws the next day's epsilon-greedy action against
`_policy_edges`, then applies the TD update. The per-step reference
(greedy action, probabilities, one draw, one update) lives in
`tests/oracle.py`; the kernel repeats its float operations in the same
order, so walking a cycle either way gives bit-identical tables, records
and draws. Training records nothing and computes no RMF: the update
never reads one. Online revision returns a `DayRecord` per streamed day
(day index, action, adjusted forecast, actual and RMF), built from a
tuple by `DayRecord._make`, which skips NamedTuple's argument handling.
Before its first draw it tabulates each day's three adjusted forecasts
once (`_moves`, whose arithmetic `adjusted_forecast` reads too). After
the first day's update it reads every day's greedy action; from then on
only the row just updated can change, and the RMF is refolded only on a
day whose greedy action flips, from that day on: no later day updates
the days before it, so their left fold is kept as the walk goes, and the
refold adds the same floats in the same order. `train` keeps the start
it derives from a history alone for the next call on it, so a grid's
cells pay only for their own draws and TD steps. RMF sums fold the
day-ordered floats left to right with `reduce(add, ..., 0.0)`, not with
the builtin `sum`: from Python 3.12 `sum` compensates float rounding, so
its last bits, and the output files, would depend on the Python version.
Every number the API takes is checked against `AGENT_LIMIT` where it
enters, so no update overflows (see `errors`) and no Q row is checked
again.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from functools import lru_cache, reduce
from itertools import accumulate
from math import isfinite
from operator import add, is_
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import AGENT_LIMIT, DataError, InsufficientDataError, ShapeError
from .errors import StreamOrderError
from .seeding import derive_seed

MAX_CYCLE_DAYS = 31
N_ACTIONS = 3

ACTION_INCREASE = 0
ACTION_KEEP = 1
ACTION_DECREASE = 2

_ACTION_DELTAS = (1.0, 0.0, -1.0)


def _check(values: Iterable[float], what: str) -> None:
    """Raise ValueError unless every value is at most `AGENT_LIMIT` in magnitude."""
    if not all(abs(x) <= AGENT_LIMIT for x in values):  # NaN fails it too
        raise ValueError(f"{what} must be finite and at most {AGENT_LIMIT:g} in magnitude")


class _AgentFields(NamedTuple):
    tolerance: float
    exploration: float = 0.05
    step_size: float = 0.1
    discount: float = 1.0
    episodes: int = 1
    seed: int = 0
    online_updates: bool = True
    adjustment_unit: float | None = None
    clamp_nonnegative: bool = False


class AgentConfig(_AgentFields):
    """Hyperparameters for training and online revision.

    ``adjustment_unit`` is the step each action moves a daily forecast
    by; ``tolerance``, in forecast units, is its default and buckets
    nothing. Every config is checked when it is built, one derived with
    `_replace` too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.tolerance > 0 and isfinite(self.tolerance)):
            raise ValueError("tolerance must be positive and finite")
        if not 0.0 <= self.exploration <= 1.0:
            raise ValueError("exploration probability must be in [0, 1]")
        if not 0.0 < self.step_size <= 1.0:
            raise ValueError("step size must be in (0, 1]")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        if self.episodes < 0:
            raise ValueError("episodes must be nonnegative")
        unit = self.adjustment_unit
        if unit is not None and not (unit > 0 and isfinite(unit)):
            raise ValueError("adjustment unit must be positive and finite")
        return self

    def _replace(self, **changes) -> AgentConfig:
        # NamedTuple's own `_replace` builds through `tuple.__new__`,
        # which would skip the checks above.
        return AgentConfig(**{**self._asdict(), **changes})

    @property
    def unit(self) -> float:
        return self.tolerance if self.adjustment_unit is None else self.adjustment_unit

    def config_hash(self) -> str:
        payload = json.dumps(self._asdict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


# Logged walks past which `ValueTable._log_v` settles V unread: training
# on 122 months for 3 episodes logs 366 walks and a grid cell 24.
V_LOG_LIMIT = 1024


class _TableFields(NamedTuple):
    q: list[list[float]]
    v: list[float]
    v_log: list[tuple[tuple[float, ...], int, float, float]]


class ValueTable(_TableFields):
    """Q(s, a) over (day, action) plus the diagnostic V(s) per day.

    ``q`` is a list of MAX_CYCLE_DAYS rows, each a list of N_ACTIONS
    floats, indexed ``q[day - 1][action]``; ``v`` is a list of
    MAX_CYCLE_DAYS floats. Any nested sequence of numbers of that shape
    within `AGENT_LIMIT` is copied in as floats, updated in place.

    Nothing reads V while the agent runs, so a walk does not update it:
    `_log_v` keeps the walk's actuals in ``v_log``, and reading ``v``
    applies every logged update in order first. A walk's TD(0) update of
    V reads only V as it stood before the walk, so settling late gives
    the same floats as updating day by day."""

    __slots__ = ()

    def __new__(cls, q, v):
        try:
            q = [list(map(float, row)) for row in q]
            v = list(map(float, v))
        except TypeError:
            raise ShapeError("Q rows and V entries must be numbers") from None
        if len(q) != MAX_CYCLE_DAYS or any(len(row) != N_ACTIONS for row in q):
            raise ShapeError(f"Q table must be {MAX_CYCLE_DAYS}x{N_ACTIONS}")
        if len(v) != MAX_CYCLE_DAYS:
            raise ShapeError(f"V table must have {MAX_CYCLE_DAYS} entries")
        _check([x for row in (*q, v) for x in row], "value table entries")
        return super().__new__(cls, q, v, [])

    def copy(self) -> "ValueTable":
        return ValueTable(self.q, self.v)

    def __getnewargs__(self):
        # `copy` and `pickle` rebuild through `__new__`, which takes Q and V.
        return self.q, self.v

    def _settle(self) -> list[float]:
        _, v, log = self
        for actuals, n, alpha, gamma in log:
            # Day t bootstraps from V(t + 1) as it stood before the walk, and
            # from 0 on the last day: the float expression of a per-day update.
            v[:len(actuals)] = [x + alpha * (a + gamma * y - x)
                                for x, a, y in zip(v, actuals, [*v[1:n], 0.0])]
        log.clear()
        return v

    v = property(_settle, doc="V per day, after every logged walk's update.")

    def _log_v(self, actuals: Sequence[float], n: int, alpha: float, gamma: float) -> None:
        """Log the V update of days 1..len(actuals) of an n-day walk with
        step size ``alpha`` and discount ``gamma``; past `V_LOG_LIMIT`
        walks, settle them, so that the log stays bounded."""
        log = self.v_log
        log.append((actuals, n, alpha, gamma))
        if len(log) > V_LOG_LIMIT:
            self._settle()


class _CycleFields(NamedTuple):
    forecasts: tuple[float, ...]
    actuals: tuple[float, ...]
    monthly_total: float


class CycleData(_CycleFields):
    """One monthly episode: daily forecasts, actuals and total, within `AGENT_LIMIT`."""

    __slots__ = ()

    def __new__(cls, forecasts, actuals, monthly_total: float):
        forecasts = tuple(map(float, forecasts))
        actuals = tuple(map(float, actuals))
        if len(forecasts) != len(actuals):
            raise ShapeError(
                f"{len(forecasts)} forecasts but {len(actuals)} actuals"
            )
        if not 1 <= len(forecasts) <= MAX_CYCLE_DAYS:
            raise ShapeError(f"cycle length {len(forecasts)} outside 1..{MAX_CYCLE_DAYS}")
        _check((*forecasts, *actuals, monthly_total), "forecasts, actuals and monthly total")
        return super().__new__(cls, forecasts, actuals, monthly_total)


class _DayFields(NamedTuple):
    day_index: int
    action: int
    adjusted_forecast: float
    actual: float
    rmf: float


class DayRecord(_DayFields):
    __slots__ = ()
    # Builds without NamedTuple's argument handling: `_walk` makes one per day.
    _make = classmethod(tuple.__new__)


def init_state_values(monthly_total: float, daily_forecasts) -> ValueTable:
    """Initialize V(S_t) = M minus cumulative forecasts through day t.

    Q rows start equal to their day's V for all three actions. Days past
    the cycle length keep the end-of-cycle remainder so the table always
    covers the maximum cycle length. Both inputs must be within `AGENT_LIMIT`,
    and there must be 1 to `MAX_CYCLE_DAYS` forecasts, as in a `CycleData`.
    """
    daily = list(map(float, daily_forecasts))
    if not daily:
        raise InsufficientDataError("cannot initialize values for an empty cycle")
    if len(daily) > MAX_CYCLE_DAYS:
        raise ShapeError(f"cycle length {len(daily)} outside 1..{MAX_CYCLE_DAYS}")
    _check((*daily, monthly_total), "monthly total and forecasts")
    # Running sums left to right, as np.cumsum adds them.
    remaining = [float(monthly_total - running) for running in accumulate(daily)]
    v = remaining + [remaining[-1]] * (MAX_CYCLE_DAYS - len(daily))
    # Fresh lists of floats: `_make` skips `ValueTable`'s copy and checks.
    return ValueTable._make(([[value] * N_ACTIONS for value in v], v, []))


def _moves(forecasts: Iterable[float], cfg: AgentConfig) -> list[tuple[float, float, float]]:
    """Each day's adjusted forecast for every action, in action order:
    the day's forecast plus the action's delta times the unit, clamped
    at 0 under ``clamp_nonnegative``."""
    up, keep, down = (delta * cfg.unit for delta in _ACTION_DELTAS)
    moves = [(f + up, f + keep, f + down) for f in forecasts]
    if cfg.clamp_nonnegative:
        moves = [(max(a, 0.0), max(b, 0.0), max(c, 0.0)) for a, b, c in moves]
    return moves


def adjusted_forecast(y_hat_t: float, action: int, cfg: AgentConfig) -> float:
    return float(_moves((y_hat_t,), cfg)[0][action])


def _greedy(q0: float, q1: float, q2: float) -> int:
    # Argmax ties resolve conservatively to "keep", then toward "decrease":
    # with collapsing actuals a freshly penalized greedy action must not
    # flip the policy to "increase".
    if q1 >= q0 and q1 >= q2:
        return ACTION_KEEP
    if q2 >= q0 and q2 >= q1:
        return ACTION_DECREASE
    return ACTION_INCREASE


@lru_cache(maxsize=64)
def _policy_edges(epsilon: float) -> tuple[tuple[float, float], ...]:
    """Inverse-CDF edges of the epsilon-greedy policy for each greedy
    action: a uniform u picks increase below the first edge, keep below
    the second and decrease otherwise. Each edge adds the action
    probabilities, epsilon / 3 plus 1 - epsilon for the greedy one, in
    action order; `AgentConfig` has checked that ``epsilon`` is in [0, 1].
    Cached, as `train` walks every cycle with one epsilon."""
    low = epsilon / N_ACTIONS
    high = low + (1.0 - epsilon)
    return (
        (0.0 + high, 0.0 + high + low),  # greedy increase
        (0.0 + low, 0.0 + low + high),  # greedy keep
        (0.0 + low, 0.0 + low + low),  # greedy decrease
    )


def _choose(row: list[float], edges, draw) -> int:
    """One epsilon-greedy draw on a Q row."""
    first, second = edges[_greedy(*row)]
    u = draw()
    return 0 if u < first else 1 if u < second else 2


def _walk(
    table: ValueTable,
    forecasts: Sequence[float],
    actuals: Iterable[float],
    cfg: AgentConfig,
    draw: Callable[[], float],
    *,
    online: bool,
) -> list[DayRecord]:
    """The SARSA day loop over ``actuals``, numbered from day 1.

    Training (``online=False``) always updates and records nothing.
    Online revision updates only under ``cfg.online_updates`` and records
    each day; a day's RMF is the greedy sum over the whole cycle, read
    from the moves tabulated before the first draw and refolded only when
    the updated row's greedy action flips, from that day on, onto the
    kept left fold of the days before it. Q is updated in place in
    ``table``; V's update of the days whose Q update ran is logged once,
    when the walk ends or raises (`ValueTable._log_v`). A day past the
    cycle raises `StreamOrderError` before it draws.
    """
    n = len(forecasts)
    q = table.q
    alpha, gamma = cfg.step_size, cfg.discount
    update = cfg.online_updates or not online
    edges = _policy_edges(cfg.exploration)
    increase_edges, keep_edges, decrease_edges = edges
    moves = _moves(forecasts, cfg) if online else None
    actions = None
    head = 0.0  # the RMF's left fold of the days before this one
    records: list[DayRecord] = []
    action = None
    done = 0  # days walked in full
    try:
        for t, actual in enumerate(actuals, start=1):
            if action is None:
                # Only day 1 and a day past the last one have no action yet.
                if t > n:
                    raise StreamOrderError(f"day {t} beyond the {n}-day cycle")
                action = _choose(q[t - 1], edges, draw)
            if t < n:
                next_row = q[t]  # `_choose` inlined
                q0, q1, q2 = next_row
                if q1 >= q0 and q1 >= q2:
                    first, second = keep_edges
                elif q2 >= q0 and q2 >= q1:
                    first, second = decrease_edges
                else:
                    first, second = increase_edges
                u = draw()
                action_next = 0 if u < first else 1 if u < second else 2
                q_next = next_row[action_next]
            else:
                action_next, q_next = None, 0.0
            if update:
                row = q[t - 1]
                row[action] += alpha * (actual + gamma * q_next - row[action])
            if online:
                # Each day's greedy action, read after the first update; only
                # the row just updated can change after that, and the RMF is
                # refolded only when its greedy action flips, from that day on.
                if actions is None:
                    actions = [_greedy(*row) for row in q[:n]]
                    greedy = [day[a] for day, a in zip(moves, actions)]
                    rmf = reduce(add, greedy, 0.0)
                else:
                    q0, q1, q2 = q[t - 1]  # `_greedy` inlined
                    a = 1 if q1 >= q0 and q1 >= q2 else 2 if q2 >= q0 and q2 >= q1 else 0
                    if a != actions[t - 1]:
                        actions[t - 1], greedy[t - 1] = a, moves[t - 1][a]
                        rmf = reduce(add, greedy[t - 1:], head)
                head += greedy[t - 1]
                records.append(DayRecord._make((t, action, moves[t - 1][action], actual, rmf)))
            action = action_next
            done = t
    finally:
        if update and done:
            # Training walks a cycle's own tuple: a whole walk logs it uncopied.
            table._log_v(tuple(r.actual for r in records) if online else actuals[:done],
                        n, alpha, gamma)
    return records


def run_episode(
    cycle: CycleData,
    table: ValueTable,
    cfg: AgentConfig,
    draw: Callable[[], float],
) -> tuple[ValueTable, tuple[()]]:
    """Traverse one training cycle, updating the table in place.

    Calls ``draw()`` once per day for a uniform variate in [0, 1):
    `train` passes its pass's block, a test a generator's ``random``.
    Training records no day, so the second item is always empty.
    `tests/oracle.py` walks the same cycle one step at a time.
    """
    _walk(table, cycle.forecasts, cycle.actuals, cfg, draw, online=False)
    return table, ()


# The last history `_start` saw, as a tuple of its cycles, and its start.
_last_start: tuple = ((), None)


def _start(history: Sequence[CycleData]) -> tuple[list[float], float, float, int]:
    """What `train` derives from the history alone: the initial V (each
    Q row starts at its day's V), the largest |actual|, the initial value
    scale and the day count.

    Kept for the last history seen, matched by its length and the
    identity of each cycle: `CycleData` is immutable and the cycles are
    held, so an id is not reused, and a list changed in place misses.
    """
    global _last_start
    cycles, start = _last_start
    if start is not None and len(cycles) == len(history) and all(map(is_, cycles, history)):
        return start
    if not history:
        raise InsufficientDataError("cannot initialize a table without data")
    first = history[0]
    v = init_state_values(first.monthly_total, first.forecasts).v
    # The largest |actual|, from the cycles' extremes rather than an `abs` per day.
    actuals = [cycle.actuals for cycle in history]
    max_reward = max(max(map(max, actuals)), -min(map(min, actuals)))
    days = sum(len(cycle.forecasts) for cycle in history)
    start = v, max_reward, max(map(abs, v)), days
    _last_start = tuple(history), start
    return start


def train(history: Sequence[CycleData], cfg: AgentConfig) -> ValueTable:
    """Run ``cfg.episodes`` chronological passes over the training cycles.

    The table is initialized from the first cycle's monthly total and
    base forecasts, then updated across all passes. That start and the
    step-size check's scan of the actuals are kept for the next call on
    the same history (`_start`): a grid computes them once, and each call
    gets a fresh table. Each pass draws one
    block of uniforms from numpy's generator on the ``train`` stream, and
    each cycle takes its n in turn, as if from ``rng.random(n)``: PCG64
    buffers nothing between doubles. The block draw is why training, and
    nothing else on the command line, imports numpy. V's updates are
    logged, not applied: they cost nothing unless ``table.v`` is read.
    """
    import numpy as np

    v, max_reward, value_scale, days = _start(history)
    # Fresh rows and V: `_make` skips `ValueTable`'s copy and checks.
    table = ValueTable._make(([[x] * N_ACTIONS for x in v], v[:], []))
    if cfg.step_size * max_reward > max(value_scale, 1e-12):
        warnings.warn(
            f"step size {cfg.step_size} times max reward {max_reward} exceeds "
            f"the initial value scale {value_scale}; updates may diverge",
            stacklevel=2,
        )
    rng = np.random.default_rng(derive_seed(cfg.seed, "train"))
    for _ in range(cfg.episodes):
        # A view yields the block's doubles as floats without a list of them.
        draw = iter(memoryview(rng.random(days))).__next__
        for cycle in history:
            run_episode(cycle, table, cfg, draw)
    return table


def reconcile_online(
    table: ValueTable,
    forecasts: Sequence[float],
    actual_stream,
    cfg: AgentConfig,
    rng,
) -> tuple[DayRecord, ...]:
    """Stream a test cycle's actuals against its daily base forecasts
    and emit one record, with its revised total, per streamed day.

    After each observed day the greedy action for every day of the cycle
    is read from the current Q, and RMF is the sum of all n adjusted daily
    forecasts. Actuals influence the revision only through the TD updates
    (enabled by ``cfg.online_updates``), never by direct substitution.
    Each policy call consumes one uniform variate, ``rng.random()``.

    The forecasts are those of a `CycleData`, which checked them. The
    stream holds the actuals as numbers in day order from day 1 and may
    cover only part of the cycle; a day past it raises `StreamOrderError`,
    and an actual past `AGENT_LIMIT` raises `ValueError` when it is read.
    """
    return tuple(_walk(table, tuple(map(float, forecasts)), _checked(actual_stream), cfg,
                       rng.random, online=True))


def _checked(actuals: Iterable[float]):
    """The actuals as floats, each checked against `AGENT_LIMIT` as it is read."""
    for actual in map(float, actuals):
        if not abs(actual) <= AGENT_LIMIT:  # NaN fails it too
            _check((actual,), "streamed actuals")  # raises its message
        yield actual


def save_table(table: ValueTable, path, cfg: AgentConfig) -> None:
    """Write the Q table as `day_index,action_index,q_value` rows.

    The single header line carries the config hash and seed so a
    snapshot can be matched back to the run that produced it. An entry
    past `AGENT_LIMIT`, which `load_table` would refuse, raises `ValueError`.
    """
    _check([x for row in table.q for x in row], "saved q values")
    lines = [f"# config_hash={cfg.config_hash()} seed={cfg.seed}"]
    for t, row in enumerate(table.q, start=1):
        for a, value in enumerate(row):
            lines.append(f"{t},{a},{value!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_table(path) -> ValueTable:
    """Load a Q snapshot; V is rebuilt as the per-day Q maximum.

    Every (day, action) entry must appear exactly once, within
    `AGENT_LIMIT`. A malformed, duplicate, out-of-range or missing entry raises
    `DataError` naming the file and line; an unreadable file, naming the file.
    """
    try:
        # A byte that is not text decodes to U+FFFD and fails its line's parse.
        with open(path, errors="replace") as fh:
            lines = [(no, text) for no, line in enumerate(fh, start=1) if (text := line.strip())]
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc}") from exc
    if not lines or not lines[0][1].startswith("#"):
        raise DataError(f"{path}: missing snapshot header line")
    q = [[0.0] * N_ACTIONS for _ in range(MAX_CYCLE_DAYS)]
    seen: set[tuple[int, int]] = set()
    for line_no, line in lines[1:]:
        try:
            day_str, action_str, value_str = line.split(",")
            day, action, value = int(day_str), int(action_str), float(value_str)
        except ValueError:
            raise DataError(f"{path}:{line_no}: expected day,action,q_value, "
                            f"got {line!r}") from None
        if not (1 <= day <= MAX_CYCLE_DAYS and 0 <= action < N_ACTIONS):
            raise DataError(
                f"{path}:{line_no}: day {day}, action {action} outside "
                f"1..{MAX_CYCLE_DAYS} x 0..{N_ACTIONS - 1}"
            )
        if (day, action) in seen:
            raise DataError(f"{path}:{line_no}: duplicate entry for day {day}, "
                            f"action {action}")
        if not abs(value) <= AGENT_LIMIT:
            raise DataError(f"{path}:{line_no}: q value {value_str!r} is not finite or "
                            f"exceeds {AGENT_LIMIT:g} in magnitude")
        seen.add((day, action))
        q[day - 1][action] = value
    if len(seen) < MAX_CYCLE_DAYS * N_ACTIONS:
        day, action = min(
            (t, a) for t in range(1, MAX_CYCLE_DAYS + 1) for a in range(N_ACTIONS)
            if (t, a) not in seen
        )
        raise DataError(
            f"{path}:{lines[-1][0]}: table ends with {len(seen)} of "
            f"{MAX_CYCLE_DAYS * N_ACTIONS} entries; day {day}, action {action} is missing"
        )
    # Each entry was parsed and checked above: `ValueTable`'s copy and checks would repeat.
    return ValueTable._make((q, [max(row) for row in q], []))
