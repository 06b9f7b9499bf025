"""The pure-Python versions of numpy results against numpy, bit for bit.

`seeding.Generator` stands for `np.random.default_rng` on seeds of
0..2**64 - 1, `totals.pairwise_sum` for `np.sum` of 0..128 values,
`data.fill_calendar` for `np.interp` on day ordinals,
`agent.init_state_values` for `np.cumsum` and `forecasting.drift` for its
former array arithmetic. numpy is the oracle. Past their bounds, which
cover every seed `derive_seed` makes and every month's total, the first
two raise `ValueError`. `derive_seed` and `AgentConfig.config_hash` take
SHA-256 from the interpreter's built-in module, or from ``hashlib`` where
there is none; ``hashlib`` is the oracle for both import paths.
"""

import hashlib
import json
import random
from datetime import date, timedelta
from importlib.util import find_spec

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtreconcile import seeding
from dtreconcile.agent import MAX_CYCLE_DAYS, AgentConfig, init_state_values
from dtreconcile.data import TimeSeries, fill_calendar
from dtreconcile.forecasting import drift
from dtreconcile.seeding import Generator, derive_seed, rng_for
from dtreconcile.totals import pairwise_sum

from conftest import run_fresh

EXAMPLES = settings(max_examples=100, deadline=None)
DRAWS = 40
EDGE_SEEDS = (0, 1, 2**32, 2**64 - 1)


def hexes(values):
    return [float(value).hex() for value in values]


def test_generator_matches_default_rng_on_derived_and_edge_seeds():
    seeds = [derive_seed(base, purpose) for base in range(300)
             for purpose in ("train", "online", "grid:1:2")]
    for seed in [*seeds, *EDGE_SEEDS]:
        ours, numpy_rng = Generator(seed), np.random.default_rng(seed)
        assert [ours.random() for _ in range(DRAWS)] == numpy_rng.random(DRAWS).tolist(), seed


@EXAMPLES
@given(st.integers(0, 2**64 - 1), st.integers(0, 64))
def test_generator_block_draws_match_default_rng(seed, n):
    ours, numpy_rng = Generator(seed), np.random.default_rng(seed)
    assert [ours.random() for _ in range(n)] == numpy_rng.random(n).tolist()
    assert ours.random() == numpy_rng.random()


def test_rng_for_is_the_derived_seed_stream():
    ours = rng_for(7, "online")
    assert [ours.random() for _ in range(DRAWS)] == np.random.default_rng(
        derive_seed(7, "online")).random(DRAWS).tolist()
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            Generator(seed)


def hashlib_seed(seed, purpose):
    return int.from_bytes(hashlib.sha256(f"{seed}:{purpose}".encode()).digest()[:8], "big")


def hashlib_config_hash(cfg):
    payload = json.dumps(cfg._asdict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


base_seeds = st.one_of(st.integers(max_value=-1), st.just(0), st.integers(min_value=2**64),
                       st.integers())
purposes = st.one_of(st.sampled_from(["", "train", "online", "ü€𝄞"]),
                     st.builds("grid:{}:{}".format, st.integers(0, 99), st.integers(0, 99)),
                     st.text())
unit_floats = st.floats(0.0, 1.0)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
configs = st.builds(AgentConfig, tolerance=positive, exploration=unit_floats,
                    step_size=st.floats(0.0, 1.0, exclude_min=True), discount=unit_floats,
                    episodes=st.integers(0, 10**6), seed=st.integers(),
                    online_updates=st.booleans(), adjustment_unit=st.none() | positive,
                    clamp_nonnegative=st.booleans())

# The hashlib fallback, in a fresh interpreter without the built-in modules.
FALLBACK_SCRIPT = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from dtreconcile import seeding
from dtreconcile.agent import AgentConfig
assert seeding.sha256 is hashlib.sha256, seeding.sha256
seeds, configs = json.loads(sys.argv[1])
print(json.dumps([[seeding.derive_seed(seed, purpose) for seed, purpose in seeds],
                  [AgentConfig(**fields).config_hash() for fields in configs]]))
"""


def test_sha256_is_the_built_in_module_where_there_is_one():
    builtin = next((name for name in ("_sha2", "_sha256") if find_spec(name)), None)
    if builtin is None:
        assert seeding.sha256 is hashlib.sha256
    else:
        assert seeding.sha256.__module__ == builtin


@EXAMPLES
@given(base_seeds, purposes)
@example(-1, "")
@example(0, "grid:0:0")
@example(2**64, "online")
def test_derive_seed_is_hashlibs_sha256(seed, purpose):
    assert derive_seed(seed, purpose) == hashlib_seed(seed, purpose)


@EXAMPLES
@given(configs)
def test_config_hash_is_hashlibs_sha256(cfg):
    assert cfg.config_hash() == hashlib_config_hash(cfg)


def test_the_hashlib_fallback_gives_the_same_values():
    seeds = [(seed, purpose) for seed in (-(2**70), -1, 0, 7, 2**64 - 1, 2**64, 2**200)
             for purpose in ("", "train", "online", "grid:2:1", "ü€𝄞")]
    configs = [AgentConfig(tolerance=1.0), AgentConfig(0.2, 0.0, 1.0, 0.5, 3, -5, False, 2.5,
                                                       True)]
    result = run_fresh("-c", FALLBACK_SCRIPT,
                       json.dumps([seeds, [cfg._asdict() for cfg in configs]]), check=True)
    assert json.loads(result.stdout) == [[hashlib_seed(*case) for case in seeds],
                                         [hashlib_config_hash(cfg) for cfg in configs]]


# Signed zeros, subnormals, the smallest normal and values across the whole
# exponent range, so that rounding and cancellation differ by order.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308)
summands = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-20, 20).map(float),
    st.floats(-1e4, 1e4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
)


def assert_sums_match(values):
    with np.errstate(over="ignore", invalid="ignore"):  # 1e308 + 1e308
        expected = np.sum(np.array(values, dtype=float))
    assert hexes([pairwise_sum(values), pairwise_sum(tuple(values))]) == hexes([expected] * 2)


def test_pairwise_sum_matches_np_sum_at_every_length():
    for n in range(129):
        assert_sums_match([-0.0] * n)  # numpy's identity 0.0 makes these 0.0
        rng = random.Random(n)
        assert_sums_match([rng.choice((rng.choice(SPECIAL), rng.uniform(-1e4, 1e4),
                                       rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-300, 300)))
                           for _ in range(n)])
    with pytest.raises(ValueError):  # one numpy block; a month has at most 31 days
        pairwise_sum([1.0] * 129)


@settings(max_examples=50, deadline=None)
@given(st.data(), st.integers(0, 128))
def test_pairwise_sum_matches_np_sum(data, n):
    assert_sums_match(data.draw(st.lists(summands, min_size=n, max_size=n)))


def test_builtin_sum_is_no_substitute():
    # The reason for `pairwise_sum`: the order of the additions shows, both
    # in a left-to-right sum and in Python 3.12's compensated one.
    values = [0.1] * 31
    assert pairwise_sum(values) == float(np.sum(values)) == 3.100000000000001
    assert sum(values) != 3.100000000000001


levels = st.one_of(st.integers(-50, 50).map(float), st.floats(-1e300, 1e300),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


@EXAMPLES
@given(st.data(), st.lists(st.integers(1, 9), max_size=60), st.dates(date(1970, 1, 1)))
def test_fill_calendar_matches_np_interp(data, gaps, start):
    days = [start]
    for gap in gaps:
        days.append(days[-1] + timedelta(days=gap))
    values = data.draw(st.lists(levels, min_size=len(days), max_size=len(days)))
    filled = fill_calendar(TimeSeries(tuple(days), values))
    observed = np.array([(day - start).days for day in days], dtype=float)
    full = np.arange((days[-1] - start).days + 1, dtype=float)
    assert filled.start == start and len(filled) == full.size
    assert hexes(filled.values) == hexes(np.interp(full, observed, values))


@EXAMPLES
@given(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6)),
       st.lists(levels.filter(lambda x: abs(x) < 1e200), min_size=1, max_size=MAX_CYCLE_DAYS))
@example(-0.0, [-0.0, 1.0])  # np.cumsum starts from the first value, not from 0.0
def test_init_state_values_match_np_cumsum(total, daily):
    remaining = total - np.cumsum(np.array(daily, dtype=float))
    table = init_state_values(total, daily)
    assert hexes(table.v[:len(daily)]) == hexes(remaining)
    assert hexes(table.v[len(daily):]) == hexes([remaining[-1]] * (MAX_CYCLE_DAYS - len(daily)))
    assert all(hexes(row) == hexes([value] * 3) for row, value in zip(table.q, table.v))


@EXAMPLES
@given(st.lists(levels, min_size=2, max_size=400), st.integers(1, 31))
def test_drift_matches_numpy_arithmetic(history, h):
    values = np.array(history)
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300 - -1e300
        slope = (values[-1] - values[0]) / (values.size - 1)
        expected = values[-1] + slope * np.arange(1, h + 1)
    assert hexes(drift(history, h)) == hexes(expected)
