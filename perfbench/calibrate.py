"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the same op can run 20-30% slower from one minute to
the next, because other tenants contend for the cores and their caches.
Timings are therefore reported in reference seconds: the measured wall
time scaled by ``REFERENCE_S / kernel time``, with the kernel timed next
to the measurement. A change to dtreconcile moves the measured time but
not the kernel, so it shows in full; a slower minute on the host slows
both and cancels out.

The kernel imports nothing from dtreconcile. It mixes what the program
spends its time on: small numpy reads and writes, scalar float maths,
generator draws, frozen-dataclass records and string-keyed dicts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Kernel wall time on the machine the benchmark was defined on (2 vCPUs,
# Python 3, numpy): only a fixed scale, so that values read as seconds.
REFERENCE_S = 0.036


@dataclass(frozen=True)
class _Record:
    day: int
    total: float


def kernel(steps: int = 2000) -> float:
    rng = np.random.default_rng(12345)
    q = np.zeros((31, 3))
    forecasts = np.linspace(1.0, 2.0, 31)
    records: list[_Record] = []
    total = 0.0
    for k in range(steps):
        t = k % 31
        row = q[t]
        best = np.max(row)
        action = next(a for a in (1, 0, 2) if row[a] == best)
        probs = np.full(3, 0.1 / 3)
        probs[action] += 0.9
        u = rng.random()
        remaining = float(np.sum(forecasts[: t + 1]))
        q[t, action] += 0.1 * (u + remaining - q[t, action])
        total += max(forecasts[t] + (action - 1) * 0.5, 0.0)
        records.append(_Record(t, total))
        if len(records) > 64:
            records.clear()
    table = {str(i): i * 1.5 for i in range(3000)}
    return total + sum(float(v) for v in table.values())


def calibrate() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def to_reference(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s
