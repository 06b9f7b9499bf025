"""numpy's summation order in pure Python.

The totals that reach an output (a percentage tolerance, the first
training cycle's total, the report and grid totals) are `np.sum` of a
float64 vector, whose last bits depend on the order of the additions.
`pairwise_sum` repeats numpy's order, so the command line need not
import numpy: blocks of at most 128 values are summed with eight
accumulators, longer runs are halved at a multiple of eight, and the
result is added to numpy's identity 0.0. The builtin `sum` adds left to
right (and from Python 3.12 compensates the rounding), so it does not
match. The day-by-day RMF sums are a left-to-right fold (see `agent`).
"""

from __future__ import annotations

from typing import Sequence

_BLOCK = 128


def _pairwise(a: Sequence[float], start: int, n: int) -> float:
    if n < 8:
        res = 0.0
        for i in range(start, start + n):
            res += a[i]
        return res
    if n <= _BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = a[start:start + 8]
        i, stop, end = start + 8, start + n - n % 8, start + n
        while i < stop:
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
            i += 8
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(stop, end):
            res += a[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(a, start, half) + _pairwise(a, start + half, n - half)


def pairwise_sum(values: Sequence[float]) -> float:
    """`float(np.sum(values))` for a sequence of floats, bit for bit."""
    return float(0.0 + _pairwise(values, 0, len(values)))
