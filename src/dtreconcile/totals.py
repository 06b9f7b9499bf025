"""numpy's summation order in pure Python, for one block of values.

The totals that reach an output (a percentage tolerance, the first
training cycle's total, the report and grid totals) are `np.sum` of one
month's float64 values, whose last bits depend on the order of the
additions. `pairwise_sum` repeats numpy's order for a block of at most
128 values, so the command line need not import numpy: under 8 values
left to right, otherwise with eight accumulators, and the result added
to numpy's identity 0.0. The builtin `sum` adds left to right (and from
Python 3.12 compensates the rounding), so it does not match. The
day-by-day RMF sums are a left-to-right fold (see `agent`).
"""

from __future__ import annotations

from typing import Sequence

_BLOCK = 128


def pairwise_sum(a: Sequence[float]) -> float:
    """`float(np.sum(a))` for a sequence of at most 128 floats, bit for bit;
    longer input raises `ValueError`."""
    n = len(a)
    if n > _BLOCK:
        raise ValueError(f"pairwise_sum takes at most {_BLOCK} values, not {n}")
    if n < 8:
        res = 0.0
        for x in a:
            res += x
        return float(0.0 + res)
    r0, r1, r2, r3, r4, r5, r6, r7 = a[:8]
    i, stop = 8, n - n % 8
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
    for x in a[stop:]:
        res += x
    return float(0.0 + res)
