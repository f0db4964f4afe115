"""Order statistics and size-slope fits for the benchmark's metrics."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# A tail percentile is reported only with this many samples beyond it.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        return ordered[-1], 100.0
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = statistics.fmean(lx)
    my = statistics.fmean(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    if sxx == 0:
        raise ValueError("slope needs at least two distinct sizes")
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx


def ladder_slopes(points) -> dict[str, float]:
    """Size slope per series from (series, level, size, value) points.

    Each rung's median size and median value make one point of the fit;
    values of 0 (the layer did not run in that op) are left out, and a
    series needs two rungs to get a slope.
    """
    rungs: dict = defaultdict(lambda: defaultdict(list))
    for series, level, size, value in points:
        if value > 0:
            rungs[series][level].append((size, value))
    slopes = {}
    for series, by_level in rungs.items():
        if len(by_level) < 2:
            continue
        xs = [statistics.median(s for s, _ in pts) for pts in by_level.values()]
        ys = [statistics.median(v for _, v in pts) for pts in by_level.values()]
        slopes[series] = loglog_slope(xs, ys)
    return slopes


def largest_slope(points) -> float:
    """The largest per-series size slope, or 0.0 when no series has two rungs."""
    return max(ladder_slopes(points).values(), default=0.0)
