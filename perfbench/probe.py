"""Machine-speed probe.

On a 2-vCPU Xeon cloud VM whose host is shared with other tenants, the
speed of the processor drifts by up to 2x over stretches of tens of
seconds: one best-effort ANBN pump took 23 ms in one
stretch and 44 ms in the next, and a fixed pure-Python loop slowed down
alike. Medians of raw wall times then differ by 20-30 % from one run to
the next whatever the run length. So every timed op sits between two runs
of a fixed piece of interpreter work, and its time is reported at a
reference speed: wall time x REF_S / the mean of the two probe times.
Over an 80 s stretch of that drift, the coefficient of variation of 5 s
medians of one op fell from 16 % raw to 2-4 % scaled. Raw wall times stay
in the details line.
"""

from __future__ import annotations

import time

# Probe time at the reference speed: about its best time on that VM,
# so a reported time is the wall time at the full speed of its processor.
REF_S = 0.0010


_TABLE = {(i % 97, i % 89, i): i for i in range(1000)}
_KEYS = tuple(_TABLE)


def _work() -> int:
    # Tuple-keyed dict lookups and small-int arithmetic, like the toolkit's
    # breadth-first searches, on a table built once: the probe allocates
    # nothing that outlives a loop turn, so it does not depend on the state
    # of the heap that the ops leave behind.
    total = 0
    for _ in range(8):
        for a, b, c in _KEYS:
            total += _TABLE[(a, b, c)] & 7
    return total


def probe() -> float:
    """Best of three timings of the fixed work, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor that brings a time measured between two probes to the reference speed."""
    return REF_S * 2 / (before + after)
