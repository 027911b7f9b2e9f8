"""CPU-speed calibration for timings of CPU-bound work.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40% in spells of 20-60 s, longer than one run.  A pure-Python loop
(no program code, so no change to the program can speed it up) is timed
right before and right after each piece of timed work; the work's wall
time is scaled by ``REFERENCE_MS / loop time``, which reports it at the
speed of the core on which the loop takes ``REFERENCE_MS``.  Standard
library only: ``child.py`` probes before it imports the program.
"""

from __future__ import annotations

import statistics
import time

#: The loop's time on the 2-vCPU Xeon (2.0 GHz) VM the benchmark was
#: tuned on, in a typical spell; only the ratio matters.
REFERENCE_MS = 10.0
REPEATS = 5


def _loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def probe_ms() -> float:
    """Median time of the loop over ``REPEATS`` tries, in ms."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _loop()
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)


def at_reference(seconds: float, before_ms: float, after_ms: float) -> float:
    """``seconds`` of wall time, scaled to the reference core's speed."""
    return seconds * REFERENCE_MS / ((before_ms + after_ms) / 2.0)
