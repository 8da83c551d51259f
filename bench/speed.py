"""Machine-speed calibration for the timed metrics.

The shared two-core machine this benchmark was tuned on changes speed by up
to 1.8x for seconds to minutes at a time, uniformly for all Python code:
the ratio between a library call and a fixed pure-Python loop stays within
a few percent while both raw times swing.  Every reported time is therefore
scaled to a fixed reference speed: a raw duration d measured while this
calibration loop takes k ns is reported as d * REFERENCE_NS / k.  The loop
does the kind of work the library does (frozen dataclass construction,
small tuples, integer arithmetic) and touches nothing in ``ruledmoduli``,
so a change to the library moves the scaled times and never the scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns

# the calibration loop's duration at the reference speed; on the machine the
# benchmark was tuned on the loop takes 1.7 to 3.4 ms
REFERENCE_NS = 2_000_000


@dataclass(frozen=True)
class _Cell:
    a: int
    b: int
    c: tuple


def _loop() -> int:
    acc = 0
    for i in range(1200):
        cell = _Cell(i, acc % 97, (i, -i, 3 * i))
        acc += sum(x * x for x in cell.c) % 7 + cell.b
    return acc


def calibrate() -> int:
    """The calibration loop's duration now, in ns: the best of two runs."""
    best = None
    for _ in range(2):
        start = perf_counter_ns()
        _loop()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def scale(*loop_ns: int) -> float:
    """Factor from raw durations to reference-speed durations, given the
    calibration measured around them."""
    return REFERENCE_NS * len(loop_ns) / sum(loop_ns)


def timed(fn) -> tuple[object, float]:
    """Run ``fn``; return its result and its duration in ns at the reference
    speed, from calibrations just before and just after it."""
    before = calibrate()
    start = perf_counter_ns()
    result = fn()
    elapsed = perf_counter_ns() - start
    return result, elapsed * scale(before, calibrate())
