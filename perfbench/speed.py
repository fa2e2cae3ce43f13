"""Host-speed calibration for the timed end-to-end metrics.

On a shared 2-vCPU VM (Xeon, 2.1 GHz) the host's speed changes by up to a
factor of two within seconds and drifts over minutes, the same for every
process: two sets of ten runs of identical code differed by up to 28% in
median, beyond any bound BENCHMARK.json may set.  Each run therefore times a
fixed pure-Python kernel (dict, tuple, bytes.translate and call work, the mix
of todalab's inner loops) right before and right after every timed
operation, and reports the operation in reference seconds:

    reported = measured * (REFERENCE_S / mean(kernel samples around it)) ** EXPONENT

The kernel runs in the same process slot as the operation, never beside it:
on this VM two busy vCPUs slow each other down by up to half.

EXPONENT is below 1 because todalab's operations slow down less than the
kernel when the host is slow: over 27 cold runs of each E6 command and of
``pq --type A2``, and over 40 runs of each workload, the slope of log(time)
against log(kernel time) lay between 0.5 and 1.0, mostly near 0.7.  Scaling
by the full kernel ratio over-corrects and widens the spread; in one sample
of 27 cold ``graph --type E6`` runs, the quartile spread as a share of the
median was 0.33 raw, 0.15 with exponent 1 and 0.09 with 0.7.

REFERENCE_S is a typical kernel time on that VM, so reference seconds are
close to wall seconds there.  The kernel is benchmark code, so a
change to todalab cannot move it.  The raw wall-clock values and the kernel
median are kept in each run's detail line.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.13
EXPONENT = 0.7
GAP_SAMPLES = 2   # kernel samples between two timed operations


def _step(x):
    return (x * 7 + 3) & 0xFFFF


def kernel_s() -> float:
    """Seconds taken by one pass of the fixed kernel."""
    start = perf_counter()
    table = {}
    perm = bytes(range(255, -1, -1))
    word = bytes(range(256))
    picked = []
    for i in range(60000):
        key = (i & 511, _step(i) >> 6)
        table[key] = table.get(key, 0) + 1
        if i & 7 == 0:
            word = perm.translate(word)
            picked.append(word[i & 255])
    sorted(table.items())
    return perf_counter() - start


def gap() -> list[float]:
    """Kernel samples taken between two timed operations."""
    return [kernel_s() for _ in range(GAP_SAMPLES)]


def scale(seconds: float, around) -> float:
    """``seconds`` in reference seconds, given the kernel samples ``around``
    (taken just before and just after the timed operation)."""
    return seconds * (REFERENCE_S / statistics.fmean(around)) ** EXPONENT
