"""The host-speed probe that puts times on a common scale.

On a host that shares its CPUs, the speed of one process drifts by tens
of percent over seconds to minutes, while the ratio of a treecalc
workload's time to this probe's time, taken in the same process, stays
within a few percent.  So each repetition times this probe between its
operations, and the reported times are scaled to a host on which the probe
takes ``REFERENCE_S``.  The probe calls no treecalc code, but it runs in
the same process, so the state treecalc leaves behind (live heap,
allocator, caches) may still change its time.  The run's detail line
records every repetition's median probe for that reason.
"""

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.002
# Set-up time is scaled to a host on which an interpreter that imports
# nothing starts and exits in this time.  The Fraction probe does not
# follow process start-up, which drifts with the host's file and memory
# speed rather than its arithmetic speed.
BARE_START_S = 0.04


def probe() -> float:
    """Run the fixed loop once and return its duration in seconds."""
    start = time.perf_counter()
    total = Fraction(0)
    counts: dict = {}
    for i in range(250):
        a = Fraction(i % 11 + 1, i % 7 + 2)
        b = Fraction(i % 5 + 1, i % 3 + 2)
        total += a * b - a / b
        key = (i % 31, i % 29)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def scaled(times: list[float], probes: list[float]) -> float:
    """Total of ``times`` on the reference scale.

    ``times[j]`` is work measured between ``probes[j]`` and
    ``probes[j + 1]``; it is scaled by the median of the four probes
    nearest to it, so the scale follows the host's speed as it drifts."""
    return sum(
        t * REFERENCE_S / statistics.median(probes[max(0, j - 1) : j + 3])
        for j, t in enumerate(times)
    )
