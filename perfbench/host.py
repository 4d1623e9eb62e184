"""Process CPU and memory readings, and the host record kept with each run.

The host record is provenance only: it lets a reader recognise a noisy
host afterwards and never normalises a metric.
"""

from __future__ import annotations

import os
import resource
import time

__all__ = ["cpu_seconds", "peak_rss_mib", "calibrate", "host_record"]

#: iterations of the fixed pure-Python calibration loop
CALIBRATION_LOOPS = 2_000_000


def cpu_seconds() -> float:
    """User+sys CPU of this process and every child it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest reaped child.

    On Linux ``ru_maxrss`` is in KiB; for ``RUSAGE_CHILDREN`` it is the
    peak of the largest child (worker) waited for, not a sum.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes on this host right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc ^= i * 7
    return time.perf_counter() - start


def host_record(seed: int) -> dict:
    """Seed, core count, load average at start and the calibration time."""
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "calibration_loops": CALIBRATION_LOOPS,
        "calibration_s": calibrate(),
    }
