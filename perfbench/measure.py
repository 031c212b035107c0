"""Latency summaries, the sample-count rule, and the machine block."""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
from typing import Dict, Sequence

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer would make it the maximum of a handful of values.
MIN_BEYOND = 10

#: Percentiles tried, highest first, when naming the tail a sample
#: supports.
LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, p: float) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``p`` percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p`` percentile."""
    return n - _rank(n, p)


def supports(n: int, p: float) -> bool:
    return beyond(n, p) >= MIN_BEYOND


def highest_supported(n: int) -> float:
    """The highest ladder percentile with ``MIN_BEYOND`` samples
    beyond it (0.0 when even the median lacks them)."""
    for p in LADDER:
        if supports(n, p):
            return p
    return 0.0


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """Median and p95 in ms, the sample count, and the highest tail
    the sample supports.  Refuses a sample too small for p95."""
    n = len(seconds)
    if not supports(n, 95.0):
        raise ValueError(
            f"{n} samples leave fewer than {MIN_BEYOND} beyond p95"
        )
    tail = highest_supported(n)
    return {
        "samples": n,
        "p50_ms": percentile(seconds, 50.0) * 1e3,
        "p95_ms": percentile(seconds, 95.0) * 1e3,
        "tail_percentile": tail,
        "tail_ms": percentile(seconds, tail) * 1e3,
    }


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def own_peak_rss_mib() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mib(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def machine() -> Dict[str, object]:
    """What the numbers were measured on, read at start."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }
