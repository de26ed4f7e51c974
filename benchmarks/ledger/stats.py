"""Medians with spread, the machine fingerprint, and the noise gauge."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import time
from importlib import metadata
from typing import Sequence

from benchmarks.ledger.proc import ROOT


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values: Sequence[float]) -> dict:
    """median, quartiles, n and the raw samples of one metric."""
    values = [float(v) for v in values]
    q1, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default), without NumPy."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def _commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository (the
    driver's checkouts are plain directories)."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(seed: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "commit": _commit(),
        "seed": seed,
    }


def _spin_once(grid) -> float:
    """Seconds one pass of the fixed pure-Python + NumPy kernel takes."""
    import numpy as np

    begin = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    for _ in range(20):
        float(np.sqrt(grid * grid + 1.0).sum())
    return time.perf_counter() - begin


def _spin_grid():
    import numpy as np

    return np.linspace(0.0, 1.0, 200_000)


def spin_ms() -> float:
    """The noise gauge of a whole ledger run: the kernel's time in ms.

    Best of five readings spread over half a second, so it reads the
    machine's speed and not one scheduling hiccup; timed before and
    after a ledger run, two readings more than :data:`NOISY_SHARE` apart
    mark the whole run noisy.
    """
    grid = _spin_grid()
    best = math.inf
    for reading in range(5):
        if reading:
            time.sleep(0.05)
        best = min(best, _spin_once(grid))
    return best * 1e3


#: Kernel passes per :func:`gauge_ms` reading (about a third of a second;
#: eight corrected ten-run medians better than five did, 0.8-1.7 % against
#: 1.6-2.0 % spread on the same recorded passes).
GAUGE_PASSES = 8


def gauge_ms() -> float:
    """The speed gauge read around every timed set-up and repetition: the
    *mean* of :data:`GAUGE_PASSES` back-to-back kernel passes, in ms.

    A mean, not a best-of: what it is compared with — a repetition of a
    few seconds — averages over the host's sub-second hiccups too.
    """
    grid = _spin_grid()
    return statistics.fmean(
        _spin_once(grid) for _ in range(GAUGE_PASSES)) * 1e3


#: Calibrations further apart than this mark a run ``noisy``.
NOISY_SHARE = 0.10


def calibration(before_ms: float, after_ms: float) -> dict:
    drift = abs(after_ms - before_ms) / min(before_ms, after_ms)
    return {
        "spin_ms_before": before_ms,
        "spin_ms_after": after_ms,
        "drift_share": drift,
        "noisy": drift > NOISY_SHARE,
    }
