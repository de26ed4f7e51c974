"""Summary statistics for the measurement figures.

Figure 1(e) plots per-timeout averages of ``P_M`` over the experiment's
repetitions with 95% confidence intervals; Figure 1(f) plots the variance
of the same per-run values.  These helpers compute exactly those
quantities (normal-approximation intervals, matching the paper's
methodology of averaging 33 runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Mean, variance and a symmetric confidence interval."""

    mean: float
    variance: float
    ci_low: float
    ci_high: float
    count: int

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float, float]:
    """``(mean, low, high)`` of a normal-approximation confidence interval.

    With fewer than 2 values the interval degenerates to the point.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one value")
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, mean, mean
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    return mean, mean - z * sem, mean + z * sem


def summarize(values: Sequence[float], confidence: float = 0.95) -> Summary:
    """Full :class:`Summary` of per-run values (Figure 1(e)/(f) quantities)."""
    arr = np.asarray(list(values), dtype=float)
    mean, low, high = mean_confidence_interval(arr, confidence)
    variance = float(arr.var(ddof=1)) if arr.size > 1 else 0.0
    return Summary(
        mean=mean, variance=variance, ci_low=low, ci_high=high, count=arr.size
    )
