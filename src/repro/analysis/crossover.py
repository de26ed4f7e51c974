"""Crossover and optimum finding.

Two kinds of "where do the curves meet" questions appear in the paper:

- **Analysis crossovers** (Section 4.2): the ``p`` above which one model's
  expected decision time beats another's — e.g. ◊LM overtakes ◊AFM from
  p = 0.96, and the direct ◊WLM algorithm overtakes from p = 0.97.
- **Optimal timeouts** (Section 5.3, Figure 1(i)): decision *time* as a
  function of the timeout is convex — more rounds with short timeouts,
  longer rounds with conservative ones — with an interior optimum
  (~170 ms for ◊WLM, ~210 ms for ◊LM in the paper's setting).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.equations import ArrayLike, expected_decision_rounds


def find_crossover(
    model_a: str,
    model_b: str,
    n: int,
    p_low: float = 0.5,
    p_high: float = 0.999999,
    tolerance: float = 1e-6,
) -> Optional[float]:
    """Smallest ``p`` in ``[p_low, p_high]`` from which ``model_a`` has an
    expected decision time no worse than ``model_b``'s.

    "No worse from ``p`` on" matters: the gap ``E(D_a) - E(D_b)`` is not
    monotone over the whole interval (at very small ``p`` both expectations
    explode, at rates set by their exponents), so the function locates the
    *last* sign change on a fine grid and refines it by bisection — the
    crossover after which ``model_a`` stays ahead up to ``p_high``.

    Returns ``None`` if ``model_a`` is never ahead at ``p_high``, and
    ``p_low`` if it is ahead on the whole interval.  Raises ``ValueError``
    for an empty interval and for a ``tolerance`` that is not a positive
    finite number (zero would bisect forever once the bracket is one ulp
    wide; NaN would skip the refinement).
    """
    if not p_low < p_high:
        raise ValueError("need p_low < p_high")
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")

    def gap(p: ArrayLike) -> ArrayLike:
        rounds_a = expected_decision_rounds(p, n, model_a)
        return rounds_a - expected_decision_rounds(p, n, model_b)

    if gap(p_high) > 0:
        return None
    grid = np.linspace(p_low, p_high, 2048)
    signs = gap(grid) > 0
    if not signs.any():
        return p_low
    last_positive = int(np.flatnonzero(signs)[-1])
    low, high = float(grid[last_positive]), float(grid[last_positive + 1])
    while high - low > tolerance:
        mid = (low + high) / 2
        if gap(mid) > 0:
            low = mid
        else:
            high = mid
    return high


def optimal_timeout(
    timeouts: Sequence[float],
    decision_times: Sequence[float],
) -> Tuple[float, float]:
    """The timeout minimizing measured decision time, with that time.

    Operates on the discrete sweep grid the experiments produce (the paper
    reads its 170 ms / 210 ms optima off Figure 1(i) the same way).

    NaN cells — a (model, timeout) that never produced a decision — are
    skipped, not "won": ``np.argmin`` returns the index of a NaN when one
    is present, which would crown a never-deciding timeout the optimum.
    The online adaptive layer (:mod:`repro.adaptive`) feeds this function
    live window estimates where such cells are routine.  Raises
    ``ValueError`` when every cell is NaN (no timeout ever decided).
    """
    if len(timeouts) != len(decision_times) or not timeouts:
        raise ValueError("need matching, non-empty timeout/time sequences")
    times = np.asarray(decision_times, dtype=float)
    if np.isnan(times).all():
        raise ValueError("all decision times are NaN: no timeout ever decided")
    index = int(np.nanargmin(times))
    return float(timeouts[index]), float(times[index])
