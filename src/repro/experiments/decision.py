"""Rounds and time to global decision, measured as in Section 5.3.

From each of several random starting points of a run, find the first
window of ``c`` consecutive rounds satisfying the model (``c`` = the
decision-round count of the model's fastest algorithm); the number of
rounds consumed from the start through the window's end is the measured
:math:`D_M`, and the decision *time* multiplies by the round length (the
timeout — each round lasts the timeout in the synchronized-round setting).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.models.registry import TimingModel, get_model
from repro.experiments.measurement import satisfaction_vector
from repro.sim.rng import derive_seed


@dataclass(frozen=True)
class DecisionStats:
    """Decision measurements for one (run, model) pair.

    Attributes:
        mean_rounds: average rounds to global decision over the start
            points that reached a decision window within the trace.
        mean_time: ``mean_rounds`` times the round length.
        samples: number of start points measured.
        censored: start points whose window never completed in the trace
            (they are excluded from the means; a high censored count means
            the trace was too short for this model/timeout — ES with short
            timeouts, typically).
    """

    mean_rounds: float
    mean_time: float
    samples: int
    censored: int


def decision_stats(
    matrices: np.ndarray,
    model: TimingModel | str,
    round_length: float,
    start_points: int,
    leader: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    window: Optional[int] = None,
) -> DecisionStats:
    """Measure decision rounds/time from random start points of one trace."""
    if isinstance(model, str):
        model = get_model(model)
    if window is None:
        window = model.decision_rounds
    satisfied = satisfaction_vector(matrices, model, leader)
    return decision_stats_from_vector(
        satisfied, window, round_length, start_points, rng=rng
    )


def decision_stats_from_vector(
    satisfied: np.ndarray,
    window: int,
    round_length: float,
    start_points: int,
    rng: Optional[np.random.Generator] = None,
) -> DecisionStats:
    """Measure decisions on a precomputed per-round satisfaction vector.

    This is the same protocol as :func:`decision_stats`, split out for
    callers whose satisfaction criterion varies by round — e.g. the fault
    robustness phase, where leader churn makes the leader-based models'
    acting leader a per-round quantity.

    When no ``rng`` is passed, the default seed is derived from the call's
    own content (the satisfaction vector and sampling parameters), not a
    fixed constant: a shared ``default_rng(0)`` handed every (run, model,
    timeout) cell the *same* start points, correlating the samples across
    an entire sweep.  Content-derived seeding stays reproducible — the
    same call sees the same starts — while distinct cells decorrelate.
    """
    satisfied = np.asarray(satisfied, dtype=bool)
    if window < 1:
        raise ValueError("window must be at least 1")
    if start_points < 0:
        raise ValueError("start_points must be non-negative")
    if rng is None:
        digest = hashlib.sha256(satisfied.tobytes()).hexdigest()
        name = f"decision:{digest}:{window}:{start_points}:{round_length!r}"
        rng = np.random.default_rng(derive_seed(0, name))
    total_rounds = len(satisfied)
    if total_rounds < window + 1:
        raise ValueError("trace too short for the decision window")

    # Random starts in the first half so windows have room to complete.
    upper = max(1, total_rounds // 2)
    starts = rng.integers(0, upper, size=start_points)

    # One pass over the rounds answers every start: a running count of
    # satisfying rounds tells which windows are full (all ``window`` rounds
    # from ``k`` on satisfy), and a reverse running minimum turns those
    # into ``first_full[i]``, the first full window beginning at or after
    # ``i`` (``total_rounds`` when none is left — a censored start).  The
    # per-start reference is :func:`repro.models.gsr.rounds_to_decision`.
    satisfied_before = np.zeros(total_rounds + 1, dtype=np.intp)
    np.cumsum(satisfied, out=satisfied_before[1:])
    full = np.flatnonzero(
        satisfied_before[window:] - satisfied_before[:-window] == window
    )
    first_full = np.full(total_rounds, total_rounds, dtype=np.intp)
    first_full[full] = full
    first_full = np.minimum.accumulate(first_full[::-1])[::-1]

    begins = first_full[starts]
    decided = begins < total_rounds
    rounds_needed = begins[decided] + window - starts[decided]

    samples = int(rounds_needed.size)
    mean_rounds = float(np.mean(rounds_needed)) if samples else float("nan")
    return DecisionStats(
        mean_rounds=mean_rounds,
        mean_time=mean_rounds * round_length,
        samples=samples,
        censored=start_points - samples,
    )


def mean_decision_rounds(
    vectors: Sequence[np.ndarray],
    window: int,
    round_length: float,
    start_points: int,
    run_seed: Callable[[int], int],
) -> float:
    """Mean rounds to global decision across the runs of one cell.

    ``vectors[r]`` is run ``r``'s satisfaction vector and ``run_seed(r)``
    the seed of its start-point draws (every caller keeps its own seed
    names).  The mean is over the runs in which at least one start point
    reached a decision; ``nan`` when none did.
    """
    means = []
    for index, satisfied in enumerate(vectors):
        stats = decision_stats_from_vector(
            satisfied,
            window,
            round_length,
            start_points,
            rng=np.random.default_rng(run_seed(index)),
        )
        if stats.samples:
            means.append(stats.mean_rounds)
    return float(np.mean(means)) if means else float("nan")
