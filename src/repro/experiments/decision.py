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
    if rng is None:
        digest = hashlib.sha256(satisfied.tobytes()).hexdigest()
        name = f"decision:{digest}:{window}:{start_points}:{round_length!r}"
        rng = np.random.default_rng(derive_seed(0, name))
    starts = draw_starts(rng, len(satisfied), start_points)
    means, samples = window_decisions(satisfied[None], window, starts[None])
    mean_rounds = float(means[0])
    return DecisionStats(
        mean_rounds=mean_rounds,
        mean_time=mean_rounds * round_length,
        samples=int(samples[0]),
        censored=start_points - int(samples[0]),
    )


def draw_starts(rng, total_rounds: int, start_points: int) -> np.ndarray:
    """``start_points`` random decision starts in the first half of a
    ``total_rounds``-round trace, so windows have room to complete."""
    if start_points < 0:
        raise ValueError("start_points must be non-negative")
    return rng.integers(0, max(1, total_rounds // 2), size=start_points)


def run_starts(
    run_seed: Callable[[int], int], runs: int, total_rounds: int, start_points: int
) -> np.ndarray:
    """``[r_index]``: run ``r``'s starts, drawn from
    ``default_rng(run_seed(r))``; shape ``(runs, start_points)``."""
    starts = np.empty((runs, start_points), dtype=np.int64)
    for index in range(runs):
        rng = np.random.default_rng(run_seed(index))
        starts[index] = draw_starts(rng, total_rounds, start_points)
    return starts


def window_decisions(
    satisfied: np.ndarray, window: int, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every run's decisions in one pass: the window scan.

    ``satisfied`` is ``(runs, rounds)``, one satisfaction vector per row,
    and ``starts`` is ``(runs, start_points)``.  Returns, per run, the
    mean rounds to decision over the starts whose window completed within
    the trace (NaN where none did) and the number of those starts.

    A running count of satisfying rounds tells which windows are full
    (all ``window`` rounds from ``k`` on satisfy), and a reverse running
    minimum turns those into ``first_full[r, i]``, the first full window
    of run ``r`` beginning at or after ``i`` (``rounds`` when none is
    left — a censored start).  The per-start reference is
    :func:`repro.models.gsr.rounds_to_decision`.
    """
    satisfied = np.asarray(satisfied, dtype=bool)
    runs, total_rounds = satisfied.shape
    if window < 1:
        raise ValueError("window must be at least 1")
    if total_rounds < window + 1:
        raise ValueError("trace too short for the decision window")
    satisfied_before = np.zeros((runs, total_rounds + 1), dtype=np.intp)
    np.cumsum(satisfied, axis=1, out=satisfied_before[:, 1:])
    full = satisfied_before[:, window:] - satisfied_before[:, :-window] == window
    first_full = np.full((runs, total_rounds), total_rounds, dtype=np.intp)
    first_full[:, : full.shape[1]] = np.where(
        full, np.arange(full.shape[1]), total_rounds
    )
    first_full = np.minimum.accumulate(first_full[:, ::-1], axis=1)[:, ::-1]

    begins = np.take_along_axis(first_full, starts, axis=1)
    decided = begins < total_rounds
    rounds_needed = np.where(decided, begins + window - starts, 0)
    samples = np.count_nonzero(decided, axis=1)
    # The integer sums are exact, so each mean is the float mean of the
    # run's decided starts, bit for bit.
    means = np.full(runs, np.nan)
    np.divide(rounds_needed.sum(axis=1), samples, out=means, where=samples > 0)
    return means, samples


def mean_over_deciding_runs(
    satisfied: np.ndarray, window: int, starts: np.ndarray
) -> float:
    """Mean rounds to global decision across the runs of one cell
    (:func:`window_decisions` rows): the mean is over the runs in which
    at least one start point reached a decision; ``nan`` when none did."""
    means, samples = window_decisions(satisfied, window, starts)
    deciding = means[samples > 0]
    return float(np.mean(deciding)) if deciding.size else float("nan")


def mean_decision_rounds(
    vectors: Sequence[np.ndarray],
    window: int,
    start_points: int,
    run_seed: Callable[[int], int],
) -> float:
    """Mean rounds to global decision across the runs of one cell.

    ``vectors[r]`` is run ``r``'s satisfaction vector (all of one length)
    and ``run_seed(r)`` the seed of its start-point draws (every caller
    keeps its own seed names); see :func:`mean_over_deciding_runs`.
    """
    satisfied = np.asarray(vectors, dtype=bool)
    if not len(satisfied):
        return float("nan")
    starts = run_starts(run_seed, len(satisfied), satisfied.shape[1], start_points)
    return mean_over_deciding_runs(satisfied, window, starts)
