"""Delivery schedules: who hears whom, in which round.

A :class:`Schedule` decides, for each (round, source, destination) triple,
whether the message is *timely* (arrives in the round it was sent), *late*
(arrives some rounds afterwards — recorded in its original slot, hence
useless to a round-driven algorithm, exactly as in the paper), or *lost*.

Schedules are oblivious to the algorithm: they answer for every pair, and
the runner consults them only for messages actually sent (the algorithm's
``D_i``).  The full per-round matrix is still available for model
instrumentation via :meth:`Schedule.matrix`.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Sequence

import numpy as np

from repro.models.matrix import validate_matrix
from repro.models.registry import TimingModel, get_model
from repro.models.repair import repair_to_satisfy


class Schedule(abc.ABC):
    """Per-round delivery decisions for an ``n``-process system."""

    def __init__(self, n: int, late_lag: Optional[int] = None) -> None:
        if n < 2:
            raise ValueError("a distributed system needs at least 2 processes")
        self.n = n
        self._late_lag = late_lag
        self._memo: dict[int, np.ndarray] = {}

    def _per_round(
        self, round_number: int, draw: Callable[[int], np.ndarray]
    ) -> np.ndarray:
        """``draw(round_number)``, computed on first use and kept: the
        one per-round memo behind every seeded schedule, so random access
        is deterministic and a repeated read draws nothing."""
        cached = self._memo.get(round_number)
        if cached is None:
            cached = self._memo[round_number] = draw(round_number)
        return cached

    @abc.abstractmethod
    def matrix(self, round_number: int) -> np.ndarray:
        """The timely-delivery matrix ``A`` of the given round (``A[dst, src]``)."""

    def delivered_round(self, round_number: int, src: int, dst: int) -> Optional[int]:
        """Round in which the round-``round_number`` message from ``src``
        reaches ``dst``: ``round_number`` if timely, a later round if late,
        ``None`` if lost.  An untimely message is lost, or arrives
        ``late_lag`` rounds late when the schedule was built with one.
        """
        if self.matrix(round_number)[dst, src]:
            return round_number
        if self._late_lag is not None:
            return round_number + self._late_lag
        return None


class MatrixSchedule(Schedule):
    """A schedule given by an explicit sequence of matrices.

    Rounds beyond the sequence repeat the last matrix, so a finite script
    describes an eventually-stable infinite run.  Round numbering is
    1-based (round 1 uses ``matrices[0]``).
    """

    def __init__(
        self,
        matrices: Sequence[np.ndarray],
        late_lag: Optional[int] = None,
    ) -> None:
        if not matrices:
            raise ValueError("need at least one matrix")
        for m in matrices:
            validate_matrix(m, n=matrices[0].shape[0])
        super().__init__(matrices[0].shape[0], late_lag)
        self._matrices = [np.array(m, dtype=bool) for m in matrices]

    def matrix(self, round_number: int) -> np.ndarray:
        if round_number < 1:
            raise ValueError("rounds are 1-based")
        index = min(round_number - 1, len(self._matrices) - 1)
        return self._matrices[index]


class IIDSchedule(Schedule):
    """The Section 4 link model: every entry timely IID with probability ``p``.

    Matrices are generated lazily per round from a seed, so random access
    is deterministic.  Untimely messages are lost by default, or arrive
    ``late_lag`` rounds late when configured (they are equally useless to
    the algorithms; late delivery only matters to inbox-inspection tests).
    """

    def __init__(
        self,
        n: int,
        p: float,
        seed: int = 0,
        late_lag: Optional[int] = None,
    ) -> None:
        super().__init__(n, late_lag)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be a probability, got {p}")
        self.p = p
        self._seed = seed

    def matrix(self, round_number: int) -> np.ndarray:
        if round_number < 1:
            raise ValueError("rounds are 1-based")
        return self._per_round(round_number, self._draw)

    def _draw(self, round_number: int) -> np.ndarray:
        rng = np.random.default_rng((self._seed, round_number))
        matrix = rng.random((self.n, self.n)) < self.p
        np.fill_diagonal(matrix, True)
        return matrix


class _RepairingSchedule(Schedule):
    """A base schedule whose *good* rounds are repaired to satisfy a model.

    Subclasses say which rounds are good (:meth:`good_round`); the repair
    itself — links turned on by a per-round seeded rng until the model's
    predicate holds, memoised so random access is deterministic — is
    stated here once.
    """

    def __init__(
        self,
        base: Schedule,
        model: TimingModel | str,
        leader: Optional[int],
        seed: int,
        correct: Optional[Sequence[int]],
    ) -> None:
        super().__init__(base.n)
        self._base = base
        self._model = get_model(model) if isinstance(model, str) else model
        self._leader = leader
        self._seed = seed
        self._correct = None if correct is None else tuple(sorted(set(correct)))

    @abc.abstractmethod
    def good_round(self, round_number: int) -> bool:
        """Whether this round is forced to satisfy the model."""

    def matrix(self, round_number: int) -> np.ndarray:
        if not self.good_round(round_number):
            return self._base.matrix(round_number)
        return self._per_round(round_number, self._repair)

    def _repair(self, round_number: int) -> np.ndarray:
        return repair_to_satisfy(
            self._base.matrix(round_number),
            self._model,
            leader=self._leader,
            rng=np.random.default_rng((self._seed, round_number, 0xFACE)),
            correct=self._correct,
        )


class StableAfterSchedule(_RepairingSchedule):
    """Wrap a base schedule and force a timing model to hold from GSR onward.

    Before ``gsr`` the base schedule is used untouched; from round ``gsr``
    each base matrix is repaired (links turned on) so the model's predicate
    holds — the repaired links change every round, exercising the mobile
    (``_v``) variants of the properties.
    """

    def __init__(
        self,
        base: Schedule,
        gsr: int,
        model: TimingModel | str,
        leader: Optional[int] = None,
        seed: int = 0,
        correct: Optional[Sequence[int]] = None,
    ) -> None:
        if gsr < 1:
            raise ValueError("gsr must be at least 1 (rounds are 1-based)")
        super().__init__(base, model, leader, seed, correct)
        self.gsr = gsr

    def good_round(self, round_number: int) -> bool:
        return round_number >= self.gsr

    def delivered_round(self, round_number: int, src: int, dst: int) -> Optional[int]:
        if self.matrix(round_number)[dst, src]:
            return round_number
        if round_number >= self.gsr:
            return None
        return self._base.delivered_round(round_number, src, dst)


class IntermittentlyStableSchedule(_RepairingSchedule):
    """Each round independently satisfies a model with probability ``stability_prob``.

    This is the Section 4 setting seen from the model's side: a round is
    "good" (repaired to satisfy the model) with probability ``P_M`` and raw
    chaos otherwise.  Consensus then completes at the first window of
    ``c`` consecutive good rounds — the regime where the number of rounds
    an algorithm needs (4 versus 7 for direct versus simulated ◊WLM)
    dominates performance.
    """

    def __init__(
        self,
        base: Schedule,
        stability_prob: float,
        model: TimingModel | str,
        leader: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= stability_prob <= 1.0:
            raise ValueError("stability_prob must be a probability")
        super().__init__(base, model, leader, seed, correct=None)
        self.stability_prob = stability_prob

    def good_round(self, round_number: int) -> bool:
        rng = np.random.default_rng((self._seed, round_number, 0xBEEF))
        return bool(rng.random() < self.stability_prob)
