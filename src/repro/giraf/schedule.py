"""Delivery schedules: who hears whom, in which round.

A :class:`Schedule` is one boolean matrix per round, ``A[dst, src]``:
an entry is set when the round-``k`` message from ``src`` to ``dst`` is
*timely* (arrives in round ``k``).  An untimely message is useless to a
round-driven algorithm, exactly as in the paper, so the lockstep runner
treats it as lost.

Schedules are oblivious to the algorithm: every matrix is a pure function
of the schedule's arguments and the round, so rounds can be read in any
order, and the runner reads each one once, at the top of its round.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.models.matrix import validate_matrix
from repro.models.registry import TimingModel, get_model
from repro.models.repair import repair_to_satisfy


class Schedule(abc.ABC):
    """Per-round timely matrices for an ``n``-process system."""

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("a distributed system needs at least 2 processes")
        self.n = n

    @abc.abstractmethod
    def matrix(self, round_number: int) -> np.ndarray:
        """The timely-delivery matrix ``A`` of the given round (``A[dst, src]``)."""


class MatrixSchedule(Schedule):
    """A schedule given by an explicit sequence of matrices.

    Rounds beyond the sequence repeat the last matrix, so a finite script
    describes an eventually-stable infinite run.  Round numbering is
    1-based (round 1 uses ``matrices[0]``).
    """

    def __init__(self, matrices: Sequence[np.ndarray]) -> None:
        if not matrices:
            raise ValueError("need at least one matrix")
        for m in matrices:
            validate_matrix(m, n=matrices[0].shape[0])
        super().__init__(matrices[0].shape[0])
        self._matrices = [np.array(m, dtype=bool) for m in matrices]

    def matrix(self, round_number: int) -> np.ndarray:
        if round_number < 1:
            raise ValueError("rounds are 1-based")
        index = min(round_number - 1, len(self._matrices) - 1)
        return self._matrices[index]


class IIDSchedule(Schedule):
    """The Section 4 link model: every entry timely IID with probability ``p``.

    Each round's matrix is drawn from a generator seeded by
    ``(seed, round)``, so random access is deterministic.
    """

    def __init__(self, n: int, p: float, seed: int = 0) -> None:
        super().__init__(n)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be a probability, got {p}")
        self.p = p
        self._seed = seed

    def matrix(self, round_number: int) -> np.ndarray:
        if round_number < 1:
            raise ValueError("rounds are 1-based")
        rng = np.random.default_rng((self._seed, round_number))
        matrix = rng.random((self.n, self.n)) < self.p
        np.fill_diagonal(matrix, True)
        return matrix


class _RepairingSchedule(Schedule):
    """A base schedule whose *good* rounds are repaired to satisfy a model.

    Subclasses say which rounds are good (:meth:`good_round`); the repair
    itself — links turned on by a generator seeded by ``(seed, round)``
    until the model's predicate holds — is stated here once.  A leader
    model needs a leader among the ``n`` processes, checked here rather
    than at the first good round.
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
        self._model = get_model(model) if isinstance(model, str) else model
        if leader is None and self._model.needs_leader:
            raise ValueError(f"{self._model.name} needs a leader")
        if leader is not None and not 0 <= leader < base.n:
            raise ValueError(f"leader {leader} out of range for n={base.n}")
        self._base = base
        self._leader = leader
        self._seed = seed
        self._correct = None if correct is None else tuple(sorted(set(correct)))

    @abc.abstractmethod
    def good_round(self, round_number: int) -> bool:
        """Whether this round is forced to satisfy the model."""

    def matrix(self, round_number: int) -> np.ndarray:
        if not self.good_round(round_number):
            return self._base.matrix(round_number)
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
