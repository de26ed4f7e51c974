"""Adversarial delivery schedules for failure injection.

The base schedules (:mod:`repro.giraf.schedule`) model benign randomness;
these model the *structured* bad weather indulgent algorithms must
survive before GSR:

- :class:`PartitionSchedule` — the network splits into groups; messages
  cross group boundaries only after the partition heals.  The classic
  split-brain scenario: safety must hold even when a minority (or each
  half of an even split) proceeds alone.
- :class:`BurstyLossSchedule` — delivery alternates between calm phases
  (high delivery) and loss bursts (near-total loss), as congestion events
  produce in practice; late messages concentrate instead of spreading
  IID, which is exactly the effect the paper saw make measured ES exceed
  its IID prediction.
- :class:`TargetedSilenceSchedule` — one victim process is cut off
  (incoming, outgoing, or both) until a given round; everyone else
  communicates perfectly.  Exercises leader-silence and straggler paths.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.giraf.schedule import Schedule
from repro.models.matrix import empty_matrix, full_matrix


class PartitionSchedule(Schedule):
    """Groups communicate internally; the partition heals at ``heal_round``."""

    def __init__(
        self,
        n: int,
        groups: Sequence[Sequence[int]],
        heal_round: int,
        intra_group_p: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(n)
        seen: set[int] = set()
        for group in groups:
            for pid in group:
                if pid in seen:
                    raise ValueError(f"process {pid} in two groups")
                if not 0 <= pid < n:
                    raise ValueError(f"process {pid} out of range")
                seen.add(pid)
        if seen != set(range(n)):
            raise ValueError("groups must cover all processes")
        if heal_round < 1:
            raise ValueError("heal_round must be at least 1")
        if not 0.0 <= intra_group_p <= 1.0:
            raise ValueError("intra_group_p must be a probability")
        self.groups = [tuple(group) for group in groups]
        self.heal_round = heal_round
        self.intra_group_p = intra_group_p
        self._seed = seed

    def matrix(self, round_number: int) -> np.ndarray:
        if round_number >= self.heal_round:
            return full_matrix(self.n)
        return self._per_round(round_number, self._draw)

    def _draw(self, round_number: int) -> np.ndarray:
        rng = np.random.default_rng((self._seed, round_number, 0x9A27))
        matrix = empty_matrix(self.n)
        for group in self.groups:
            for src in group:
                for dst in group:
                    if src != dst:
                        matrix[dst, src] = rng.random() < self.intra_group_p
        np.fill_diagonal(matrix, True)
        return matrix


class BurstyLossSchedule(Schedule):
    """Alternating calm and loss-burst phases.

    Rounds cycle with period ``calm_rounds + burst_rounds``: during calm
    phases entries are timely with probability ``calm_p``; during bursts
    with probability ``burst_p`` (typically near zero).  Losses therefore
    *concentrate* — few rounds carry almost all the lateness — unlike the
    IID model's uniform spread.
    """

    def __init__(
        self,
        n: int,
        calm_rounds: int = 8,
        burst_rounds: int = 2,
        calm_p: float = 0.98,
        burst_p: float = 0.05,
        seed: int = 0,
    ) -> None:
        super().__init__(n)
        if calm_rounds < 1 or burst_rounds < 0:
            raise ValueError("need calm_rounds >= 1 and burst_rounds >= 0")
        for p in (calm_p, burst_p):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        self.calm_rounds = calm_rounds
        self.burst_rounds = burst_rounds
        self.calm_p = calm_p
        self.burst_p = burst_p
        self._seed = seed

    def in_burst(self, round_number: int) -> bool:
        period = self.calm_rounds + self.burst_rounds
        return (round_number - 1) % period >= self.calm_rounds

    def matrix(self, round_number: int) -> np.ndarray:
        return self._per_round(round_number, self._draw)

    def _draw(self, round_number: int) -> np.ndarray:
        p = self.burst_p if self.in_burst(round_number) else self.calm_p
        rng = np.random.default_rng((self._seed, round_number, 0xB125))
        matrix = rng.random((self.n, self.n)) < p
        np.fill_diagonal(matrix, True)
        return matrix


class TargetedSilenceSchedule(Schedule):
    """One victim is isolated until ``until_round``; all else is perfect."""

    def __init__(
        self,
        n: int,
        victim: int,
        until_round: int,
        direction: str = "both",
    ) -> None:
        super().__init__(n)
        if not 0 <= victim < n:
            raise ValueError("victim out of range")
        if direction not in ("in", "out", "both"):
            raise ValueError(f"bad direction {direction!r}")
        if until_round < 1:
            raise ValueError("until_round must be at least 1")
        self.victim = victim
        self.until_round = until_round
        self.direction = direction

    def matrix(self, round_number: int) -> np.ndarray:
        m = full_matrix(self.n)
        if round_number < self.until_round:
            if self.direction in ("in", "both"):
                m[self.victim, :] = False
            if self.direction in ("out", "both"):
                m[:, self.victim] = False
            m[self.victim, self.victim] = True
        return m
