"""Failure-detector oracles.

GIRAF equips every process with an oracle of arbitrary output range,
queried once per end-of-round.  The models in the paper use the
:math:`\\Omega` leader oracle: from GSR onward every correct process's
query returns the same correct process.

Oracles here are *global* objects queried as ``query(pid, round)`` so a
single instance can coordinate what different processes see — which is how
eventual agreement on the leader is modelled.
"""

from __future__ import annotations

import abc
from typing import Any, Optional, Sequence

import numpy as np


class Oracle(abc.ABC):
    """Oracle queried by process ``pid`` at the end of round ``round``."""

    @abc.abstractmethod
    def query(self, pid: int, round_number: int) -> Any:
        """The oracle output ``FD_i`` for this process and round."""


class NullOracle(Oracle):
    """An oracle with no information (for oracle-free models like ES/AFM)."""

    def query(self, pid: int, round_number: int) -> None:
        return None

    def replay(
        self,
        timely: np.ndarray,
        ended: Sequence[int],
        unasked: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The bulk form of a whole run's queries (see
        :meth:`repro.oracles.omega.HeartbeatOmega.replay`): rounds
        ``0..len(timely)`` by receiver, and no leader (``-1``) anywhere."""
        return np.full((len(timely) + 1, len(ended)), -1)


class FixedLeaderOracle(Oracle):
    """An :math:`\\Omega` oracle that outputs the same leader from the start.

    This is the paper's *stable leader* setting (Section 4): leader
    re-election is rare, so one leader persists across many consensus
    instances and every process trusts it from round 0.
    """

    def __init__(self, leader: int) -> None:
        self.leader = leader

    def query(self, pid: int, round_number: int) -> int:
        return self.leader


class EventuallyStableLeaderOracle(Oracle):
    """An :math:`\\Omega` oracle that stabilizes at a given round.

    Before ``stable_from``, each process sees an arbitrary (seeded,
    per-process pseudo-random) leader; from the end-of-round of
    ``stable_from`` onward, every process sees ``leader``.

    The paper distinguishes oracle requirements holding from GSR versus
    from GSR-1 (Theorem 10); choosing ``stable_from`` accordingly lets
    tests exercise both the 5-round and the 4-round decision bounds.
    """

    def __init__(self, leader: int, stable_from: int, n: int, seed: int = 0) -> None:
        if stable_from < 0:
            raise ValueError("stable_from must be non-negative")
        self.leader = leader
        self.stable_from = stable_from
        self.n = n
        self._seed = seed

    def query(self, pid: int, round_number: int) -> int:
        if round_number >= self.stable_from:
            return self.leader
        # Deterministic pseudo-random pre-stability output.
        mixed = hash((self._seed, pid, round_number))
        return mixed % self.n


class RotatingLeaderOracle(Oracle):
    """A deliberately unstable oracle: the trusted leader rotates every round.

    Used for failure injection — a consensus algorithm must stay safe (never
    violate agreement/validity) under it, though it need not terminate.
    """

    def __init__(self, n: int, period: int = 1) -> None:
        if period < 1:
            raise ValueError("period must be at least 1")
        self.n = n
        self.period = period

    def query(self, pid: int, round_number: int) -> int:
        return (round_number // self.period) % self.n


class ScriptedOracle(Oracle):
    """An oracle driven by an explicit table, for targeted regression tests.

    ``script[k][pid]`` is the output of process ``pid``'s query at the end
    of round ``k``; rounds beyond the script repeat its last row.
    """

    def __init__(self, script: Sequence[Sequence[Any]]) -> None:
        if not script:
            raise ValueError("script must contain at least one round")
        self._script = [list(row) for row in script]

    def query(self, pid: int, round_number: int) -> Any:
        row = self._script[min(round_number, len(self._script) - 1)]
        return row[pid]
