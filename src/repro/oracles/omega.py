"""An implementable Ω failure detector driven by observed deliveries.

The paper treats Ω as given, citing linear-message implementations
[22, 24] and stable-election results [1, 16]; its analysis deliberately
excludes election cost because "the same leader may persist for numerous
instances of consensus".  This module provides the implementation those
citations stand for, at the abstraction GIRAF uses:

:class:`HeartbeatOmega` watches which processes' messages actually arrive
and trusts the smallest-id process heard within the last
``suspicion_rounds`` rounds.  It has one feed,
:meth:`~HeartbeatOmega.observe_rows`: the lockstep runner reports each
round's whole delivery matrix (``observe``, the same call over every
row), the event-driven nodes each report their own row of the run's
:class:`~repro.sync.round_sync.RoundLog` as their round ends, and the
batched executor reports the rows of the nodes that ended the round.
Properties:

- **Eventual agreement**: once the system stabilizes and some correct
  process's messages reach everyone each round (true under ES/◊LM/◊WLM
  for the leader, and eventually for the min-id correct process under
  any model where it is a source), all processes converge on one leader.
- **Crash detection**: a crashed leader stops being heard and is dropped
  after ``suspicion_rounds`` rounds, after which the next process takes
  over — exercising consensus through leader re-election.
- **Stability**: the output changes only when the current leader goes
  quiet or a smaller-id process reappears, matching the stable-election
  goal of [1, 24].

The detector is *local*: each process's view depends only on its own row
of the delivery matrices, as a real implementation's would.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.giraf.oracle import Oracle
from repro.obs.registry import MetricsRegistry, registry_or_null


class HeartbeatOmega(Oracle):
    """Ω from observed heartbeats: trust the smallest-id recently-heard process."""

    def __init__(
        self,
        n: int,
        suspicion_rounds: int = 3,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if n < 1:
            raise ValueError("n must be positive")
        if suspicion_rounds < 1:
            raise ValueError("suspicion_rounds must be at least 1")
        self.n = n
        self.suspicion_rounds = suspicion_rounds
        # last_heard[dst, src] = last round in which dst heard src.
        self._last_heard = np.zeros((n, n), dtype=int)
        self._metrics = registry_or_null(metrics)
        self._suspicions_raised = self._metrics.counter("omega.suspicions_raised")
        self._suspicions_cleared = self._metrics.counter(
            "omega.suspicions_cleared"
        )
        self._leader_changes = self._metrics.counter("omega.leader_changes")
        # suspected[dst, src]: was src outside dst's window at the last
        # observation?  Round 0 starts with nothing suspected.
        self._suspected = np.zeros((n, n), dtype=bool)
        self._last_output: dict[int, int] = {}

    def observe(self, round_number: int, delivered: np.ndarray) -> None:
        """Feed one round's delivery matrix (``delivered[dst, src]``):
        the lockstep runner's end-of-round call, :meth:`observe_rows`
        over every row."""
        self.observe_rows(round_number, delivered)

    def observe_rows(
        self,
        round_number: int,
        delivered: np.ndarray,
        rows: Optional[Sequence[int]] = None,
    ) -> None:
        """Feed the receivers ``rows`` (all when ``None``) their rows of
        one round's delivery matrix — the detector's one feed, and the
        one statement of its rule.

        Each process always "hears" itself.  The freshness map is
        monotone: a repeated or out-of-order observation (replayed
        matrices, a fault-injected runner re-driving a round) can only
        confirm that a process was heard, never roll its last-heard round
        backwards and resurrect suspicion of a live process.

        The detector is local (:meth:`query` for ``pid`` reads only row
        ``pid``), so a round may arrive whole or one receiver at a time,
        in any order, as each event-driven node's round ends: same
        freshness map, same suspicion masks, same raised / cleared
        totals (per-row increments sum).
        """
        delivered = np.asarray(delivered, dtype=bool)
        if delivered.shape != (self.n, self.n):
            raise ValueError("delivery matrix has wrong shape")
        sel = (
            np.arange(self.n)
            if rows is None
            else np.asarray(list(rows), dtype=int)
        )
        if sel.size == 0:
            return
        heard = delivered[sel]
        heard[np.arange(sel.size), sel] = True
        block = self._last_heard[sel]
        np.maximum(block, np.where(heard, round_number, block), out=block)
        self._last_heard[sel] = block
        suspected = block < (round_number - self.suspicion_rounds)
        previous = self._suspected[sel]
        raised = int(np.count_nonzero(suspected & ~previous))
        cleared = int(np.count_nonzero(~suspected & previous))
        if raised:
            self._suspicions_raised.inc(raised)
        if cleared:
            self._suspicions_cleared.inc(cleared)
        self._suspected[sel] = suspected

    def alive(self, pid: int, round_number: int) -> np.ndarray:
        """Mask of processes inside ``pid``'s trust window at ``round_number``.

        This is the window :meth:`trusted` selects from; it must be the
        exact complement of :meth:`suspected` at every round, or trust
        and suspicion accounting drift apart at the window boundary.
        """
        return self._last_heard[pid] >= round_number - self.suspicion_rounds

    def suspected(self, pid: int, round_number: int) -> np.ndarray:
        """Mask of processes outside ``pid``'s window at ``round_number``.

        The same windowed comparison :meth:`observe_rows` uses for the
        suspicion metrics, exposed per-process for inspection and tests.
        """
        return self._last_heard[pid] < (round_number - self.suspicion_rounds)

    def trusted(self, pid: int, round_number: int) -> int:
        """The smallest-id process ``pid`` heard within the suspicion window."""
        alive = np.flatnonzero(self.alive(pid, round_number))
        if alive.size == 0:
            return pid  # heard nobody recently — trust self
        return int(alive[0])

    def query(self, pid: int, round_number: int) -> int:
        leader = self.trusted(pid, round_number)
        previous = self._last_output.get(pid)
        if previous is not None and previous != leader:
            self._leader_changes.inc()
        self._last_output[pid] = leader
        return leader
