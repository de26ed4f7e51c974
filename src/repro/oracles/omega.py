"""An implementable Ω failure detector driven by observed deliveries.

The paper treats Ω as given, citing linear-message implementations
[22, 24] and stable-election results [1, 16]; its analysis deliberately
excludes election cost because "the same leader may persist for numerous
instances of consensus".  This module provides the implementation those
citations stand for, at the abstraction GIRAF uses:

:class:`HeartbeatOmega` watches which processes' messages actually arrive
and trusts the smallest-id process heard within the last
``suspicion_rounds`` rounds.  It has one feed,
:meth:`~HeartbeatOmega.observe_rows`: the GIRAF round step
(:class:`~repro.giraf.runner.RoundMachine`, on the lockstep runner and
the stepped grid engine) reports the rows of each round's enders, and the
event-driven nodes each report their own row of the run's
:class:`~repro.sync.round_sync.RoundLog` as their round ends.  The
batched executor, which holds the whole log before the detector sees any
of it, hands the log over in one call: :meth:`~HeartbeatOmega.replay` is
that feed's closed form over the round axis — the same observations and
queries, in the same order, as array passes.  Properties:

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
        if rows is None:
            sel = np.arange(self.n)
        else:
            # Checked on the plain sequence, before any array is built:
            # the event-driven nodes pass a 1-tuple per node per round.
            # A repeated row would count its raised suspicions twice; a
            # negative one would silently feed the wrong receiver.
            seen: set[int] = set()
            for row in rows:
                if not 0 <= row < self.n:
                    raise ValueError(
                        f"receiver row {row} out of range for n={self.n}"
                    )
                if row in seen:
                    raise ValueError(f"receiver row {row} given twice")
                seen.add(row)
            sel = np.asarray(rows, dtype=int)
        if sel.size == 0:
            return
        heard = delivered[sel]
        heard[np.arange(sel.size), sel] = True
        block = self._last_heard[sel]
        np.maximum(block, np.where(heard, round_number, block), out=block)
        self._last_heard[sel] = block
        suspected = ~self._in_window(block, round_number)
        previous = self._suspected[sel]
        raised = int(np.count_nonzero(suspected & ~previous))
        cleared = int(np.count_nonzero(~suspected & previous))
        if raised:
            self._suspicions_raised.inc(raised)
        if cleared:
            self._suspicions_cleared.inc(cleared)
        self._suspected[sel] = suspected

    def replay(
        self,
        timely: np.ndarray,
        ended: Sequence[int],
        unasked: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """A whole run's feed and queries at once: :meth:`observe_rows`'s
        closed form over the round axis.

        ``timely[k - 1]`` is round ``k``'s delivery matrix, ``k = 1..R``;
        receiver ``pid`` ended rounds ``1..ended[pid]``.  Leaves the
        detector — freshness map, suspicion masks, last outputs, the
        three ``omega.*`` counters — exactly where this sequence does,
        whatever it had observed and answered before::

            for pid in range(n):
                query(pid, 0)                        # the boot queries
            for k in 1..R:
                enders = [pid for pid in range(n) if k <= ended[pid]]
                observe_rows(k, timely[k - 1], rows=enders)
                for pid in enders:
                    query(pid, k)

        with the queries of every round ``k`` where ``unasked[k]`` is set
        (a mask over rounds ``0..R``) left out: a wrapper that answers
        those rounds itself never forwards them.  Returns the
        ``(R + 1, n)`` table of the answers, ``-1`` where ``pid`` made no
        query in round ``k``.

        Rows are independent (the detector is local), so each receiver's
        rounds are one prefix of the round axis: freshness is a running
        maximum of "round ``k`` where heard" folded with the stored map,
        suspicion is that stamp against the window, raised / cleared
        compare each round's mask with the one before it (the stored one
        for round 1), and a leader change is a step along the receiver's
        own sequence of answers.
        """
        timely = np.asarray(timely, dtype=bool)
        n = self.n
        if timely.ndim != 3 or timely.shape[1:] != (n, n):
            raise ValueError("delivery matrix has wrong shape")
        rounds = len(timely)
        if len(ended) != n:
            raise ValueError(f"need {n} last ended rounds, got {len(ended)}")
        for pid, last in enumerate(ended):
            if not 0 <= last <= rounds:
                raise ValueError(
                    f"receiver {pid}'s last ended round {last} is outside"
                    f" 0..{rounds}"
                )
        if unasked is None:
            unasked = np.zeros(rounds + 1, dtype=bool)
        unasked = np.asarray(unasked, dtype=bool)
        if unasked.shape != (rounds + 1,):
            raise ValueError(f"unasked must mask rounds 0..{rounds}")
        ended = np.asarray(ended, dtype=int)
        pids = np.arange(n)
        ks = np.arange(rounds + 1)
        round_col = ks[:, None, None]

        # heard[k, dst, src]: dst's freshness stamp of src once it has
        # observed rounds 1..k — the running maximum of "k where heard,
        # else 0" — and row 0 is the map as stored.
        heard = np.empty((rounds + 1, n, n), dtype=int)
        heard[0] = self._last_heard
        np.multiply(timely | np.eye(n, dtype=bool), round_col[1:], out=heard[1:])
        np.maximum.accumulate(heard, axis=0, out=heard)
        alive = self._in_window(heard, round_col)
        suspected = ~alive
        suspected[0] = self._suspected
        # Only a receiver that ends round k observes it.
        observes = (ks[1:, None] <= ended)[:, :, None]
        before, after = suspected[:-1], suspected[1:]
        self._suspicions_raised.inc(
            int(np.count_nonzero(after & ~before & observes))
        )
        self._suspicions_cleared.inc(
            int(np.count_nonzero(before & ~after & observes))
        )

        # Trust: the first alive column (a receiver hears itself in
        # every round it ends, and no stamp is below round 0's window, so
        # there is one wherever it asks).  Row 0 answers the boot queries
        # from the stored map.
        asked = (ks[:, None] <= ended) & ~unasked[:, None]
        leaders = np.where(asked, alive.argmax(axis=2), -1)

        # Leader changes: each receiver's answers in order, its previous
        # output first; ``latest`` carries the last answer forward over
        # the rounds it did not ask in (-1 until there is one).
        previous = [self._last_output.get(pid, -1) for pid in range(n)]
        answers = np.vstack([previous, leaders])
        answered = answers >= 0
        at = np.where(answered, np.arange(rounds + 2)[:, None], 0)
        latest = np.take_along_axis(
            answers, np.maximum.accumulate(at, axis=0), axis=0
        )
        self._leader_changes.inc(
            int(
                np.count_nonzero(
                    answered[1:]
                    & (latest[:-1] >= 0)
                    & (answers[1:] != latest[:-1])
                )
            )
        )

        # Everything ends at each receiver's own last ended round.
        self._last_heard = heard[ended, pids]
        self._suspected = suspected[ended, pids]
        for pid, leader in enumerate(latest[-1].tolist()):
            if leader >= 0:
                self._last_output[pid] = leader
        return leaders

    def _in_window(self, last_heard, round_number):
        """The window comparison, stated once: a process last heard in
        round ``last_heard`` is inside the trust window at
        ``round_number``.  Trust (:meth:`alive`), suspicion
        (:meth:`suspected`, the accounting in :meth:`observe_rows`) and
        the bulk form (:meth:`replay`) all read it — array or scalar —
        so they cannot drift apart at the window boundary."""
        return last_heard >= round_number - self.suspicion_rounds

    def alive(self, pid: int, round_number: int) -> np.ndarray:
        """Mask of processes inside ``pid``'s trust window at
        ``round_number`` — the window :meth:`trusted` selects from, and
        the exact complement of :meth:`suspected` at every round."""
        return self._in_window(self._last_heard[pid], round_number)

    def suspected(self, pid: int, round_number: int) -> np.ndarray:
        """Mask of processes outside ``pid``'s window at ``round_number``:
        what :meth:`observe_rows` counts for the suspicion metrics,
        exposed per-process for inspection and tests."""
        return ~self._in_window(self._last_heard[pid], round_number)

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
