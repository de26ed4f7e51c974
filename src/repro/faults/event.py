"""Fault injection for the event-driven stack.

The event-driven runs have no global round counter — nodes cut rounds
with local timers — so the plan's round timeline is mapped onto
simulation time through the run's timeout: round ``k`` covers the window
``[t[k-1], t[k])`` of one table of round-start instants, accumulated from
``t[0] = 0`` as ``t[k] = t[k-1] + timeout`` — the very additions a
drift-free round grid makes, so a grid's round ``k`` starts in plan
round ``k`` and a crash at plan round ``r`` falls on the grid's own
boundary.  The same back-to-back windows are what the measurement
figures idealize.

:class:`PlanLinkFaults` answers the :class:`~repro.sim.transport.LinkFaults`
protocol from a :class:`~repro.faults.plan.FaultPlan`: partitions,
frozen processes and loss bursts drop messages, slow-node episodes
stretch latencies.  A burst is drawn once, by the plan: its verdict is
a function of (plan round, link) alone (:meth:`FaultPlan.burst_hits`,
the draw :meth:`FaultPlan.mask` reads too), so a rerun — or any event
interleaving, in any order — sees the same realization, and every
message a link sends in one plan round shares its verdict.  A message in
a round with several live bursts is lost to the first, in index order,
that hits its link.

What the plan does to a message is one rule — a down end, else a
partition cut, else the live bursts; an episode fires on the first
message it costs; slow nodes stretch latencies — with three entry
points over one crash/partition helper and one quiet test:
:meth:`PlanLinkFaults.drop` (and ``latency_factor``) serves the
transport per message, :meth:`~PlanLinkFaults.sift` the stepped batched
engine per send instant, and :meth:`~PlanLinkFaults.judge` the
whole-array engine per ``[round, dst, src]`` block, which reads each
bursty round's hits whole.

The policy also answers :meth:`PlanLinkFaults.quiet`, the transport's
optional per-broadcast query: in a round where nothing is down, no link
is cut, no burst is live and every slow factor is 1.0, every message
would pass untouched, so the transport skips the per-message questions.
Recovery and clock-step plans are quiet on every link in almost every
round.

Node-level faults (crash, recovery, clock steps) and leader churn cannot
be expressed on the wire; :class:`~repro.sync.round_sync.SyncRun` takes
the plan directly, drives its nodes' crash/recover/clock-step hooks and
assigns the plan's :class:`PlanLinkFaults` to its transport's ``faults``
(see ``fault_plan`` there).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Optional

import numpy as np

from repro.faults.plan import FaultPlan, RoundState
from repro.obs.registry import MetricsRegistry, registry_or_null


class PlanLinkFaults:
    """A :class:`FaultPlan`, viewed per message by the transport.

    ``last_drop_cause`` names why the most recent :meth:`drop` returned
    ``True`` (``"crash"``, ``"partition"`` or ``"loss-burst"``), and is
    ``None`` after a pass verdict.

    When ``metrics`` is given, the first message affected by each
    distinct fault episode increments ``faults.activations`` labelled by
    kind, so a run's telemetry shows which parts of the plan actually
    fired.
    """

    def __init__(
        self,
        plan: FaultPlan,
        timeout: float,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # Written so NaN fails: a NaN or infinite timeout folds every
        # instant into one plan round, or none.
        if not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be finite and positive: {timeout!r}")
        self.plan = plan
        self.timeout = timeout
        # The one round map: plan round k starts at ``_starts[k - 1]``,
        # grown on demand.
        self._starts = [0.0]
        self.last_drop_cause: Optional[str] = None
        self._metrics = registry_or_null(metrics)
        self._seen_activations: set[tuple[str, int]] = set()
        # The last ``now`` asked about (:meth:`_resolve`); NaN equals none.
        self._instant = math.nan
        self._state: Optional[RoundState] = None

    @property
    def consumed(self) -> bool:
        """Whether any message has fired an episode: a used policy no
        longer replays its plan's ``faults.activations`` from the top."""
        return bool(self._seen_activations)

    def activate(self, kind: str, index: int) -> None:
        """Episode ``index`` of ``kind`` affected a message: counted in
        ``faults.activations`` the first time only."""
        if (kind, index) in self._seen_activations:
            return
        self._seen_activations.add((kind, index))
        self._metrics.counter("faults.activations", kind=kind).inc()

    def _reach(self, now: float) -> None:
        """Grow the round-start table until it holds an instant after
        ``now``, one accumulated timeout at a time."""
        if not math.isfinite(now):
            raise ValueError(f"instant must be finite: {now!r}")
        starts, step = self._starts, self.timeout
        while starts[-1] <= now:
            starts.append(starts[-1] + step)

    def round_of(self, now: float) -> int:
        """The 1-based plan round covering simulation time ``now``: the
        last round of the table starting at or before it."""
        self._reach(now)
        return max(1, bisect_right(self._starts, now))

    def rounds_of(self, times: np.ndarray) -> np.ndarray:
        """:meth:`round_of` of every instant in ``times``, as one array,
        read off the same table."""
        times = np.asarray(times, dtype=float)
        if times.size:
            self._reach(float(times.max()))
        rounds = np.searchsorted(self._starts, times, side="right")
        return np.maximum(1, rounds)

    def start_of(self, round_number: int) -> float:
        """The simulation time plan round ``round_number`` starts at —
        :meth:`round_of`'s inverse, and the instant the run books that
        round's node-level faults (crash, recovery, clock step) for."""
        if round_number < 1:
            raise ValueError(f"plan rounds start at 1: {round_number!r}")
        starts = self._starts
        while len(starts) < round_number:
            starts.append(starts[-1] + self.timeout)
        return starts[round_number - 1]

    def _resolve(self, now: float) -> None:
        """Look up the plan's round and state at ``now`` —
        only when ``now`` is not the instant last asked about: the messages
        of one broadcast share one lookup."""
        self._instant = now
        self._view(self.round_of(now))

    def _view(self, round_number: int) -> None:
        """Point the plain-Python views at plan round ``round_number``:
        the rounds of one plan epoch share one set of them (its state, its
        live partitions, whether it is quiet); the round's burst hits are
        read on its first burst question."""
        self._round = round_number
        self._hits = None
        state = self.plan.round_state(round_number)
        if state is not self._state:
            self._state = state
            self._down, self._cross = state.down.tolist(), state.cross.tolist()
            self._slow = state.slow.tolist()
            self._cutting = [
                index for index, partition in enumerate(self.plan.partitions)
                if partition.active_at(round_number)
            ]
            self._quiet = not (
                state.down.any() or state.cross.any() or state.bursts
                or (state.slow != 1.0).any()
            )

    def quiet(self, now: float) -> bool:
        """Whether every message sent at ``now`` passes untouched: then
        :meth:`drop` would say ``False`` and :meth:`latency_factor`
        ``1.0`` for each, and fire no episode."""
        if now != self._instant:
            self._resolve(now)
        return self._quiet

    def drop(self, src: int, dst: int, now: float) -> bool:
        if now != self._instant:
            self._resolve(now)
        cause = self._sever(src, dst)
        if cause is None and self._burst(src, dst):
            cause = "loss-burst"
        self.last_drop_cause = cause
        return cause is not None

    def _sever(self, src: int, dst: int) -> Optional[str]:
        """Why the viewed round loses ``src -> dst`` before its bursts
        are asked: ``"crash"`` if an end is down, else ``"partition"`` if an
        active partition cuts the link, else ``None``.  A lost message
        fires the episodes behind its cause."""
        if self._down[src] or self._down[dst]:
            for index, crash in enumerate(self.plan.crashes):
                if crash.pid in (src, dst) and crash.down_at(self._round):
                    self.activate("crash-link", index)
            return "crash"
        if self._cross[dst][src]:
            for index in self._cutting:
                self.activate("partition", index)
            return "partition"
        return None

    def sift(self, now: float, links: list, drops: dict[str, int]) -> list:
        """:meth:`drop` and :meth:`latency_factor` for the messages sent
        at ``now``, one ``(src, dst, latency, payload)`` tuple each, in
        send order: the ones not lost, each latency times its link's
        factor (``links`` itself at a quiet instant), the lost ones
        counted into ``drops`` by cause."""
        if now != self._instant:
            self._resolve(now)
        if self._quiet:
            return links
        slow, kept = self._slow, []
        for src, dst, latency, payload in links:
            cause = self._sever(src, dst)
            if cause is None and self._burst(src, dst):
                cause = "loss-burst"
            if cause is None:
                kept.append((src, dst, latency * (slow[src] * slow[dst]), payload))
            else:
                drops[cause] = drops.get(cause, 0) + 1
        return kept

    def judge(
        self, sent: np.ndarray, plan_rounds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
        """:meth:`drop` and :meth:`latency_factor` for a block of messages:
        ``sent[k, dst, src]`` on ``src -> dst`` at an instant of plan round
        ``plan_rounds[k]``, ascending.  Returns ``(lost, factor, drops)``:
        the messages lost, every link's latency factor and the lost counted
        by cause, with the activations :meth:`drop` would fire.

        A fault window opens and closes on a plan-epoch boundary, so a
        link's crash and partition verdict holds for a whole epoch: the
        helper is asked once per link sending in a non-quiet epoch (whose
        rounds, ascending, are one run of ``k``).  The messages it keeps
        in a bursty round meet that round's hits whole, burst by burst."""
        plan_rounds = np.asarray(plan_rounds)
        states, epoch = self.plan.round_states(plan_rounds)
        _, first = np.unique(epoch, return_index=True)
        # [epoch, dst, src]: how many messages each link sends in it.
        sends = np.add.reduceat(sent, first, axis=0, dtype=np.int64)
        cut = np.zeros(sends.shape, dtype=bool)
        drops = {"crash": 0, "partition": 0, "loss-burst": 0}
        self._instant = math.nan  # the views move: no instant stays resolved
        for e, row in enumerate(first.tolist()):
            self._view(int(plan_rounds[row]))
            if self._quiet:
                continue
            counts = sends[e].tolist()
            for dst, src in np.argwhere(sends[e]).tolist():
                cause = self._sever(src, dst)
                if cause is not None:
                    cut[e, dst, src] = True
                    drops[cause] += counts[dst][src]
        lost = sent & cut[epoch]
        slow = np.array([state.slow for state in states])[epoch]
        factor = slow[:, :, None] * slow[:, None, :]
        live = np.array([bool(state.bursts) for state in states])[epoch]
        candidate = sent & ~lost & live[:, None, None]
        for k in np.flatnonzero(candidate.any(axis=(1, 2))).tolist():
            kept, hits = candidate[k], self.plan.burst_hits(int(plan_rounds[k]))
            for index, hit in zip(states[epoch[k]].bursts, hits):
                fired = kept & hit
                if fired.any():
                    self.activate("loss-burst", index)
                    lost[k] |= fired
                    kept = kept & ~hit
        drops["loss-burst"] = int((lost & candidate).sum())
        return lost, factor, drops

    def _burst(self, src: int, dst: int) -> bool:
        """Whether the viewed round's live bursts lose ``src -> dst``: to
        the first whose hit on the link is set, which fires."""
        bursts = self._state.bursts
        if not bursts:
            return False
        if self._hits is None:
            self._hits = self.plan.burst_hits(self._round).tolist()
        for index, hits in zip(bursts, self._hits):
            if hits[dst][src]:
                self.activate("loss-burst", index)
                return True
        return False

    def latency_factor(self, src: int, dst: int, now: float) -> float:
        if now != self._instant:
            self._resolve(now)
        return self._slow[src] * self._slow[dst]
