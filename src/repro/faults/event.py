"""Fault injection for the event-driven stack.

The event-driven runs have no global round counter — nodes cut rounds
with local timers — so the plan's round timeline is mapped onto
simulation time through the run's timeout: round ``k`` covers the window
``[(k-1) * timeout, k * timeout)``, the same back-to-back idealization
the measurement figures use.

:class:`PlanLinkFaults` answers the :class:`~repro.sim.transport.LinkFaults`
protocol from a :class:`~repro.faults.plan.FaultPlan`: partitions,
frozen processes and loss bursts drop messages, slow-node episodes
stretch latencies.  Burst drops are deterministic: the decision for the
``i``-th message a link carries during burst windows comes from
``SHA-256(seed, link, i)``, never from shared random state, so a rerun —
or a differently-ordered event interleaving that sends the same messages
per link — sees the same realization.

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
from typing import Optional

from repro.faults.plan import FaultPlan, RoundState
from repro.obs.registry import MetricsRegistry, registry_or_null
from repro.sim.rng import derive_seed

#: One uniform draw from SHA-256 output: 53 bits into [0, 1).
_DENOMINATOR = float(1 << 53)


def _uniform(seed: int, name: str) -> float:
    """A deterministic uniform in [0, 1) for ``(seed, name)``."""
    return (derive_seed(seed, name) >> 11) / _DENOMINATOR


class PlanLinkFaults:
    """A :class:`FaultPlan`, viewed per message by the transport.

    ``last_drop_cause`` names why the most recent :meth:`drop` returned
    ``True`` (``"crash"``, ``"partition"`` or ``"loss-burst"``), and is
    ``None`` after a pass verdict.  The classification must happen inside
    the one :meth:`drop` call per message because the burst counters
    advance per query — asking twice would change the realization.

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
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.plan = plan
        self.timeout = timeout
        self._burst_counters: dict[tuple[int, int], int] = {}
        self.last_drop_cause: Optional[str] = None
        self._metrics = registry_or_null(metrics)
        self._seen_activations: set[tuple[str, int]] = set()
        # The last ``now`` asked about (:meth:`_resolve`); NaN equals none.
        self._instant = math.nan
        self._state: Optional[RoundState] = None

    @property
    def consumed(self) -> bool:
        """Whether any message has advanced a burst counter or fired an
        episode: a used policy no longer replays its plan from the top."""
        return bool(self._burst_counters or self._seen_activations)

    def activate(self, kind: str, index: int) -> None:
        """Episode ``index`` of ``kind`` affected a message: counted in
        ``faults.activations`` the first time only."""
        if (kind, index) in self._seen_activations:
            return
        self._seen_activations.add((kind, index))
        self._metrics.counter("faults.activations", kind=kind).inc()

    def round_of(self, now: float) -> int:
        """The 1-based plan round covering simulation time ``now``."""
        return max(1, int(now // self.timeout) + 1)

    def start_of(self, round_number: int) -> float:
        """The simulation time plan round ``round_number`` starts at —
        :meth:`round_of`'s inverse, and the instant the run books that
        round's node-level faults (crash, recovery, clock step) for."""
        return (round_number - 1) * self.timeout

    def _resolve(self, now: float) -> None:
        """Look up the plan's round and state at ``now`` (one bisect) —
        only when ``now`` is not the instant last asked about: the messages
        of one broadcast share one lookup, the rounds of one plan epoch
        one set of plain-Python views of its state."""
        self._instant = now
        self._round = self.round_of(now)
        state = self.plan.round_state(self._round)
        if state is not self._state:
            self._state = state
            self._down, self._cross = state.down.tolist(), state.cross.tolist()
            self._slow = state.slow.tolist()
            self._quiet = not (
                state.down.any() or state.cross.any() or state.bursts
                or (state.slow != 1.0).any()
            )

    def quiet(self, now: float) -> bool:
        """Whether every message sent at ``now`` passes untouched: then
        :meth:`drop` would say ``False`` and :meth:`latency_factor`
        ``1.0`` for each, advance no burst counter and fire no episode."""
        if now != self._instant:
            self._resolve(now)
        return self._quiet

    def drop(self, src: int, dst: int, now: float) -> bool:
        if now != self._instant:
            self._resolve(now)
        round_number, plan, down = self._round, self.plan, self._down
        self.last_drop_cause = None
        if down[src] or down[dst]:
            self.last_drop_cause = "crash"
            for index, crash in enumerate(plan.crashes):
                if crash.pid in (src, dst) and crash.down_at(round_number):
                    self.activate("crash-link", index)
            return True
        if self._cross[dst][src]:
            self.last_drop_cause = "partition"
            for index, partition in enumerate(plan.partitions):
                if partition.active_at(round_number):
                    self.activate("partition", index)
            return True
        for index in self._state.bursts:
            count = self._burst_counters.get((src, dst), 0)
            self._burst_counters[(src, dst)] = count + 1
            draw = _uniform(
                plan.seed, f"faults:burst:{index}:{src}:{dst}:{count}"
            )
            if draw < plan.loss_bursts[index].drop_prob:
                self.last_drop_cause = "loss-burst"
                self.activate("loss-burst", index)
                return True
        return False

    def latency_factor(self, src: int, dst: int, now: float) -> float:
        if now != self._instant:
            self._resolve(now)
        return self._slow[src] * self._slow[dst]
