"""Fault injection for the event-driven stack.

The event-driven runs have no global round counter — nodes cut rounds
with local timers — so the plan's round timeline is mapped onto
simulation time through the run's timeout: round ``k`` covers the window
``[(k-1) * timeout, k * timeout)``, the same back-to-back idealization
the measurement figures use.

:class:`PlanLinkFaults` answers the :class:`~repro.sim.transport.LinkFaults`
protocol from a :class:`~repro.faults.plan.FaultPlan`: partitions,
frozen processes and loss bursts drop messages, slow-node episodes
stretch latencies.  Burst drops are deterministic: each link counts the
burst draws it has made, and the draw with count ``i`` for burst ``b``
is ``SHA-256(seed, b, link, i)``, never shared random state, so a rerun
— or a differently-ordered event interleaving that sends the same
messages per link — sees the same realization.  A message in a round
with several live bursts walks them in order, one count each, up to the
first that drops it.

:meth:`PlanLinkFaults.drop` decides one message;
:meth:`PlanLinkFaults.burst_drops` decides the burst branch for a whole
batch of messages in round order — what the batched engine asks — with
the same draws, counters and activations: each link's run of
single-burst messages is hashed in one pass over consecutive counts, and
only a round with several live bursts takes :meth:`drop`'s walk.

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

import numpy as np

from repro.faults.plan import FaultPlan, RoundState
from repro.obs.registry import MetricsRegistry, registry_or_null
from repro.sim.rng import derive_seed_heads

#: One uniform draw from SHA-256 output: 53 bits into [0, 1).
_DENOMINATOR = float(1 << 53)


def _burst_heads(seed: int, index: int, src: int, dst: int, counts) -> bytes:
    """The SHA-256 heads of burst ``index``'s draws on link ``src -> dst``
    at the link's draw ``counts`` — 8 bytes each, joined."""
    return derive_seed_heads(seed, f"faults:burst:{index}:{src}:{dst}:", counts)


def _uniform(heads):
    """The uniform in [0, 1) of a 64-bit head (an ``int``, or a uint64
    array of them): its top 53 bits, exactly, over 2**53."""
    return (heads >> 11) / _DENOMINATOR


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
        # Written so NaN fails: a NaN or infinite timeout folds every
        # instant into one plan round, or none.
        if not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be finite and positive: {timeout!r}")
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

    def rounds_of(self, times: np.ndarray) -> np.ndarray:
        """:meth:`round_of` of every instant in ``times``, as one array:
        NumPy's float floor division is Python's, so exact multiples of
        the timeout land in the round :meth:`round_of` puts them in."""
        quotient = np.asarray(times) // self.timeout
        return np.maximum(1, quotient.astype(np.int64) + 1)

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
        if self._burst_walk(src, dst, self._state.bursts):
            self.last_drop_cause = "loss-burst"
            return True
        return False

    def _burst_walk(self, src: int, dst: int, bursts: tuple[int, ...]) -> bool:
        """Whether one message on ``src -> dst`` is lost to the live
        ``bursts``: each in turn takes the link's next count and draws,
        up to the first that drops the message (activated)."""
        plan = self.plan
        for index in bursts:
            count = self._burst_counters.get((src, dst), 0)
            self._burst_counters[(src, dst)] = count + 1
            head = _burst_heads(plan.seed, index, src, dst, (count,))
            draw = _uniform(int.from_bytes(head, "big"))
            if draw < plan.loss_bursts[index].drop_prob:
                self.activate("loss-burst", index)
                return True
        return False

    def burst_drops(
        self, messages: np.ndarray, plan_rounds: np.ndarray
    ) -> np.ndarray:
        """:meth:`drop`'s burst verdicts for many messages in one call.

        ``messages`` has one row ``(k, dst, src)`` per message, sent at an
        instant of plan round ``plan_rounds[k]``, not already lost to a
        crash or a partition, in ascending ``k`` (round order).  Returns
        one boolean per row and leaves the burst counters, activations and
        ``faults.activations`` totals where :meth:`drop` asked about the
        rows in order would: each link's draws depend only on its own
        count, so the rows are taken link by link.  A link's run of
        messages under one lone live burst draws consecutive counts,
        hashed in one pass; a message in a round with several live bursts
        takes :meth:`drop`'s walk.  ``last_drop_cause`` is left alone.
        """
        messages = np.asarray(messages).reshape(-1, 3)
        drops = np.zeros(len(messages), dtype=bool)
        if not len(messages):
            return drops
        plan = self.plan
        states, epoch = plan.round_states(np.asarray(plan_rounds))
        epoch = epoch[messages[:, 0]]
        # Per message: the index of its lone live burst, or -1 to walk
        # (several live; with none, the walk draws nothing).
        lone = np.array([
            state.bursts[0] if len(state.bursts) == 1 else -1
            for state in states
        ])[epoch]
        link = messages[:, 1] * plan.n + messages[:, 2]
        order = np.argsort(link, kind="stable")
        link, key = link[order], lone[order]
        cuts = 1 + np.flatnonzero(
            (link[1:] != link[:-1]) | (key[1:] != key[:-1])
        )
        for rows in np.split(order, cuts):
            index = int(lone[rows[0]])
            _, dst, src = messages[rows[0]].tolist()
            if index == -1:
                for row in rows.tolist():
                    bursts = states[epoch[row]].bursts
                    drops[row] = self._burst_walk(src, dst, bursts)
            else:
                count = self._burst_counters.get((src, dst), 0)
                self._burst_counters[(src, dst)] = count + len(rows)
                heads = _burst_heads(
                    plan.seed, index, src, dst, range(count, count + len(rows))
                )
                draws = _uniform(np.frombuffer(heads, ">u8"))
                drops[rows] = hit = draws < plan.loss_bursts[index].drop_prob
                if hit.any():
                    self.activate("loss-burst", index)
        return drops

    def latency_factor(self, src: int, dst: int, now: float) -> float:
        if now != self._instant:
            self._resolve(now)
        return self._slow[src] * self._slow[dst]
