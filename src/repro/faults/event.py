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

What the plan does to a message is one rule — a down end, else a
partition cut, else the live bursts; an episode fires on the first
message it costs; slow nodes stretch latencies — with three entry
points over one crash/partition helper and one quiet test:
:meth:`PlanLinkFaults.drop` (and ``latency_factor``) serves the
transport per message, :meth:`~PlanLinkFaults.sift` the stepped batched
engine per send instant, and :meth:`~PlanLinkFaults.judge` the
whole-array engine per ``[round, dst, src]`` block.  ``judge`` draws its
bursts through :meth:`~PlanLinkFaults.burst_drops`, the bulk form of
the burst branch: each link's run of single-burst messages is hashed in
one pass over consecutive counts, and only a round with several live
bursts takes :meth:`drop`'s walk.

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
        of one broadcast share one lookup."""
        self._instant = now
        self._view(self.round_of(now))

    def _view(self, round_number: int) -> None:
        """Point the plain-Python views at plan round ``round_number``:
        the rounds of one plan epoch share one set of them (its state, its
        live partitions, whether it is quiet)."""
        self._round = round_number
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
        ``1.0`` for each, advance no burst counter and fire no episode."""
        if now != self._instant:
            self._resolve(now)
        return self._quiet

    def drop(self, src: int, dst: int, now: float) -> bool:
        if now != self._instant:
            self._resolve(now)
        cause = self._sever(src, dst)
        if cause is None and self._burst_walk(src, dst, self._state.bursts):
            cause = "loss-burst"
        self.last_drop_cause = cause
        return cause is not None

    def _sever(self, src: int, dst: int) -> Optional[str]:
        """Why the viewed round loses ``src -> dst`` before any burst
        draws: ``"crash"`` if an end is down, else ``"partition"`` if an
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
        bursts, slow, kept = self._state.bursts, self._slow, []
        for src, dst, latency, payload in links:
            cause = self._sever(src, dst)
            if cause is None and self._burst_walk(src, dst, bursts):
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
        by cause, with burst counters and activations where :meth:`drop`
        asked in round order leaves them.

        A fault window opens and closes on a plan-epoch boundary, so a
        link's crash and partition verdict holds for a whole epoch: the
        helper is asked once per link sending in a non-quiet epoch (whose
        rounds, ascending, are one run of ``k``), and the messages it
        keeps go to :meth:`burst_drops` in one call."""
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
        if candidate.any():
            messages = np.argwhere(candidate)
            hit = self.burst_drops(messages, plan_rounds)
            lost[tuple(messages[hit].T)] = True
            drops["loss-burst"] = int(hit.sum())
        return lost, factor, drops

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
