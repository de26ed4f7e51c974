"""The declarative fault-scenario language: :class:`FaultPlan`.

DESIGN.md promises failure injection — crashes below the resilience
bound, message-loss bursts, partitions, slow nodes, clock trouble and
leader churn.  A :class:`FaultPlan` is the single declarative timeline
for all of them, and both execution paths take it as the same
``fault_plan`` argument:

- the lockstep :class:`~repro.giraf.runner.LockstepRunner` kills the
  permanent crashes, loses each round's messages where :meth:`FaultPlan.mask`
  says so and churns the oracle;
- the event-driven :class:`~repro.sync.round_sync.SyncRun` assigns a
  :class:`~repro.faults.event.PlanLinkFaults` policy to its transport's
  ``faults`` and books the crash/recover/clock-step hooks on its
  simulator.

Rounds are 1-based, matching the schedules.  Every random choice a plan
implies is derived from the plan's ``seed`` by the SHA-256 rule of
:meth:`repro.sim.rng.RandomStreams.spawn`, so reruns repeat it.  The two
injectors share who is down, what a partition cuts, whom churn elects and
which links each burst hits: a burst is drawn once per (round, link)
(:meth:`FaultPlan.burst_hits`), and both :meth:`FaultPlan.mask` (the
lockstep runner, stabilization) and
:class:`~repro.faults.event.PlanLinkFaults` (the transport, both batched
engines, the idealization) read that draw.  A slow node has one view, a
latency factor on the wire: a message it delays is late, not lost, so
the mask, which has no latencies, refuses a plan with a slow node.

Crash semantics: a crash with ``recover_round=None`` is permanent (on
the lockstep path a real process death).  A crash *with* a recovery
round models crash-recovery with stable storage: the process freezes —
sends nothing, hears nothing — and resumes with its state intact.  On the lockstep path the freeze is expressed through the
delivery mask (the process sleeps through the rounds); on the event path
the node's timers are actually paused.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from repro.sim.rng import derive_seed


@dataclass(frozen=True)
class Crash:
    """Process ``pid`` dies at the start of ``at_round``.

    With ``recover_round`` it wakes at the start of that round (state
    intact); without, it is gone for good.  ``final_sends`` optionally
    restricts the dying round's broadcast to a subset of destinations
    (the crash-mid-broadcast adversary; permanent crashes only, and the
    lockstep runner only: :class:`~repro.sync.round_sync.SyncRun`, whose
    nodes crash at a round boundary, refuses such a plan).
    """

    pid: int
    at_round: int
    recover_round: Optional[int] = None
    final_sends: Optional[frozenset[int]] = None

    def down_at(self, round_number: int) -> bool:
        if round_number < self.at_round:
            return False
        return self.recover_round is None or round_number < self.recover_round


@dataclass(frozen=True)
class LossBurst:
    """In every round of ``[start_round, end_round]`` each off-diagonal
    link independently loses its round-k message with probability
    ``drop_prob`` (:meth:`FaultPlan.burst_hits`): one draw per round and
    link, so every message a link sends in one round shares the verdict."""

    start_round: int
    end_round: int
    drop_prob: float = 1.0

    def active_at(self, round_number: int) -> bool:
        return self.start_round <= round_number <= self.end_round


@dataclass(frozen=True)
class Partition:
    """The network splits into ``groups`` for rounds
    ``[start_round, heal_round)``; cross-group messages are lost."""

    groups: tuple[tuple[int, ...], ...]
    start_round: int
    heal_round: int

    def active_at(self, round_number: int) -> bool:
        return self.start_round <= round_number < self.heal_round


@dataclass(frozen=True)
class SlowNode:
    """Node ``pid`` runs degraded during ``[start_round, end_round]``:
    its links' latencies, in either direction, are multiplied by
    ``factor`` (a latency-free :meth:`FaultPlan.mask` refuses it).
    ``drop_prob`` is read by nothing, nor part of equality, hash or
    ``repr``; the benchmark ledger's plans still pass it."""

    pid: int
    start_round: int
    end_round: int
    factor: float = 3.0
    drop_prob: float = field(default=0.8, compare=False, repr=False)

    def active_at(self, round_number: int) -> bool:
        return self.start_round <= round_number <= self.end_round


@dataclass(frozen=True)
class ClockStep:
    """Node ``pid``'s local clock jumps by ``offset`` seconds at the start
    of ``at_round``.  Event path only (the lockstep runner has no clocks):
    a forward step shortens the round in progress, a backward step
    stretches it."""

    pid: int
    at_round: int
    offset: float


@dataclass(frozen=True)
class LeaderChurn:
    """During rounds ``[start_round, end_round]`` the Ω oracle's output
    churns: every round elects a fresh pseudo-random leader."""

    start_round: int
    end_round: int

    def active_at(self, round_number: int) -> bool:
        return self.start_round <= round_number <= self.end_round


class RoundState(NamedTuple):
    """A plan's link-level state in one round (see
    :meth:`FaultPlan.round_state`): who is down (``[pid]``), which links
    an active partition cuts (``[dst, src]``), every node's latency
    multiplier (``[pid]``) and the indices of the live loss bursts."""

    down: np.ndarray
    cross: np.ndarray
    slow: np.ndarray
    bursts: tuple[int, ...]


@dataclass(frozen=True)
class FaultPlan:
    """A full fault scenario for an ``n``-process system.

    The plan is pure data plus deterministic derivations: every question
    an injector asks ("is this link down in round k?", "who leads round
    k?") is answered from ``(seed, question)`` by SHA-256, never from
    shared mutable random state — which is what makes one plan drive the
    lockstep and event-driven runners bit-reproducibly.
    """

    n: int
    crashes: tuple[Crash, ...] = ()
    loss_bursts: tuple[LossBurst, ...] = ()
    partitions: tuple[Partition, ...] = ()
    slow_nodes: tuple[SlowNode, ...] = ()
    clock_steps: tuple[ClockStep, ...] = ()
    leader_churn: tuple[LeaderChurn, ...] = ()
    seed: int = 0

    # ------------------------------------------------------------------
    # Validation.
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("a distributed system needs at least 2 processes")
        crash_pids = {c.pid for c in self.crashes}
        if len(crash_pids) >= (self.n + 1) // 2:
            raise ValueError(
                f"{len(crash_pids)} crashing processes violate the <n/2 "
                f"bound for n={self.n}"
            )
        for crash in self.crashes:
            if not 0 <= crash.pid < self.n:
                raise ValueError(f"crash pid {crash.pid} out of range")
            if crash.at_round < 1:
                raise ValueError("crash rounds are 1-based")
            if crash.final_sends is not None and not all(
                0 <= dst < self.n for dst in crash.final_sends
            ):
                raise ValueError(
                    f"final_sends {sorted(crash.final_sends)} of crash pid "
                    f"{crash.pid} out of range for n={self.n}"
                )
            if crash.recover_round is not None:
                if crash.recover_round <= crash.at_round:
                    raise ValueError("recovery must follow the crash")
                if crash.final_sends is not None:
                    raise ValueError(
                        "final_sends models dying mid-broadcast; a "
                        "recovering process does not die"
                    )
        for burst in self.loss_bursts:
            if burst.start_round < 1 or burst.end_round < burst.start_round:
                raise ValueError(f"bad burst window {burst}")
            if not 0.0 <= burst.drop_prob <= 1.0:
                raise ValueError("drop_prob must be a probability")
        for partition in self.partitions:
            seen: set[int] = set()
            for group in partition.groups:
                for pid in group:
                    if pid in seen:
                        raise ValueError(f"process {pid} in two groups")
                    if not 0 <= pid < self.n:
                        raise ValueError(f"process {pid} out of range")
                    seen.add(pid)
            if seen != set(range(self.n)):
                raise ValueError("partition groups must cover all processes")
            if partition.start_round < 1 or partition.heal_round <= partition.start_round:
                raise ValueError(f"bad partition window {partition}")
        for slow in self.slow_nodes:
            if not 0 <= slow.pid < self.n:
                raise ValueError(f"slow pid {slow.pid} out of range")
            if slow.start_round < 1 or slow.end_round < slow.start_round:
                raise ValueError(f"bad slow-node window {slow}")
            # Written so NaN fails: a NaN latency would poison the
            # simulator clock.
            if not 1.0 <= slow.factor < math.inf:
                raise ValueError("a slow node's factor must be finite and >= 1")
        for step in self.clock_steps:
            if not 0 <= step.pid < self.n:
                raise ValueError(f"clock-step pid {step.pid} out of range")
            if step.at_round < 1:
                raise ValueError("clock-step rounds are 1-based")
            if not math.isfinite(step.offset):
                raise ValueError("clock-step offset must be finite")
        for churn in self.leader_churn:
            if churn.start_round < 1 or churn.end_round < churn.start_round:
                raise ValueError(f"bad churn window {churn}")

    # ------------------------------------------------------------------
    # Deterministic derivations.
    # ------------------------------------------------------------------
    def rng(self, *parts: object) -> np.random.Generator:
        """A generator keyed by ``(seed, question)`` via SHA-256 — the one
        derivation rule of the codebase (:func:`repro.sim.rng.derive_seed`)."""
        name = "faults:" + ":".join(str(part) for part in parts)
        return np.random.default_rng(derive_seed(self.seed, name))

    def down_at(self, pid: int, round_number: int) -> bool:
        """Is ``pid`` dead or frozen at (the start of) this round?"""
        return any(
            c.pid == pid and c.down_at(round_number) for c in self.crashes
        )

    def slow_factor(self, pid: int, round_number: int) -> float:
        """Latency multiplier of ``pid``'s links in this round (event path)."""
        factor = 1.0
        for slow in self.slow_nodes:
            if slow.pid == pid and slow.active_at(round_number):
                factor *= slow.factor
        return factor

    def partitioned(self, src: int, dst: int, round_number: int) -> bool:
        """Does an active partition separate ``src`` from ``dst``?"""
        return any(
            (src in group) != (dst in group)
            for partition in self.partitions
            if partition.active_at(round_number)
            for group in partition.groups
        )

    @cached_property
    def _epochs(self) -> tuple[list[int], dict[int, RoundState]]:
        """:meth:`round_state`'s memo: the sorted window boundaries (the
        first round of every window, and the first round after it) and
        one state per epoch between them, filled on demand.  Not a
        dataclass field, so no part of equality, hashing or ``repr``."""
        bounds = {c.at_round for c in self.crashes}
        bounds |= {c.recover_round for c in self.crashes}
        for partition in self.partitions:
            bounds |= {partition.start_round, partition.heal_round}
        for window in self.loss_bursts + self.slow_nodes:
            bounds |= {window.start_round, window.end_round + 1}
        return sorted(bounds - {None}), {}

    def round_state(self, round_number: int) -> RoundState:
        """The answers of :meth:`down_at`, :meth:`partitioned`,
        :meth:`slow_factor` and the bursts' ``active_at`` for this round,
        tabulated — the one per-round link state every plan consumer
        reads: the wire policy (:class:`~repro.faults.event.PlanLinkFaults`,
        which answers the transport and both batched engines), the
        adaptive scenario's latency view and the deterministic half of
        :meth:`mask`.

        All four are step functions of the round that change only at a
        window boundary, so the table is built once per *epoch* (the
        rounds between two consecutive boundaries) and shared by every
        round of it; treat the arrays as read-only.
        """
        edges, memo = self._epochs
        epoch = bisect_right(edges, round_number)
        state = memo.get(epoch)
        if state is None:
            k, pids = round_number, range(self.n)
            state = memo[epoch] = RoundState(
                down=np.array([self.down_at(pid, k) for pid in pids]),
                cross=np.array(
                    [[self.partitioned(src, dst, k) for src in pids] for dst in pids]
                ),
                slow=np.array([self.slow_factor(pid, k) for pid in pids]),
                bursts=tuple(
                    i for i, b in enumerate(self.loss_bursts) if b.active_at(k)
                ),
            )
        return state

    def round_states(
        self, round_numbers: np.ndarray
    ) -> tuple[list[RoundState], np.ndarray]:
        """:meth:`round_state` for many rounds at once: the distinct
        states among them (one per epoch touched) and, per round, the
        index of its own — for consumers that stack the table as arrays."""
        edges, _ = self._epochs
        _, first, index = np.unique(
            np.searchsorted(edges, round_numbers, side="right"),
            return_index=True,
            return_inverse=True,
        )
        return [self.round_state(int(round_numbers[i])) for i in first], index

    def churning_at(self, round_number: int) -> bool:
        return any(c.active_at(round_number) for c in self.leader_churn)

    def churn_leader(self, round_number: int) -> int:
        """The pseudo-random leader a churn round elects (same for all
        processes — churn changes *who* leads, not agreement on it)."""
        return int(self.rng("churn", round_number).integers(self.n))

    @cached_property
    def _hit_memo(self) -> dict[int, np.ndarray]:
        """:meth:`burst_hits`' memo; like :attr:`_epochs`, no part of
        equality, hashing or ``repr``."""
        return {}

    def burst_hits(self, round_number: int) -> np.ndarray:
        """``[b, dst, src]``: the links each live burst of this round hits
        — ``b`` runs over ``round_state(round_number).bursts``, in index
        order — the one draw of a burst every consumer reads: the wire
        (:class:`~repro.faults.event.PlanLinkFaults`) and :meth:`mask`.

        Block ``b`` is the ``b``-th ``(n, n)`` uniform block of
        ``rng("mask", round)``, below its burst's ``drop_prob``, drawn
        once and memoized; a round without a live burst draws nothing.
        Treat the array as read-only.
        """
        hits = self._hit_memo.get(round_number)
        if hits is None:
            bursts = self.round_state(round_number).bursts
            if not bursts:  # most rounds draw nothing
                return np.zeros((0, self.n, self.n), dtype=bool)
            blocks = self.rng("mask", round_number).random(
                (len(bursts), self.n, self.n)
            )
            drop_probs = [self.loss_bursts[index].drop_prob for index in bursts]
            hits = self._hit_memo[round_number] = (
                blocks < np.reshape(drop_probs, (-1, 1, 1))
            )
        return hits

    def mask(self, round_number: int) -> np.ndarray:
        """Boolean ``[dst, src]`` matrix of messages this round's faults
        force to miss (lockstep view; the diagonal is never masked).

        Deterministic per round: a burst's randomness is the round's one
        draw (:meth:`burst_hits`).  A plan with a slow node is refused:
        the mask has no latencies to delay.
        """
        if self.slow_nodes:
            raise ValueError(
                f"slow node {self.slow_nodes[0].pid} delays messages; the "
                "lockstep mask has no latencies (replay an event run's log)"
            )
        state = self.round_state(round_number)
        masked = state.cross | self.burst_hits(round_number).any(axis=0)
        # Dead and frozen processes alike send and hear nothing, except
        # that a process dying mid-broadcast still reaches its
        # ``final_sends`` in its last round (other faults permitting).
        last_words = [
            (c.pid, sorted(c.final_sends))
            for c in self.crashes
            if c.final_sends and c.at_round == round_number
        ]
        kept = [masked[dsts, pid] | state.down[dsts] for pid, dsts in last_words]
        masked[state.down, :] = True
        masked[:, state.down] = True
        for (pid, dsts), column in zip(last_words, kept):
            masked[dsts, pid] = column
        np.fill_diagonal(masked, False)
        return masked

    def apply_to_matrices(self, matrices: np.ndarray) -> np.ndarray:
        """Faulted copy of a ``[..., round, dst, src]`` delivery-matrix
        stack (round ``k`` is ``matrices[..., k-1, :, :]``), each round's
        :meth:`mask` shared by the leading axes (runs); only the benchmark
        ledger calls it."""
        matrices = np.asarray(matrices)
        masks = np.zeros(matrices.shape[-3:], dtype=bool)
        for index in range(len(masks)):
            masks[index] = self.mask(index + 1)
        faulted = matrices.copy()
        faulted &= ~masks
        diag = np.arange(self.n)
        faulted[..., diag, diag] = matrices[..., diag, diag]
        return faulted

    def correct(self) -> frozenset[int]:
        """Processes that never crash permanently."""
        permanently_dead = {
            c.pid for c in self.crashes if c.recover_round is None
        }
        return frozenset(pid for pid in range(self.n) if pid not in permanently_dead)

    def quiet_after(self) -> int:
        """The last round any fault is active: from the next round on the
        plan no longer perturbs the run (permanent crashes excepted)."""
        last = 0
        for crash in self.crashes:
            if crash.recover_round is not None:
                last = max(last, crash.recover_round - 1)
        for burst in self.loss_bursts:
            last = max(last, burst.end_round)
        for partition in self.partitions:
            last = max(last, partition.heal_round - 1)
        for slow in self.slow_nodes:
            last = max(last, slow.end_round)
        for step in self.clock_steps:
            last = max(last, step.at_round)
        for churn in self.leader_churn:
            last = max(last, churn.end_round)
        return last
