"""Event-driven implementation of the round-synchronization protocol.

One :class:`SyncedNode` per process runs GIRAF over the simulated
transport.  The paper's two threads map onto event handlers:

- the *receive* path records every current- or future-round message
  (counting one for a round already over as late) and, on a
  future-round message, notifies the round driver;
- the *round driver* starts each round by transmitting, waits out the
  (local-clock) timeout, then fires the end-of-round; on a future-round
  notification it ends the round early, jumps, and shortens the joined
  round by the expected latency ``L_i[src]``.

:class:`SyncRun` wires ``n`` nodes, staggered starts and skewed clocks
included, and runs the simulator.  What each round delivered is written
once, into the run's :class:`RoundLog`, and the collector condenses that
log into per-round delivery matrices comparable with the lockstep ones.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.faults.event import PlanLinkFaults
from repro.faults.lockstep import ChurningOracle
from repro.faults.plan import FaultPlan
from repro.giraf.kernel import GirafAlgorithm
from repro.giraf.oracle import Oracle
from repro.giraf.process import GirafProcess, notify
from repro.obs.registry import MetricsRegistry, registry_or_null
from repro.sim.clock import Clock
from repro.sim.events import Event, Simulator
from repro.sim.transport import Transport


@dataclass(frozen=True, slots=True)
class _Wire:
    """What actually travels on the wire: the round number plus payload."""

    round_number: int
    payload: Any


#: Fraction of the timeout used as the floor of a shortened (joined) round,
#: so a latency estimate larger than the timeout cannot produce a
#: zero-length or negative round.
MIN_ROUND_FRACTION = 0.05


class RoundLog:
    """What each round of one run delivered: the run's only record of it.

    Row ``k`` is round ``k`` (row 0, the boot round no node ever begins,
    stays blank, as do the rows past :attr:`rounds`):

    - ``starts[k, pid]`` / ``ends[k, pid]`` — the instant ``pid`` began /
      ended round ``k``; ``nan`` if it never did (it jumped over the
      round, was crashed, or the run stopped first);
    - ``timely[k, dst, src]`` — ``dst`` received ``src``'s round-``k``
      message while in round ``k``; a node is timely to itself in every
      round it begins.

    Both engines write it — :class:`SyncedNode` cell by cell as its
    events fire, :func:`repro.sync.batch.run_batched` as whole arrays or
    round by round —
    and everything downstream (the collector, the Ω detector's feed, the
    scalar ≡ batch contract) reads nothing else.
    """

    def __init__(self, n: int) -> None:
        #: The number of nodes in the run.
        self.n = n
        #: The highest round any node has reached.
        self.rounds = 0
        #: How many nodes have left the run for good (ran past their
        #: ``max_rounds``, or crashed permanently): all ``n`` = run over.
        self.stopped = 0
        self.starts = np.full((1, n), np.nan)
        self.ends = np.full((1, n), np.nan)
        self.timely = np.zeros((1, n, n), dtype=bool)

    def reach(self, k: int) -> None:
        """Make round ``k`` writable.  The arrays grow (doubling) with the
        rounds a run reaches, not with its ``max_rounds``."""
        self.rounds = max(self.rounds, k)
        while k >= len(self.starts):
            blank = np.full_like(self.starts, np.nan)
            self.starts = np.concatenate([self.starts, blank])
            self.ends = np.concatenate([self.ends, blank])
            self.timely = np.concatenate([self.timely, np.zeros_like(self.timely)])


class SyncedNode:
    """One process running GIRAF under the Section 5.1 protocol."""

    def __init__(
        self,
        process: GirafProcess,
        oracle: Oracle,
        transport: Transport,
        simulator: Simulator,
        clock: Clock,
        timeout: float,
        latency_estimates: Sequence[float],
        log: RoundLog,
        start_time: float = 0.0,
        max_rounds: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        observers: Sequence[Any] = (),
    ) -> None:
        self.process = process
        self.oracle = oracle
        # A proxy: the transport's handler table refers back to this
        # node, and a strong reference here would close a cycle that keeps
        # a finished run alive until the garbage collector's next full
        # pass.  Whoever builds the node (:class:`SyncRun`) owns the transport.
        self.transport = weakref.proxy(transport)
        self.simulator = simulator
        self.clock = clock
        self.timeout = timeout
        self.latency_estimates = list(latency_estimates)
        #: Where this node's round observations go (the run's one log).
        self.log = log
        self.start_time = start_time
        self.max_rounds = max_rounds
        self._metrics = registry_or_null(metrics)
        self._rounds_started = self._metrics.counter("sync.rounds_started")
        self._rounds_jumped = self._metrics.counter("sync.rounds_jumped")
        self._rounds_shortened = self._metrics.counter("sync.rounds_shortened")
        self._timeout_fires = self._metrics.counter("sync.timeout_fires")
        self._late_counter = self._metrics.counter("sync.late_messages")
        self._timer: Optional[Event] = None
        self._observers = list(observers)
        self.running = False
        self.crashed = False
        self.crashed_permanently = False
        # Observations the log does not hold.
        self.late_messages = 0
        self.jumps = 0
        self.decision_round: Optional[int] = None

        transport.register(process.pid, self._on_receive)
        simulator.schedule(start_time, self._boot)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def _boot(self) -> None:
        self.running = True
        self._end_round()
        self._begin_round(self.timeout)

    def round_length(self, local_duration: float) -> float:
        """Global-time length of a round meant to last ``local_duration``
        on the local clock: floored at :data:`MIN_ROUND_FRACTION` of the
        timeout, then mapped through the clock's drift.  Both engines
        read every round boundary off this one expression."""
        return self.clock.global_duration(
            max(local_duration, MIN_ROUND_FRACTION * self.timeout)
        )

    def _begin_round(self, local_duration: float) -> None:
        k = self.process.round
        if self.max_rounds is not None and k > self.max_rounds:
            self._stop()
            return
        pid = self.process.pid
        self.log.reach(k)
        self.log.starts[k, pid] = self.simulator.now
        self.log.timely[k, pid, pid] = True
        self._rounds_started.inc()
        if local_duration < self.timeout:
            self._rounds_shortened.inc()
        payload = self.process.outgoing_payload
        if payload is not None:
            targets = self.process.transmit_targets(self.log.n)
            self.transport.broadcast(pid, targets, _Wire(k, payload))
        self._timer = self.simulator.schedule_in(
            self.round_length(local_duration), self._on_timer
        )

    def _stop(self) -> None:
        """Leave the run for good — the one place ``running`` goes from
        ``True`` to ``False``.  The last node to leave stops the simulator."""
        self.running = False
        self.log.stopped += 1
        if self.log.stopped == self.log.n:
            self.simulator.stop()

    def _end_round(self, next_round: Optional[int] = None) -> None:
        k = self.process.round
        if k:  # round 0, the boot, has no round to close
            pid = self.process.pid
            self.log.ends[k, pid] = self.simulator.now
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            # Heartbeat-style detectors (HeartbeatOmega) take each node's
            # round observation live, the moment the round ends — the
            # round step's feed of its enders' rows, one ender at a time.
            # Only this node's row of the round is final by now; detectors
            # exposing the feed are row-local by contract.
            observe_rows = getattr(self.oracle, "observe_rows", None)
            if observe_rows is not None:
                observe_rows(k, self.log.timely[k], rows=(pid,))
        decision = self.process.end_of_round(self.oracle, self._observers, next_round)
        if decision is not None and self.decision_round is None:
            self.decision_round = k

    def _on_timer(self) -> None:
        if not self.running or self.crashed:
            return
        self._timer = None
        self._timeout_fires.inc()
        self._end_round()
        self._begin_round(self.timeout)

    # ------------------------------------------------------------------
    # Fault hooks (driven by :class:`SyncRun` from a ``FaultPlan``).
    # ------------------------------------------------------------------
    def crash(self, permanent: bool = False) -> None:
        """Freeze the node: no sends, receives, timers, or computation.

        A permanent crash also ends the node's run; a transient one keeps
        its state for :meth:`recover` (crash-recovery with stable storage).
        """
        if not self.running:
            return
        self.crashed = True
        if permanent:
            self.crashed_permanently = True
            self._stop()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def recover(self) -> None:
        """Wake a transiently crashed node; it restarts its current round
        (resending that round's messages) and resynchronizes by jumping on
        the first future-round message it hears."""
        if not self.crashed or not self.running:
            return
        self.crashed = False
        self._begin_round(self.timeout)

    def apply_clock_step(self, delta_local: float) -> None:
        """The local clock jumps by ``delta_local`` seconds.

        Deadlines are local, so a pending round timer fires earlier after
        a forward jump and later after a backward one; the round-length
        floor still applies.
        """
        if self._timer is None or not self.running or self.crashed:
            return
        remaining = self._timer.time - self.simulator.now
        remaining -= self.clock.global_duration(delta_local)
        self._timer.cancel()
        self._timer = self.simulator.schedule_in(max(0.0, remaining), self._on_timer)

    # ------------------------------------------------------------------
    # Receive path.
    # ------------------------------------------------------------------
    def _on_receive(self, src: int, wire: _Wire) -> None:
        if not self.running or self.crashed:
            return
        self.process.receive(wire.round_number, src, wire.payload)
        current = self.process.round
        if wire.round_number == current:
            self.log.timely[current, self.process.pid, src] = True
        elif wire.round_number > current:
            # Future-round message: end this round now, join round k_j,
            # and shorten it by the expected latency of the trigger.
            self.jumps += 1
            self._rounds_jumped.inc()
            self._end_round(next_round=wire.round_number)
            self._begin_round(self.timeout - self.latency_estimates[src])
            if self.running:  # it did join: the trigger was in time for it
                self.log.timely[wire.round_number, self.process.pid, src] = True
        else:
            self.late_messages += 1
            self._late_counter.inc()


@dataclass
class SyncRunResult:
    """Observations of one synchronized run.

    Attributes:
        n: number of nodes.
        matrices: per-round timely-delivery matrices ``A[dst, src]`` for
            rounds ``1..last_common_round``.  A process that skipped a
            round (jumped over it, or was crashed) contributes an
            all-``False`` row — including its diagonal entry, since it was
            not timely even to itself in a round it never executed.
        round_durations: per node, mean executed round duration (seconds).
        jumps: per node, number of fast-forward joins.
        late_messages: per node, messages that arrived after their round.
        decisions: ``pid -> value`` for deciding algorithms.
        decision_rounds: ``pid -> round`` at which each decision was
            first observed (the round whose end-of-round computed it).
        proposals: ``pid -> proposed value`` for algorithms that expose
            a ``proposal`` attribute (for validity checking).
        correct: pids that never crash permanently (everyone when the
            run has no fault plan).
        sync_error: per round, the spread (max - min) of the nodes'
            round-start times, in seconds — the synchronization quality.
            Aligned with ``matrices`` (index ``k - 1`` is round ``k``);
            rounds that not every node executed hold ``nan``, so a jump
            can never shift later rounds' readings onto the wrong round.
    """

    n: int
    matrices: list[np.ndarray] = field(default_factory=list)
    round_durations: list[float] = field(default_factory=list)
    jumps: list[int] = field(default_factory=list)
    late_messages: list[int] = field(default_factory=list)
    decisions: dict[int, Any] = field(default_factory=dict)
    decision_rounds: dict[int, int] = field(default_factory=dict)
    proposals: dict[int, Any] = field(default_factory=dict)
    correct: frozenset[int] = frozenset()
    sync_error: list[float] = field(default_factory=list)

    @property
    def rounds_executed(self) -> int:
        """Index of the last round every surviving node completed — the
        name :class:`~repro.giraf.runner.RunResult` gives the same fact,
        so one checker reads either stack's result."""
        return len(self.matrices)


class SyncRun:
    """Builds and executes a full synchronized GIRAF deployment."""

    def __init__(
        self,
        n: int,
        algorithm_factory: Callable[[int], GirafAlgorithm],
        oracle: Oracle,
        transport_factory: Callable[[Simulator], Transport],
        timeout: float,
        latency_table: np.ndarray,
        clocks: Optional[Sequence[Clock]] = None,
        start_times: Optional[Sequence[float]] = None,
        max_rounds: int = 100,
        fault_plan: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        observers: Sequence[Any] = (),
    ) -> None:
        if clocks is None:
            clocks = [Clock() for _ in range(n)]
        if start_times is None:
            start_times = [0.0] * n
        # Checked here, once, for both engines: each of these used to
        # surface as a different exception (or a silently empty result)
        # depending on which engine the run happened to take.
        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"timeout must be finite and positive: {timeout!r}")
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1: {max_rounds!r}")
        if np.shape(latency_table) != (n, n):
            raise ValueError(f"latency_table must have shape ({n}, {n})")
        if not (np.asarray(latency_table) >= 0).all():  # +inf: a dead link
            raise ValueError("latency_table entries must be non-negative, not NaN")
        if len(clocks) != n or len(start_times) != n:
            raise ValueError(f"need {n} clocks and {n} start times")
        if not all(math.isfinite(t) and t >= 0 for t in start_times):
            raise ValueError("start times must be finite and non-negative")
        self.n = n
        self.max_rounds = max_rounds
        self.fault_plan = fault_plan
        self.observers = list(observers)
        self.metrics = registry_or_null(metrics)
        self.simulator = Simulator()
        self.transport = transport_factory(self.simulator)
        #: What each round delivered — written by whichever engine
        #: executes the run, read by :meth:`_collect`.
        self.log = RoundLog(n)
        #: The run's link-level fault policy (``None`` without a plan);
        #: the run owns it and hands it to its transport.
        self.link_faults: Optional[PlanLinkFaults] = None
        if fault_plan is not None:
            if fault_plan.n != n:
                raise ValueError(
                    f"fault plan is for n={fault_plan.n}, run for n={n}"
                )
            # Both engines crash a node at a round boundary, before it
            # sends; a partial final broadcast is the lockstep runner's
            # alone, and running it as a plain crash would be silent.
            for crash in fault_plan.crashes:
                if crash.final_sends is not None:
                    raise ValueError(
                        f"{crash} dies mid-broadcast (final_sends): the "
                        "event-driven stack crashes at round boundaries only"
                    )
            # Link-level faults (bursts, partitions, slow links, frozen
            # peers) ride on the wire.  The policy also owns the plan's
            # round <-> time mapping, anchored to this construction-time
            # timeout whatever the nodes' timeouts are changed to later.
            self.link_faults = PlanLinkFaults(
                fault_plan, timeout, metrics=metrics
            )
            self.transport.faults = self.link_faults
            if fault_plan.leader_churn:
                oracle = ChurningOracle(oracle, fault_plan)
        self.nodes = [
            SyncedNode(
                process=GirafProcess(pid, algorithm_factory(pid)),
                oracle=oracle,
                transport=self.transport,
                simulator=self.simulator,
                clock=clocks[pid],
                timeout=timeout,
                latency_estimates=latency_table[pid],
                log=self.log,
                start_time=start_times[pid],
                max_rounds=max_rounds,
                metrics=metrics,
                observers=self.observers,
            )
            for pid in range(n)
        ]
        for node in self.nodes:
            proposal = getattr(node.process.algorithm, "proposal", None)
            if proposal is not None:
                notify(self.observers, "on_proposal", node.process.pid, proposal)
        # Node-level faults are booked at run(), not here, so per-node
        # state mutated in between (heterogeneous timeouts in particular)
        # is respected.
        self._faults_scheduled = False
        #: Which execution path the last :meth:`run` took ("scalar" or
        #: "batch"), and why the batched path was skipped, if it was.
        self.executed_mode: Optional[str] = None
        self.fallback_reason: Optional[str] = None

    def _schedule_node_faults(self) -> None:
        """Book the plan's node-level faults on the simulator clock."""
        at = self.link_faults.start_of

        def book(time, kind, action) -> None:
            def fire() -> None:
                self.metrics.counter("faults.activations", kind=kind).inc()
                action()

            self.simulator.schedule(time, fire)

        for crash in self.fault_plan.crashes:
            node = self.nodes[crash.pid]
            permanent = crash.recover_round is None
            book(at(crash.at_round), "crash", partial(node.crash, permanent))
            if not permanent:
                book(at(crash.recover_round), "recover", node.recover)
        for step in self.fault_plan.clock_steps:
            # A hair into the round, not on the boundary: at the exact
            # round start the previous round's timer is expiring at the
            # same timestamp, and a step applied to a timer with zero
            # remaining time is a silent no-op.  The hair is a fraction
            # of the *stepped node's own* timeout — with heterogeneous
            # timeouts, a fraction of another node's (shorter) round can
            # still land exactly on this node's boundary.
            node = self.nodes[step.pid]
            book(
                at(step.at_round) + 0.01 * node.timeout,
                "clock-step",
                partial(node.apply_clock_step, step.offset),
            )

    def run(self, mode: str = "auto") -> SyncRunResult:
        """Run until every node has passed ``max_rounds`` or crashed for good.

        There is no time limit: the run always ends.  Every round ends,
        by a jump or by its timer, and a timer fires at least
        :data:`MIN_ROUND_FRACTION` of the timeout of local time later on
        a clock whose drift is above −1; a transient crash always has its
        recovery booked.

        ``mode`` selects the execution path:

        - ``"auto"`` (default): use the batched path
          (:mod:`repro.sync.batch`) when the run is eligible — a stock
          run of any algorithm under any oracle over a batch-capable
          time-invariant link model, lockstep-uniform nodes, with or
          without a fault plan of permanent crashes, bursts, partitions,
          slow nodes and churn, live metrics and observers
          (:func:`~repro.sync.batch.batch_eligibility` is the rule: five
          named reasons and ``"not a stock run"`` keep a run off it) —
          and fall back to the scalar event loop otherwise
          (``fallback_reason`` says why);
        - ``"scalar"``: always run the event loop (the reference path).

        Both paths produce bit-identical :class:`SyncRunResult`s; the
        property suite and the conformance axis assert it.
        """
        if mode not in ("auto", "scalar"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode != "scalar":
            from repro.sync.batch import batch_eligibility, run_batched

            reason = batch_eligibility(self)
            if reason is None:
                self.executed_mode = "batch"
                self.fallback_reason = None
                self.metrics.counter(
                    "sync.executed_mode", mode="batch"
                ).inc()
                # The batched path applies the plan's node-level faults
                # in closed form; they are spent, as if booked.
                self._faults_scheduled = True
                run_batched(self)
                return self._collect()
            self.fallback_reason = reason
            # The fallback taxonomy, as telemetry: one increment per run
            # that wanted the fast path and couldn't take it.
            self.metrics.counter("sync.batch_fallback", reason=reason).inc()
        self.executed_mode = "scalar"
        self.metrics.counter("sync.executed_mode", mode="scalar").inc()
        if self.fault_plan is not None and not self._faults_scheduled:
            self._faults_scheduled = True
            self._schedule_node_faults()
        # The node whose ``_stop`` ends the run stops the simulator, so
        # "done" requires having started, and no event fires after it.
        self.simulator.run()
        # What never fired (deliveries in flight, faults booked past the
        # end) never will: both engines end on an empty queue, so a
        # finished run holds no event that refers back to it.
        self.simulator.drain()
        return self._collect()

    def _collect(self) -> SyncRunResult:
        result = SyncRunResult(
            n=self.n,
            correct=(
                self.fault_plan.correct()
                if self.fault_plan is not None
                else frozenset(range(self.n))
            ),
        )
        log = self.log
        ended = ~np.isnan(log.ends)
        # Permanently crashed nodes stop recording rounds at their crash;
        # they must not truncate the surviving nodes' observations.
        participants = [
            pid
            for pid, node in enumerate(self.nodes)
            if not node.crashed_permanently
        ] or list(range(self.n))
        last_ended = (ended * np.arange(len(ended))[:, None]).max(axis=0)
        last = int(last_ended[participants].min())
        # A row counts only for a node that *executed* round k (ended it):
        # one that jumped over the round, or crashed in it for good after
        # beginning it, was not timely even to itself there, and crediting
        # it would inflate P_M.  Nodes that did execute it credited
        # themselves when it began.
        result.matrices = list(
            log.timely[1 : last + 1] & ended[1 : last + 1, :, None]
        )
        # The event path assembles matrices post-hoc, so observers'
        # ``on_round_matrix`` hooks fire here as a replay after the
        # simulation ends — same stream as the lockstep runner's live
        # notifications, delivered late.
        for k, matrix in enumerate(result.matrices, start=1):
            notify(self.observers, "on_round_matrix", k, matrix)
        # One entry per round, aligned with ``matrices``: rounds some
        # node never started are nan rather than silently dropped
        # (dropping them shifted every later reading onto the wrong
        # round for any run with jumps).
        starts = log.starts[1 : last + 1]
        spread = starts.max(axis=1) - starts.min(axis=1)
        result.sync_error = spread.tolist()
        measured = spread[~np.isnan(spread)]
        if measured.size:
            self.metrics.histogram("sync.round_sync_error").observe_many(measured)
        # Per node, the rounds it both began and ended, in round order.
        for node, lengths in zip(self.nodes, (log.ends - log.starts).T):
            lengths = lengths[~np.isnan(lengths)]
            result.round_durations.append(
                float(lengths.mean()) if lengths.size else 0.0
            )
            result.jumps.append(node.jumps)
            result.late_messages.append(node.late_messages)
            proposal = getattr(node.process.algorithm, "proposal", None)
            if proposal is not None:
                result.proposals[node.process.pid] = proposal
            decision = node.process.decision()
            if decision is not None:
                result.decisions[node.process.pid] = decision
                if node.decision_round is not None:
                    result.decision_rounds[node.process.pid] = (
                        node.decision_round
                    )
        return result
