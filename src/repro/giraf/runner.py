"""Lockstep execution of GIRAF algorithms, over the one round step.

:class:`RoundMachine` is a GIRAF round (Algorithm 1) given the round's
communication graph; engines differ only in where the graph comes from.
The :class:`LockstepRunner` advances all live processes through
synchronized rounds (the paper makes the same simplification for its
analysis: "we assume that processes proceed in synchronized rounds,
although this is not required for correctness"): round ``k``'s graph is
``schedule.matrix(k)`` with the fault plan's ``mask(k)`` taken out, and
an untimely message is simply lost.  Until the run's GSR the graph may
be arbitrary and the oracle may lie.  The runner instruments everything
the evaluation needs: per-round sent and delivered matrices, message
counts, per-process decision rounds, and the global-decision round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.giraf.kernel import GirafAlgorithm
from repro.giraf.oracle import Oracle
from repro.giraf.process import GirafProcess, notify
from repro.giraf.schedule import Schedule

if TYPE_CHECKING:
    from repro.faults.plan import Crash, FaultPlan


@dataclass
class RunResult:
    """Everything observed during one lockstep run.

    Attributes:
        n: number of processes.
        rounds_executed: index of the last completed round.
        decisions: ``pid -> decided value`` for processes that decided.
        decision_rounds: ``pid -> round`` at which each decision was taken
            (the round whose end-of-round computation wrote ``dec_i``).
        proposals: ``pid -> proposed value`` (for validity checking).
        correct: pids that never crashed.
        messages_sent: total point-to-point transmissions (self excluded).
        sent_matrices: per round, boolean ``A_sent[dst, src]`` of attempted
            transmissions (self-loops marked true for processes that
            produced a message).
        delivered_matrices: per round, boolean matrix of timely deliveries
            among attempted ones (plus self-loops).
        per_round_messages: transmissions per round (stable-state message
            complexity is read off the tail of this list).
    """

    n: int
    rounds_executed: int = 0
    decisions: dict[int, Any] = field(default_factory=dict)
    decision_rounds: dict[int, int] = field(default_factory=dict)
    proposals: dict[int, Any] = field(default_factory=dict)
    correct: frozenset[int] = frozenset()
    messages_sent: int = 0
    sent_matrices: list[np.ndarray] = field(default_factory=list)
    delivered_matrices: list[np.ndarray] = field(default_factory=list)
    per_round_messages: list[int] = field(default_factory=list)

    @property
    def all_correct_decided(self) -> bool:
        """Did every correct process decide?"""
        return all(pid in self.decisions for pid in self.correct)

    @property
    def global_decision_round(self) -> Optional[int]:
        """The round by which every deciding process has decided (paper's
        *global decision*), or ``None`` if no correct process decided."""
        if not self.all_correct_decided or not self.decision_rounds:
            return None
        return max(self.decision_rounds.values())

    def agreement_holds(self) -> bool:
        """No two decided values differ (uniform agreement)."""
        values = list(self.decisions.values())
        return all(v == values[0] for v in values) if values else True

    def validity_holds(self) -> bool:
        """Every decided value was some process's proposal."""
        proposed = set(self.proposals.values())
        return all(value in proposed for value in self.decisions.values())


class RoundMachine:
    """Algorithm 1's round for ``processes`` (indexed by pid) sharing
    ``oracle`` and ``observers``, stated once.  :attr:`decisions` and
    :attr:`decision_rounds` book each pid's first decision and the round
    whose end-of-round took it."""

    def __init__(
        self, processes: Sequence[GirafProcess], oracle: Oracle, observers=()
    ) -> None:
        self.processes = processes
        self.oracle = oracle
        self.observers = observers
        # Implementable detectors (HeartbeatOmega) watch the deliveries.
        self._observe_rows = getattr(oracle, "observe_rows", None)
        self.decisions: dict[int, Any] = {}
        self.decision_rounds: dict[int, int] = {}

    def step(
        self,
        k: int,
        senders: Iterable[int],
        graph: Callable[[int, list], np.ndarray],
        enders: Sequence[int],
    ) -> None:
        """Run round ``k``.  The ``senders`` (who begin it) transmit to
        their :meth:`~repro.giraf.process.GirafProcess.transmit_targets`;
        ``graph(k, sends)``, given one ``(src, destinations, payload)``
        per sender, returns the round's timely graph ``[dst, src]``; the
        timely sends reach :meth:`~repro.giraf.process.GirafProcess.receive`
        in send order; a detector exposing ``observe_rows`` is fed the
        ``enders``' rows; and the enders run their end-of-round in pid
        order.  Round 0, the boot, has no messages: its end-of-round
        initializes."""
        processes = self.processes
        if k:
            n = len(processes)
            sends = []
            for src in senders:
                process = processes[src]
                payload = process.outgoing_payload
                if payload is not None:
                    sends.append((src, process.transmit_targets(n), payload))
            timely = graph(k, sends)
            heard = timely.tolist()
            for src, targets, payload in sends:
                for dst in targets:
                    if heard[dst][src]:
                        processes[dst].receive(k, src, payload)
            if self._observe_rows is not None and enders:
                self._observe_rows(k, timely, rows=enders)
        for pid in enders:
            decision = processes[pid].end_of_round(self.oracle, self.observers)
            if decision is not None and pid not in self.decision_rounds:
                self.decisions[pid] = decision
                self.decision_rounds[pid] = k


class LockstepRunner:
    """Drives ``n`` GIRAF processes through synchronized rounds.

    ``observers`` (e.g. a :class:`repro.check.invariants.InvariantSuite`)
    may implement any subset of ``on_proposal(pid, value)``,
    ``on_oracle(pid, round, output)``,
    ``on_decision(pid, round, value)`` and
    ``on_round_matrix(round, delivered)``; decisions are re-reported every
    round while latched so integrity checkers can see value changes.
    ``on_round_matrix`` fires live, once the round's graph is known —
    the seam timeliness extractors (:mod:`repro.adaptive`) tap without
    being an oracle.

    A ``fault_plan`` (:class:`~repro.faults.plan.FaultPlan`) is the same
    argument :class:`~repro.sync.round_sync.SyncRun` takes: its permanent
    crashes are real process deaths (a dying process still reaches its
    crash's ``final_sends``, then feeds a detector no row), its
    :meth:`~repro.faults.plan.FaultPlan.mask` is taken out of every
    round's timely graph, and its leader-churn windows override the
    oracle.
    """

    def __init__(
        self,
        n: int,
        algorithm_factory: Callable[[int], GirafAlgorithm],
        oracle: Oracle,
        schedule: Schedule,
        fault_plan: Optional[FaultPlan] = None,
        observers: Sequence[Any] = (),
    ) -> None:
        if schedule.n != n:
            raise ValueError(f"schedule is for n={schedule.n}, runner for n={n}")
        self.n = n
        self.schedule = schedule
        self.fault_plan = fault_plan
        # The plan's permanent crashes, by pid: the processes that die.
        self._deaths: dict[int, Crash] = {}
        if fault_plan is not None:
            if fault_plan.n != n:
                raise ValueError(f"fault plan is for n={fault_plan.n}, runner for n={n}")
            self._deaths = {
                c.pid: c for c in fault_plan.crashes if c.recover_round is None
            }
            if fault_plan.leader_churn:
                # Imported here: repro.faults itself imports repro.giraf.
                from repro.faults.lockstep import ChurningOracle

                oracle = ChurningOracle(oracle, fault_plan)
        self.oracle = oracle
        self.observers = list(observers)
        self.processes = [GirafProcess(pid, algorithm_factory(pid)) for pid in range(n)]

    def _dead(self, pid: int, round_number: int) -> bool:
        """Is ``pid`` dead for good at (the start of) this round?"""
        crash = self._deaths.get(pid)
        return crash is not None and round_number >= crash.at_round

    def run(
        self,
        max_rounds: int,
        stop_on_global_decision: bool = True,
        extra_rounds_after_decision: int = 0,
    ) -> RunResult:
        """Execute up to ``max_rounds`` rounds and return the observations.

        Args:
            max_rounds: hard cap on executed rounds.
            stop_on_global_decision: stop once every correct process decided.
            extra_rounds_after_decision: keep running this many rounds past
                global decision (useful to observe stable-state message
                complexity after the protocol quiesces).

        A runner runs once: its processes and oracle carry the run's state.
        """
        if any(proc.round for proc in self.processes):
            raise RuntimeError("this runner has already run; build a new one")
        n = self.n
        correct = frozenset(range(n)).difference(self._deaths)
        result = RunResult(n=n, correct=correct)
        machine = RoundMachine(self.processes, self.oracle, self.observers)
        result.decisions = machine.decisions
        result.decision_rounds = machine.decision_rounds

        def graph(k: int, sends: list) -> np.ndarray:
            """Round ``k``'s schedule minus the plan's mask; books what
            was sent and delivered."""
            timely = self.schedule.matrix(k)
            if self.fault_plan is not None:
                # The plan's mask silences a dead destination's row.
                timely = timely & ~self.fault_plan.mask(k)
            sent = np.eye(n, dtype=bool)
            for src, targets, _ in sends:
                crash = self._deaths.get(src)
                if crash is not None and k == crash.at_round:
                    # Dying mid-broadcast: only its final sends go out.
                    last = crash.final_sends or ()
                    targets = [dst for dst in targets if dst in last]
                sent[targets, src] = True
                result.messages_sent += len(targets)
            delivered = (sent & timely) | np.eye(n, dtype=bool)
            result.per_round_messages.append(int(sent.sum()) - n)
            result.sent_matrices.append(sent)
            result.delivered_matrices.append(delivered)
            notify(self.observers, "on_round_matrix", k, delivered)
            return delivered

        # Round 0: the first end-of-round initializes everyone.
        machine.step(0, (), graph, [p for p in range(n) if not self._dead(p, 1)])
        for proc in self.processes:
            proposal = getattr(proc.algorithm, "proposal", None)
            if proposal is not None:
                notify(self.observers, "on_proposal", proc.pid, proposal)
                result.proposals[proc.pid] = proposal

        decided_deadline: Optional[int] = None
        for k in range(1, max_rounds + 1):
            result.rounds_executed = k
            # A process dying in this very round begins it, for its final
            # sends; it does not end it.
            machine.step(
                k,
                [p for p in range(n) if not self._dead(p, k - 1)],
                graph,
                [p for p in range(n) if not self._dead(p, k)],
            )

            if stop_on_global_decision and result.all_correct_decided:
                if decided_deadline is None:
                    decided_deadline = k + extra_rounds_after_decision
                if k >= decided_deadline:
                    break

        return result
