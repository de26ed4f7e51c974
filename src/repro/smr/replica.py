"""The replica group: repeated consensus driving replicated state machines.

Each log slot is one consensus instance, run over the lockstep GIRAF
runner with a pluggable algorithm, schedule and oracle — so the SMR layer
works identically with Algorithm 2 under ◊WLM conditions, the ◊LM/ES/◊AFM
baselines, or Paxos.  One oracle serves all instances (the stable-leader
assumption the paper's analysis relies on).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.check.invariants import InvariantSuite, Violation
from repro.giraf.kernel import GirafAlgorithm
from repro.giraf.oracle import Oracle
from repro.giraf.runner import LockstepRunner
from repro.giraf.schedule import Schedule
from repro.smr.command import Command, noop
from repro.smr.log import ReplicatedLog
from repro.smr.statemachine import StateMachine


@dataclass
class SlotResult:
    """Outcome of one consensus instance.

    Attributes:
        slot: log position decided.
        command: the decided command.
        rounds: rounds the instance ran.
        messages: point-to-point messages the instance sent.
        decided: whether the instance reached global decision within its
            round budget (an undecided instance leaves the slot open).
    """

    slot: int
    command: Optional[Command]
    rounds: int
    messages: int
    decided: bool


#: Builds the consensus algorithm for (pid, n, proposal).
AlgorithmFactory = Callable[[int, int, Any], GirafAlgorithm]
#: Builds a fresh schedule for each consensus instance.
ScheduleFactory = Callable[[int], Schedule]


class ReplicaGroup:
    """``n`` replicas, each with a pending-command queue and a state machine.

    Optional hooks:

    - ``policy`` (e.g. :class:`repro.adaptive.AdaptivePolicy`): consulted
      at the start of every slot via ``policy.begin_slot(slot)``; while a
      policy is installed its ``algorithm_factory`` attribute is used in
      place of the group's own, so the consensus algorithm (and, through
      the policy's schedule/oracle collaborators, the timeout and leader)
      can change *between* instances — never within one.  After the slot,
      ``policy.observe_slot(slot, outcome)`` sees the raw
      :class:`~repro.giraf.runner.RunResult`.
    - ``observers``: attached to every slot's lockstep runner (the usual
      ``on_proposal``/``on_oracle``/``on_decision``/``on_round_matrix``
      hooks), e.g. a timeliness extractor watching delivery matrices.
    - ``invariant_factory``: builds a *fresh*
      :class:`repro.check.InvariantSuite` per slot (one suite across
      slots would flag different slots' different decisions as an
      agreement violation); each suite is attached as a runner observer,
      finished on the slot's result, and its findings accumulate in
      :attr:`violations` — the safety net across switch boundaries.
    """

    def __init__(
        self,
        n: int,
        algorithm_factory: AlgorithmFactory,
        oracle: Oracle,
        schedule_factory: ScheduleFactory,
        state_machine_factory: Callable[[], StateMachine],
        max_rounds_per_instance: int = 200,
        policy: Optional[Any] = None,
        observers: Sequence[Any] = (),
        invariant_factory: Optional[Callable[[int], InvariantSuite]] = None,
    ) -> None:
        if n < 2:
            raise ValueError("need at least 2 replicas")
        self.n = n
        self.algorithm_factory = algorithm_factory
        self.oracle = oracle
        self.schedule_factory = schedule_factory
        self.max_rounds_per_instance = max_rounds_per_instance
        self.policy = policy
        self.observers = list(observers)
        self.invariant_factory = invariant_factory
        self.violations: list[Violation] = []
        self.log = ReplicatedLog()
        self.machines = [state_machine_factory() for _ in range(n)]
        self.pending: list[deque[Command]] = [deque() for _ in range(n)]
        self.applied_results: list[dict[int, Any]] = [dict() for _ in range(n)]
        self.instances_run = 0
        self.total_rounds = 0
        self.total_messages = 0

    def submit(self, replica: int, command: Command) -> None:
        """Enqueue a client command at one replica."""
        if not 0 <= replica < self.n:
            raise ValueError(f"replica {replica} out of range")
        self.pending[replica].append(command)

    @property
    def backlog(self) -> int:
        """Commands submitted but not yet decided."""
        return sum(len(queue) for queue in self.pending)

    def _proposal_for(self, pid: int, slot: int) -> Command:
        """What replica ``pid`` proposes for ``slot``.

        Its own queue head if it has one; otherwise the globally oldest
        pending command (replicas forward clients' commands to each other,
        as real SMR deployments forward to the leader — without this, a
        leader-decides protocol such as Paxos would only ever decide the
        leader's own submissions); otherwise a no-op.
        """
        if self.pending[pid]:
            return self.pending[pid][0]
        candidates = [queue[0] for queue in self.pending if queue]
        if candidates:
            return min(candidates)
        return noop(pid, slot)

    def run_slot(self) -> SlotResult:
        """Run one consensus instance for the next log slot.

        Every replica proposes a pending command (see :meth:`_proposal_for`).
        The decided command is appended to the log and applied on every
        replica's state machine; the proposer that owned it dequeues it.
        """
        slot = self.log.next_slot
        if self.policy is not None:
            # The one legal reconfiguration point: no instance is running.
            self.policy.begin_slot(slot)
        factory = (
            self.policy.algorithm_factory
            if self.policy is not None
            else self.algorithm_factory
        )
        proposals = [self._proposal_for(pid, slot) for pid in range(self.n)]
        schedule = self.schedule_factory(slot)
        suite = (
            self.invariant_factory(slot)
            if self.invariant_factory is not None
            else None
        )
        observers = self.observers + ([suite] if suite is not None else [])
        runner = LockstepRunner(
            self.n,
            lambda pid: factory(pid, self.n, proposals[pid]),
            self.oracle,
            schedule,
            observers=observers,
        )
        outcome = runner.run(max_rounds=self.max_rounds_per_instance)
        self.instances_run += 1
        self.total_rounds += outcome.rounds_executed
        self.total_messages += outcome.messages_sent
        if suite is not None:
            suite.finish(outcome)
            self.violations.extend(suite.violations)
        if self.policy is not None:
            self.policy.observe_slot(slot, outcome)

        if not outcome.all_correct_decided:
            return SlotResult(
                slot=slot,
                command=None,
                rounds=outcome.rounds_executed,
                messages=outcome.messages_sent,
                decided=False,
            )

        if not outcome.agreement_holds():  # defensive; should be impossible
            raise AssertionError(f"agreement violated in slot {slot}")
        decided: Command = next(iter(outcome.decisions.values()))
        self.log.append(decided)
        for pid in range(self.n):
            result = self.machines[pid].apply(decided)
            self.applied_results[pid][slot] = result
            queue = self.pending[pid]
            if queue and queue[0] == decided:
                queue.popleft()
        return SlotResult(
            slot=slot,
            command=decided,
            rounds=outcome.rounds_executed,
            messages=outcome.messages_sent,
            decided=True,
        )

    def run_until_drained(self, max_slots: int = 1000) -> list[SlotResult]:
        """Run instances until every submitted command is decided."""
        results = []
        slots = 0
        while self.backlog > 0:
            if slots >= max_slots:
                raise RuntimeError(
                    f"backlog of {self.backlog} left after {max_slots} slots"
                )
            results.append(self.run_slot())
            slots += 1
        return results

    def consistent(self) -> bool:
        """All replicas' state machines agree (the SMR invariant)."""
        snapshots = [machine.snapshot() for machine in self.machines]
        return all(s == snapshots[0] for s in snapshots)
