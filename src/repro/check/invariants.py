"""Runtime invariant checkers for both execution stacks.

An :class:`Invariant` is an observer: the runners feed it proposals,
oracle outputs and decisions *as they happen*, and at the end of a run
it inspects the run's result — a lockstep
:class:`~repro.giraf.runner.RunResult` or an event-driven
:class:`~repro.sync.round_sync.SyncRunResult`, which name the facts the
checkers read (``correct``, ``proposals``, ``decisions``,
``decision_rounds``, ``rounds_executed``) identically.  Violations
accumulate on the checker (and, through an :class:`InvariantSuite`,
increment the ``check.violations`` counter of a :class:`repro.obs`
registry) instead of raising — a conformance run reports every broken
property of a scenario, not just the first.

The checkers cover the paper's guarantees:

- :class:`Agreement` — uniform agreement: no two processes ever decide
  different values (Theorem 10, safety part);
- :class:`Validity` — every decided value was some process's proposal;
- :class:`Integrity` — a process decides at most once: its reported
  decision never changes between rounds;
- :class:`LeaderStability` — from GSR on, all Ω queries of a round
  return the same leader (the eventual-leader-election property the
  leader-based models assume);
- :class:`WlmDecisionBound` — Theorem 10's liveness bound for
  Algorithm 2: global decision within 5 rounds of GSR, within 4 when
  the oracle already holds one round before GSR.

Both runners accept ``observers`` (any object implementing a subset of
the hooks below); :class:`InvariantSuite` bundles checkers into one such
observer and aggregates their findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.obs.registry import MetricsRegistry, registry_or_null

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.giraf.runner import RunResult
    from repro.sync.round_sync import SyncRunResult

    Result = RunResult | SyncRunResult


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to reproduce it."""

    invariant: str
    message: str
    round_number: Optional[int] = None
    pid: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.round_number is not None:
            where.append(f"round {self.round_number}")
        if self.pid is not None:
            where.append(f"pid {self.pid}")
        suffix = f" ({', '.join(where)})" if where else ""
        return f"[{self.invariant}] {self.message}{suffix}"


class Invariant:
    """Base checker: override the hooks you need; report via :meth:`violate`.

    Hooks are best-effort streams — a checker must tolerate seeing the
    same decision many times (the runners re-report latched decisions
    every round, which is exactly what lets :class:`Integrity` notice a
    value changing after the fact).
    """

    name = "invariant"

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self._sink: Optional[Callable[[Violation], None]] = None

    def violate(
        self,
        message: str,
        round_number: Optional[int] = None,
        pid: Optional[int] = None,
    ) -> None:
        violation = Violation(self.name, message, round_number, pid)
        self.violations.append(violation)
        if self._sink is not None:
            self._sink(violation)

    @property
    def ok(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------
    # Observer hooks (no-ops by default).
    # ------------------------------------------------------------------
    def on_proposal(self, pid: int, value: Any) -> None:
        """Process ``pid`` proposed ``value``."""

    def on_oracle(self, pid: int, round_number: int, output: Any) -> None:
        """Process ``pid``'s end-of-round oracle query returned ``output``."""

    def on_decision(self, pid: int, round_number: int, value: Any) -> None:
        """Process ``pid`` reports decision ``value`` at ``round_number``
        (re-reported every round while the decision stays latched)."""

    def on_finish(self, result: Result) -> None:
        """The run ended; inspect its result."""


class Agreement(Invariant):
    """Uniform agreement: no two decided values ever differ — including
    decisions by processes that later crash."""

    name = "agreement"

    def __init__(self) -> None:
        super().__init__()
        self._first: Optional[tuple[int, Any]] = None
        self._flagged: set[int] = set()

    def on_decision(self, pid: int, round_number: int, value: Any) -> None:
        if self._first is None:
            self._first = (pid, value)
            return
        first_pid, first_value = self._first
        if value != first_value and pid not in self._flagged:
            self._flagged.add(pid)
            self.violate(
                f"pid {pid} decided {value!r} but pid {first_pid} decided "
                f"{first_value!r}",
                round_number=round_number,
                pid=pid,
            )

    def on_finish(self, result: Result) -> None:
        # Adapter-only runs (no live hooks): check the final decision map.
        if self._first is None:
            values = list(result.decisions.items())
            for (pid_a, val_a), (pid_b, val_b) in zip(values, values[1:]):
                if val_a != val_b:
                    self.violate(
                        f"pid {pid_b} decided {val_b!r} but pid {pid_a} "
                        f"decided {val_a!r}",
                        pid=pid_b,
                    )


class Validity(Invariant):
    """Every decided value was some process's proposal."""

    name = "validity"

    def __init__(self) -> None:
        super().__init__()
        self._proposals: set[Any] = set()
        self._flagged: set[int] = set()

    def on_proposal(self, pid: int, value: Any) -> None:
        self._proposals.add(value)

    def on_decision(self, pid: int, round_number: int, value: Any) -> None:
        if self._proposals and value not in self._proposals and pid not in self._flagged:
            self._flagged.add(pid)
            self.violate(
                f"pid {pid} decided {value!r}, which nobody proposed",
                round_number=round_number,
                pid=pid,
            )

    def on_finish(self, result: Result) -> None:
        proposed = set(result.proposals.values()) | self._proposals
        if not proposed:
            return
        for pid, value in result.decisions.items():
            if value not in proposed and pid not in self._flagged:
                self._flagged.add(pid)
                self.violate(
                    f"pid {pid} decided {value!r}, which nobody proposed",
                    pid=pid,
                )


class Integrity(Invariant):
    """A process decides at most once: the value it reports never changes."""

    name = "integrity"

    def __init__(self) -> None:
        super().__init__()
        self._decided: dict[int, Any] = {}
        self._flagged: set[int] = set()

    def on_decision(self, pid: int, round_number: int, value: Any) -> None:
        if pid not in self._decided:
            self._decided[pid] = value
        elif self._decided[pid] != value and pid not in self._flagged:
            self._flagged.add(pid)
            self.violate(
                f"pid {pid} changed its decision from "
                f"{self._decided[pid]!r} to {value!r}",
                round_number=round_number,
                pid=pid,
            )


class LeaderStability(Invariant):
    """From round ``gsr`` on, all Ω queries of a round agree on the leader
    (and match ``expected_leader`` when one is designated)."""

    name = "leader-stability"

    def __init__(self, gsr: int, expected_leader: Optional[int] = None) -> None:
        super().__init__()
        if gsr < 0:
            raise ValueError("gsr must be non-negative")
        self.gsr = gsr
        self.expected_leader = expected_leader
        self._round_leaders: dict[int, Any] = {}

    def on_oracle(self, pid: int, round_number: int, output: Any) -> None:
        if round_number < self.gsr or output is None:
            return
        expected = self.expected_leader
        if expected is not None and output != expected:
            self.violate(
                f"pid {pid} saw leader {output!r}, expected {expected!r}",
                round_number=round_number,
                pid=pid,
            )
            return
        seen = self._round_leaders.setdefault(round_number, output)
        if output != seen:
            self.violate(
                f"pid {pid} saw leader {output!r} while another process "
                f"saw {seen!r} in the same round",
                round_number=round_number,
                pid=pid,
            )


class WlmDecisionBound(Invariant):
    """Theorem 10's liveness bound for Algorithm 2 over ◊WLM.

    With the model holding from ``gsr``, every correct process decides by
    round ``gsr + 4`` (global decision within 5 rounds of GSR, GSR
    included); when the oracle's eventual property already holds from
    round ``gsr - 1`` (``leader_stable_early``), by ``gsr + 3``.
    """

    name = "wlm-decision-bound"

    def __init__(self, gsr: int, leader_stable_early: bool = False) -> None:
        super().__init__()
        if gsr < 1:
            raise ValueError("gsr must be at least 1 (rounds are 1-based)")
        self.gsr = gsr
        self.leader_stable_early = leader_stable_early

    @property
    def deadline(self) -> int:
        return self.gsr + (3 if self.leader_stable_early else 4)

    def on_finish(self, result: Result) -> None:
        for pid in sorted(result.correct):
            decided_round = result.decision_rounds.get(pid)
            if decided_round is None:
                if result.rounds_executed < self.deadline:
                    # A run that stopped early (e.g. on global decision of
                    # the others) with this pid undecided cannot certify
                    # the bound either way — flag it rather than pass it.
                    self.violate(
                        f"run ended at round {result.rounds_executed} with "
                        f"pid {pid} undecided, before the deadline "
                        f"{self.deadline} — bound not checkable",
                        pid=pid,
                    )
                else:
                    self.violate(
                        f"correct pid {pid} never decided (deadline was "
                        f"round {self.deadline}, GSR {self.gsr})",
                        pid=pid,
                    )
            elif decided_round > self.deadline:
                self.violate(
                    f"pid {pid} decided at round {decided_round}, after the "
                    f"Theorem 10 deadline GSR+"
                    f"{3 if self.leader_stable_early else 4} = {self.deadline}",
                    round_number=decided_round,
                    pid=pid,
                )


class InvariantSuite:
    """A bundle of checkers acting as one runner observer.

    Violations from any member are mirrored into the ``check.violations``
    counter (labelled by invariant) of the given :class:`repro.obs`
    registry, so sweeps and profiled runs surface broken invariants in
    their telemetry without any extra plumbing.
    """

    def __init__(
        self,
        invariants: Iterable[Invariant],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.invariants: list[Invariant] = list(invariants)
        self._metrics = registry_or_null(metrics)
        for invariant in self.invariants:
            invariant._sink = self._record

    def _record(self, violation: Violation) -> None:
        self._metrics.counter(
            "check.violations", invariant=violation.invariant
        ).inc()

    # ------------------------------------------------------------------
    # Observer hooks (fanned out to every member).
    # ------------------------------------------------------------------
    def on_proposal(self, pid: int, value: Any) -> None:
        for invariant in self.invariants:
            invariant.on_proposal(pid, value)

    def on_oracle(self, pid: int, round_number: int, output: Any) -> None:
        for invariant in self.invariants:
            invariant.on_oracle(pid, round_number, output)

    def on_decision(self, pid: int, round_number: int, value: Any) -> None:
        for invariant in self.invariants:
            invariant.on_decision(pid, round_number, value)

    def finish(self, result: Result) -> list[Violation]:
        """Run every member's end-of-run check; returns all violations."""
        for invariant in self.invariants:
            invariant.on_finish(result)
        return self.violations

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------
    @property
    def violations(self) -> list[Violation]:
        return [v for inv in self.invariants for v in inv.violations]

    @property
    def ok(self) -> bool:
        return not self.violations


def default_suite(metrics: Optional[MetricsRegistry] = None) -> InvariantSuite:
    """The safety checkers every consensus run should carry
    (agreement, validity, integrity); build an :class:`InvariantSuite`
    directly to add scenario-specific ones (e.g. :class:`LeaderStability`
    or :class:`WlmDecisionBound`)."""
    return InvariantSuite([Agreement(), Validity(), Integrity()], metrics=metrics)
