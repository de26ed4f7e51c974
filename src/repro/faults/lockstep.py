"""Fault injection for the lockstep GIRAF runner.

The lockstep runner sees the world as per-round delivery matrices plus a
:class:`~repro.giraf.schedule.CrashPlan`; injecting a
:class:`~repro.faults.plan.FaultPlan` therefore means masking the
matrices (:class:`FaultSchedule`), extracting the permanent crashes
(:meth:`FaultPlan.to_crash_plan`), and perturbing the oracle during
churn windows (:class:`ChurningOracle`).  :func:`inject_lockstep`
bundles the three.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.faults.plan import FaultPlan
from repro.giraf.oracle import Oracle
from repro.giraf.runner import LockstepRunner
from repro.giraf.schedule import CrashPlan, Schedule


class FaultSchedule(Schedule):
    """A base schedule with a :class:`FaultPlan`'s mask applied per round.

    Messages the plan kills are *lost* (not late): bursts, partitions,
    slow-node misses and frozen processes all make the message useless to
    a round-driven algorithm, exactly like the base schedules' losses.
    """

    def __init__(self, base: Schedule, plan: FaultPlan) -> None:
        if base.n != plan.n:
            raise ValueError(
                f"schedule is for n={base.n}, plan for n={plan.n}"
            )
        super().__init__(base.n)
        self._base = base
        self.plan = plan

    def matrix(self, round_number: int) -> np.ndarray:
        mask = self._per_round(round_number, self.plan.mask)
        matrix = self._base.matrix(round_number) & ~mask
        np.fill_diagonal(matrix, True)
        return matrix

    def delivered_round(
        self, round_number: int, src: int, dst: int
    ) -> Optional[int]:
        if self._per_round(round_number, self.plan.mask)[dst, src]:
            return None
        return self._base.delivered_round(round_number, src, dst)


class ChurningOracle(Oracle):
    """Wraps an oracle; during churn windows every round elects a fresh
    pseudo-random leader (the same one for every querying process)."""

    def __init__(self, base: Oracle, plan: FaultPlan) -> None:
        #: The wrapped oracle (see :func:`base_oracle`).
        self.base = base
        self.plan = plan

    def query(self, pid: int, round_number: int) -> Any:
        if self.plan.churning_at(round_number):
            return self.plan.churn_leader(round_number)
        return self.base.query(pid, round_number)

    def replay(self, timely: np.ndarray, ended: Sequence[int]) -> np.ndarray:
        """A whole run's feed and queries at once (see
        :meth:`repro.oracles.omega.HeartbeatOmega.replay`, whose table
        this returns): the base detector observes every round but is not
        asked in the churn rounds — :meth:`query` never forwards those —
        and every receiver that did ask in one gets its churn leader."""
        rounds = np.arange(len(timely) + 1)
        churning = np.zeros(len(rounds), dtype=bool)
        for churn in self.plan.leader_churn:
            churning[churn.start_round : churn.end_round + 1] = True
        leaders = self.base.replay(timely, ended, churning)
        asked = rounds[:, None] <= np.asarray(ended)
        for k in np.flatnonzero(churning).tolist():
            leaders[k, asked[k]] = self.plan.churn_leader(k)
        return leaders

    def __getattr__(self, name: str):
        # Churn perturbs queries, never observations: the base detector's
        # feeds pass straight through.  Only exposed when the base has
        # them, so feature probes (``getattr(oracle, "observe_rows",
        # None)``) stay accurate.
        if name in ("observe", "observe_rows"):
            return getattr(self.base, name)
        raise AttributeError(name)


def base_oracle(oracle: Oracle) -> Oracle:
    """``oracle`` itself, or the detector a :class:`ChurningOracle` wraps
    — for callers that must know what kind of oracle answers outside the
    churn windows."""
    return oracle.base if isinstance(oracle, ChurningOracle) else oracle


def inject_lockstep(
    plan: FaultPlan, schedule: Schedule, oracle: Oracle
) -> tuple[FaultSchedule, Oracle, CrashPlan]:
    """The three lockstep ingredients a plan implies, ready for
    :class:`~repro.giraf.runner.LockstepRunner`."""
    wrapped_oracle: Oracle = oracle
    if plan.leader_churn:
        wrapped_oracle = ChurningOracle(oracle, plan)
    return FaultSchedule(schedule, plan), wrapped_oracle, plan.to_crash_plan()


def faulty_lockstep_runner(
    plan: FaultPlan,
    algorithm_factory,
    oracle: Oracle,
    schedule: Schedule,
) -> LockstepRunner:
    """A :class:`LockstepRunner` with the whole plan injected."""
    fault_schedule, wrapped_oracle, crash_plan = inject_lockstep(
        plan, schedule, oracle
    )
    return LockstepRunner(
        plan.n,
        algorithm_factory,
        wrapped_oracle,
        fault_schedule,
        crash_plan=crash_plan,
    )
