"""A fault plan's leader churn, as an oracle: :class:`ChurningOracle`.

:class:`~repro.giraf.runner.LockstepRunner` and
:class:`~repro.sync.round_sync.SyncRun` both take a
:class:`~repro.faults.plan.FaultPlan` directly and wrap their oracle in a
:class:`ChurningOracle` when the plan has churn windows;
:func:`base_oracle` unwraps it again.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.faults.plan import FaultPlan
from repro.giraf.oracle import Oracle


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
        # feed passes straight through.  Only exposed when the base has
        # it, so feature probes (``getattr(oracle, "observe_rows",
        # None)``) stay accurate.
        if name == "observe_rows":
            return getattr(self.base, name)
        raise AttributeError(name)


def base_oracle(oracle: Oracle) -> Oracle:
    """``oracle`` itself, or the detector a :class:`ChurningOracle` wraps
    — for callers that must know what kind of oracle answers outside the
    churn windows."""
    return oracle.base if isinstance(oracle, ChurningOracle) else oracle
