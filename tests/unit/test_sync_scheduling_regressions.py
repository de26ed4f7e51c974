"""Regression tests for ``SyncRun`` scheduling assumptions.

Two bugs shared one root cause: quantities that must be derived per node
(the default time limit, the clock-step scheduling hair) were derived
from ``nodes[0]``'s construction-time timeout, silently assuming
homogeneous timeouts.  Both tests mutate per-node timeouts after
construction — the supported way to build a heterogeneous run — and fail
on the pre-fix code.
"""

import numpy as np
import pytest

from repro.faults.plan import ClockStep, FaultPlan
from repro.giraf.kernel import GirafAlgorithm, RoundOutput
from repro.giraf.oracle import NullOracle
from repro.net.iid import BernoulliLinkModel
from repro.sim import Transport
from repro.sync import SyncRun


class SilentAlgorithm(GirafAlgorithm):
    """Computes rounds but never sends: each node paces itself purely by
    its own timer, so a slow node can never be rescued by a jump on a
    faster node's future-round message — exactly the case that exposes a
    time limit derived from the wrong node's timeout."""

    def initialize(self, oracle_output):
        return RoundOutput(None, frozenset())

    def compute(self, round_number, messages, oracle_output):
        return RoundOutput(None, frozenset())


def silent_run(n=2, timeout=0.1, max_rounds=20, fault_plan=None):
    table = np.zeros((n, n))
    return SyncRun(
        n,
        lambda pid: SilentAlgorithm(),
        NullOracle(),
        lambda sim: Transport(sim, BernoulliLinkModel(n, p=1.0, timeout=timeout)),
        timeout=timeout,
        latency_table=table,
        max_rounds=max_rounds,
        fault_plan=fault_plan,
    )


def last_ended(run, pid):
    """The last round ``pid`` ended, read off the run's log."""
    return int(np.flatnonzero(~np.isnan(run.log.ends[:, pid])).max())


class TestDefaultTimeLimit:
    def test_slowest_node_finishes_with_heterogeneous_timeouts(self):
        # Node 1's rounds are 10x longer than node 0's.  A default time
        # limit derived from nodes[0].timeout alone once truncated node 1
        # mid-run; a run has no time limit now, and the slowest node must
        # still finish every round.
        run = silent_run(timeout=0.1, max_rounds=20)
        run.nodes[1].timeout = 1.0
        result = run.run()
        assert last_ended(run, 1) == 20
        assert len(result.matrices) == 20

    def test_order_of_slow_node_does_not_matter(self):
        # Same scenario with the slow node first: nodes[0]'s timeout is
        # now the large one, so the old derivation happened to work; a
        # run without a limit must too.
        run = silent_run(timeout=0.1, max_rounds=20)
        run.nodes[0].timeout = 1.0
        result = run.run()
        assert last_ended(run, 0) == 20
        assert len(result.matrices) == 20


class TestClockStepScheduling:
    def test_step_hair_uses_the_stepped_nodes_own_timeout(self):
        # Construction timeout 0.1 puts the plan's round-2 boundary at
        # t=0.1; node 1's own timeout of 0.101 puts its round-1/round-2
        # boundary at t=0.101 — exactly where the old hair
        # (0.01 * construction timeout) landed the fault event.  There
        # the fault fires before node 1's round-1 timer (faults are
        # booked before the boots run, so they carry earlier sequence
        # numbers), and the backward step stretched the *expiring*
        # round 1 instead of round 2.
        run = silent_run(
            timeout=0.1,
            max_rounds=5,
            fault_plan=FaultPlan(
                n=2, clock_steps=(ClockStep(pid=1, at_round=2, offset=-0.05),)
            ),
        )
        run.nodes[1].timeout = 0.101
        run.run()
        # Round 1 must end on time; the step belongs to round 2.
        assert run.log.ends[1, 1] == pytest.approx(0.101)
        assert run.log.ends[2, 1] == pytest.approx(0.101 + 0.101 + 0.05)

    def test_homogeneous_step_behaviour_unchanged(self):
        # The baseline case the old code handled: uniform timeouts, a
        # forward step shortens the targeted round.
        run = silent_run(
            timeout=0.1,
            max_rounds=5,
            fault_plan=FaultPlan(
                n=2, clock_steps=(ClockStep(pid=1, at_round=2, offset=0.04),)
            ),
        )
        run.run()
        assert run.log.ends[1, 1] == pytest.approx(0.1)
        assert run.log.ends[2, 1] == pytest.approx(0.2 - 0.04)
