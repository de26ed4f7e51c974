"""Safety under adversity, for every algorithm.

Indulgent algorithms must never violate agreement or validity, no matter
how asynchronous the network or how wrong the oracle — even in runs where
they never decide.  These tests throw chaos at all five algorithms.
"""

import pytest

from repro.faults import Crash, FaultPlan
from repro.giraf import (
    IIDSchedule,
    LockstepRunner,
    RotatingLeaderOracle,
    NullOracle,
)
from repro.giraf.oracle import EventuallyStableLeaderOracle, ScriptedOracle
from tests.conftest import ALGORITHMS, assert_safety, make_consensus_run

ALL = sorted(ALGORITHMS)


@pytest.mark.parametrize("name", ALL)
class TestSafetyUnderChaos:
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pure_chaos_never_violates_safety(self, name, p, seed):
        """No stabilization at all: decisions may or may not happen, but
        any that do must agree and be valid."""
        n = 5
        schedule = IIDSchedule(n, p=p, seed=seed)
        oracle = (
            NullOracle()
            if name in ("ES", "AFM")
            else RotatingLeaderOracle(n, period=2)
        )
        runner = LockstepRunner(
            n,
            lambda pid: ALGORITHMS[name](pid, n, (pid + 1) * 10),
            oracle,
            schedule,
        )
        result = runner.run(max_rounds=60)
        assert_safety(result)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_chaos_then_stability_decides_and_agrees(self, name, seed):
        result = make_consensus_run(name, n=5, gsr=10, seed=seed, max_rounds=150)
        assert_safety(result)
        assert result.all_correct_decided

    def test_lying_oracle_cannot_break_agreement(self, name):
        """An oracle that tells every process *it* is the leader."""
        n = 5

        class Egocentric:
            def query(self, pid, round_number):
                return pid

        schedule = IIDSchedule(n, p=0.6, seed=7)
        runner = LockstepRunner(
            n,
            lambda pid: ALGORITHMS[name](pid, n, (pid + 1) * 10),
            Egocentric(),
            schedule,
        )
        result = runner.run(max_rounds=50)
        assert_safety(result)

    def test_identical_proposals_decide_that_value(self, name):
        result = make_consensus_run(
            name, n=5, gsr=6, proposals=[99] * 5, max_rounds=120
        )
        assert_safety(result)
        for value in result.decisions.values():
            assert value == 99


@pytest.mark.parametrize("name", ALL)
class TestSafetyWithCrashes:
    @pytest.mark.parametrize("crash_round", [1, 3, 6])
    def test_minority_crash_before_stability(self, name, crash_round):
        n = 5
        plan = FaultPlan(n, crashes=(Crash(1, crash_round), Crash(4, crash_round + 1)))
        result = make_consensus_run(
            name, n=n, gsr=10, fault_plan=plan, max_rounds=150, leader=0
        )
        assert_safety(result)
        assert result.all_correct_decided

    def test_crash_mid_broadcast(self, name):
        """The classic adversary: a process dies sending to only a subset."""
        n = 5
        plan = FaultPlan(n, crashes=(Crash(2, 4, final_sends=frozenset({0, 1})),))
        result = make_consensus_run(
            name, n=n, gsr=9, fault_plan=plan, max_rounds=150, leader=0
        )
        assert_safety(result)
        assert result.all_correct_decided

    def test_leader_crash_then_new_leader(self, name):
        """The pre-GSR leader crashes; the oracle eventually settles on a
        correct process."""
        if name in ("ES", "AFM"):
            pytest.skip("leaderless algorithm")
        n = 5
        gsr = 8
        plan = FaultPlan(n, crashes=(Crash(0, 4),))
        # Oracle points at crashed 0 before stabilizing on 2.
        script = [[0] * n] * 4 + [[2] * n]
        result = make_consensus_run(
            name,
            n=n,
            gsr=gsr,
            fault_plan=plan,
            leader=2,
            oracle=ScriptedOracle(script),
            max_rounds=150,
        )
        assert_safety(result)
        assert result.all_correct_decided
