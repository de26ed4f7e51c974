"""On the round grid the lockstep runner is the event stack.

Take a run the batched engine executes on the common round grid, restore
the diagonal of its timely log and replay that log on the lockstep runner
(:func:`repro.check.differential.lockstep_replay`), installing only the
plan's node faults: the wire's losses are already in the log.  Every
process then takes the same decision in the same round, whatever the
algorithm, under a fixed leader or the heartbeat-elected one, through
permanent crashes, loss bursts, partitions, slow nodes and leader churn.
A burst is drawn once, by the plan, so its mask on top of the log loses
nothing the wire kept: the plan without its slow nodes replays the run
as well.  Both halves of the replay matter: the slow nodes' mask on top
of the log loses messages twice, and a log without its diagonal is no
schedule.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.check.differential import lockstep_replay
from repro.faults import Crash, FaultPlan, LossBurst, SlowNode
from repro.giraf.oracle import FixedLeaderOracle
from repro.giraf.runner import LockstepRunner
from repro.giraf.schedule import MatrixSchedule
from repro.net import uniform_wan_profile
from repro.oracles.omega import HeartbeatOmega
from repro.sim import Transport
from repro.sync import SyncRun
from tests.properties.test_prop_slot_order import FACTORIES
from tests.properties.test_prop_sync_batch import fault_plans

N = 8
ORACLES = {
    "fixed": lambda: FixedLeaderOracle(0),
    "omega": lambda: HeartbeatOmega(N),
}


def grid_run(name, oracle, plan, rounds, seed, timeout=0.1):
    """``name``'s algorithm on the uniform WAN, on the round grid."""
    table = np.full((N, N), 0.03)
    np.fill_diagonal(table, 0.0)
    run = SyncRun(
        N, lambda pid: FACTORIES[name](pid, N), ORACLES[oracle](),
        lambda sim: Transport(sim, uniform_wan_profile(N, seed=seed)),
        timeout=timeout, latency_table=table, max_rounds=rounds, fault_plan=plan,
    )
    result = run.run()
    assert run.executed_mode == "batch", run.fallback_reason
    return result


def replay(name, oracle, result, plan):
    return lockstep_replay(
        result, lambda pid: FACTORIES[name](pid, N), ORACLES[oracle](), plan
    )


def decided(result):
    return result.decisions, result.decision_rounds


def lockstep_over(name, oracle, result, plan):
    """``result``'s log, diagonal restored, on the lockstep runner under
    ``plan`` as given."""
    log = [matrix | np.eye(N, dtype=bool) for matrix in result.matrices]
    return LockstepRunner(
        N, lambda pid: FACTORIES[name](pid, N), ORACLES[oracle](),
        MatrixSchedule(log), fault_plan=plan,
    ).run(max_rounds=len(log), stop_on_global_decision=False)


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(
    plan=st.none() | fault_plans(),
    rounds=st.integers(min_value=1, max_value=45),
    squeeze=st.floats(min_value=0.3, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=8, deadline=None)
def test_replaying_a_grid_runs_log_takes_its_decisions(
    name, oracle, plan, rounds, squeeze, seed
):
    result = grid_run(name, oracle, plan, rounds, seed, 0.1 * squeeze)
    assert decided(replay(name, oracle, result, plan)) == decided(result)


@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(
    plan=fault_plans(),
    rounds=st.integers(min_value=1, max_value=45),
    squeeze=st.floats(min_value=0.3, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=8, deadline=None)
def test_the_plan_but_its_slow_nodes_replays_a_grid_run(
    name, plan, rounds, squeeze, seed
):
    """The wire's bursts and partitions are the plan's mask, round by
    round: masking them again loses nothing the log kept."""
    result = grid_run(name, "fixed", plan, rounds, seed, 0.1 * squeeze)
    lock = lockstep_over(name, "fixed", result, replace(plan, slow_nodes=()))
    assert decided(lock) == decided(result)


#: Bursts and a slow leader while Algorithm 2 decides, a crash among them.
STORMY = FaultPlan(
    N,
    crashes=(Crash(3, 2),),
    loss_bursts=(LossBurst(1, 6, 0.5),),
    slow_nodes=(SlowNode(0, 1, 12, 3.0, 1.0),),
    seed=0,
)


class TestBothHalvesOfTheReplay:
    @pytest.fixture(scope="class")
    def stormy(self):
        return grid_run("WLM", "fixed", STORMY, 20, 0)

    def test_the_replay_decides_as_the_run(self, stormy):
        assert decided(replay("WLM", "fixed", stormy, STORMY)) == decided(stormy)
        assert len(stormy.decisions) == N - 1

    def test_the_whole_plan_loses_messages_twice(self, stormy):
        # The runner's own mask draws the slow node as drops, on top of
        # the losses the log holds: the decisions come later.  Its bursts
        # alone lose nothing more.
        full = lockstep_over("WLM", "fixed", stormy, STORMY)
        assert decided(full) != decided(stormy)
        bursts = lockstep_over("WLM", "fixed", stormy, replace(STORMY, slow_nodes=()))
        assert decided(bursts) == decided(stormy)

    def test_a_log_without_its_diagonal_is_no_schedule(self, stormy):
        # The crashed process's rows are empty, its diagonal too.
        with pytest.raises(ValueError, match="diagonal"):
            MatrixSchedule(list(stormy.matrices))


class OracleQueries:
    """Records every ``(pid, round)`` that queried the oracle."""

    def __init__(self):
        self.queries = set()

    def on_oracle(self, pid, round_number, output):
        self.queries.add((pid, round_number))


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_a_process_crashing_at_round_one_ends_round_zero_on_both_stacks(name):
    # The event stack boots every node, so pid 1 ends round 0 (and asks
    # the oracle) before its crash at round 1; the replay must too.
    plan = FaultPlan(N, crashes=(Crash(1, 1),))
    table = np.full((N, N), 0.03)
    np.fill_diagonal(table, 0.0)
    event_ears, lock_ears = OracleQueries(), OracleQueries()
    run = SyncRun(
        N, lambda pid: FACTORIES[name](pid, N), FixedLeaderOracle(0),
        lambda sim: Transport(sim, uniform_wan_profile(N, seed=5)),
        timeout=0.1, latency_table=table, max_rounds=12, fault_plan=plan,
        observers=[event_ears],
    )
    result = run.run()
    assert run.executed_mode == "batch", run.fallback_reason
    lock = lockstep_replay(
        result, lambda pid: FACTORIES[name](pid, N), FixedLeaderOracle(0), plan,
        [lock_ears],
    )
    assert (1, 0) in event_ears.queries
    assert lock_ears.queries == event_ears.queries
    assert decided(lock) == decided(result)
