"""Unit tests for round-synchronization internals (SyncedNode mechanics)."""

import numpy as np
import pytest

from repro.giraf.kernel import GirafAlgorithm, RoundOutput
from repro.giraf.oracle import NullOracle
from repro.giraf.process import GirafProcess
from repro.sim import Clock, Simulator, Transport
from repro.sim.transport import LinkModel
from repro.sync import HeartbeatAlgorithm, SyncRun
from repro.sync.round_sync import MIN_ROUND_FRACTION, RoundLog, SyncedNode, _Wire
from tests.conftest import FixedLatency


def make_node(timeout=1.0, latency=0.1, estimates=None, n=3, pid=0,
              clock=None, start=0.0, max_rounds=None):
    simulator = Simulator()
    transport = Transport(simulator, FixedLatency(latency))
    node = SyncedNode(
        process=GirafProcess(pid, HeartbeatAlgorithm(pid, n)),
        oracle=NullOracle(),
        transport=transport,
        simulator=simulator,
        clock=clock or Clock(),
        timeout=timeout,
        latency_estimates=estimates or [0.1] * n,
        log=RoundLog(n),
        start_time=start,
        max_rounds=max_rounds,
    )
    return simulator, transport, node


class TestSyncedNode:
    def test_rounds_advance_on_timer(self):
        simulator, _, node = make_node()
        simulator.run(until=3.5)
        # Booted at 0, rounds of length 1.0: in round 4 at t=3.5.
        assert node.process.round == 4

    def test_round_duration_follows_local_clock(self):
        # A clock running 100% fast finishes 1-second local rounds in
        # 0.5 global seconds.
        simulator, _, node = make_node(clock=Clock(drift=1.0))
        simulator.run(until=2.1)
        assert node.process.round == 5  # 4 full rounds in 2s global

    def test_future_round_message_triggers_jump(self):
        simulator, _, node = make_node()
        simulator.run(until=0.5)  # node in round 1
        node._on_receive(1, _Wire(7, "future"))
        assert node.process.round == 7
        assert node.jumps == 1
        assert node.log.timely[7, 0, 1]

    def test_joined_round_is_shortened_by_latency_estimate(self):
        simulator, _, node = make_node(estimates=[0.0, 0.4, 0.0])
        simulator.run(until=0.5)
        node._on_receive(1, _Wire(5, "future"))
        join_time = simulator.now
        simulator.run(until=2.0)
        # The joined round 5 lasted timeout - L[1] = 0.6.
        duration = node.log.ends[5, 0] - join_time
        assert duration == pytest.approx(0.6, abs=1e-6)

    def test_min_round_fraction_floor(self):
        # An estimate larger than the timeout cannot produce a
        # zero-length round.
        simulator, _, node = make_node(estimates=[0.0, 5.0, 0.0])
        simulator.run(until=0.5)
        node._on_receive(1, _Wire(5, "future"))
        join_time = simulator.now
        simulator.run(until=2.0)
        duration = node.log.ends[5, 0] - join_time
        assert duration >= MIN_ROUND_FRACTION * 1.0 - 1e-9

    def test_current_round_message_counts_timely(self):
        simulator, _, node = make_node()
        simulator.run(until=0.5)
        node._on_receive(2, _Wire(1, "now"))
        assert node.log.timely[1, 0, 2]
        assert node.late_messages == 0

    def test_past_round_message_counts_late(self):
        simulator, _, node = make_node()
        simulator.run(until=2.5)  # in round 3
        node._on_receive(2, _Wire(1, "old"))
        assert node.late_messages == 1
        assert not node.log.timely[1, 0, 2]
        # Counted, not stored: round 1 is computed and gone.
        assert all(k >= 3 for k in node.process.slots)

    def test_max_rounds_stops_node(self):
        simulator, _, node = make_node(max_rounds=3)
        simulator.run(until=10.0)
        assert node.process.round == 4  # computed round 3, stopped
        assert not node.running

    def test_staggered_start_boots_later(self):
        simulator, _, node = make_node(start=2.0)
        simulator.run(until=1.0)
        assert node.process.round == 0
        simulator.run(until=2.5)
        assert node.process.round == 1


class TestSyncRunShape:
    def test_matrices_square_and_boolean(self):
        n = 4
        table = np.full((n, n), 0.05)
        np.fill_diagonal(table, 0.0)
        run = SyncRun(
            n,
            lambda pid: HeartbeatAlgorithm(pid, n),
            NullOracle(),
            lambda sim: Transport(sim, FixedLatency(0.05)),
            timeout=0.2,
            latency_table=table,
            max_rounds=10,
        )
        result = run.run()
        assert len(result.matrices) == 10
        for matrix in result.matrices:
            assert matrix.shape == (n, n)
            assert matrix.dtype == bool
        assert len(result.round_durations) == n


class TestCollectCreditsExecutedRoundsOnly:
    """``SyncRun._collect`` keeps a node's row of round k only if the node
    ended round k: in a round it never executed it was not timely even
    to itself, diagonal included."""

    N = 4

    def run(self, start_times=None, fault_plan=None):
        n = self.N
        run = SyncRun(
            n,
            lambda pid: HeartbeatAlgorithm(pid, n),
            NullOracle(),
            lambda sim: Transport(sim, FixedLatency(0.05)),
            timeout=0.2,
            latency_table=np.full((n, n), 0.05),
            start_times=start_times,
            max_rounds=8,
            fault_plan=fault_plan,
        )
        return run, run.run(mode="scalar")

    def test_a_round_jumped_over_is_an_empty_row(self):
        # Node 3 boots at 0.5 s into round 1 while the others are in
        # round 3; their round-4 messages (0.65 s) pull it over 2 and 3.
        run, result = self.run(start_times=[0.0, 0.0, 0.0, 0.5])
        assert np.isnan(run.log.starts[2:4, 3]).all()
        assert run.log.starts[4, 3] == pytest.approx(0.65)
        for k in (2, 3):
            assert not result.matrices[k - 1][3].any(), k
            assert result.matrices[k - 1][:3, :3].all(), k
        assert result.matrices[3].all()

    def test_the_round_a_node_crashes_in_for_good_is_an_empty_row(self):
        from repro.faults.plan import Crash, FaultPlan

        run, result = self.run(
            fault_plan=FaultPlan(n=self.N, crashes=(Crash(2, 5),))
        )
        log = run.log
        began = ~np.isnan(log.starts[:, 2])
        ended = ~np.isnan(log.ends[:, 2])
        (k,) = np.flatnonzero(began & ~ended)
        assert log.timely[k, 2, 2]  # it began round k: timely to itself
        assert k <= len(result.matrices)
        assert not result.matrices[k - 1][2].any()
        survivors = [0, 1, 3]
        assert result.matrices[k - 1][np.ix_(survivors, survivors)].all()
