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


class FixedLatency:
    def __init__(self, latency):
        self.latency = latency

    def sample_latency(self, src, dst, now):
        return self.latency


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
