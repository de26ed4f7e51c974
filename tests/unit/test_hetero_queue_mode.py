"""Unit tests for the queue-mode slow node (the LAN's busy machine)."""

import numpy as np
import pytest

from repro.net.hetero import HeterogeneousNetwork, SlowWindows


def queue_network(unit=0.001, duty=1.0, n=4):
    base = np.full((n, n), 0.05)
    base[2, 0] = 0.01  # node 0's message arrives first at node 2
    base[2, 3] = 0.09  # node 3's arrives last
    np.fill_diagonal(base, 0.0)
    slow = {2: SlowWindows(period=10.0, duty=duty, mode="queue", queue_unit=unit)}
    return HeterogeneousNetwork(
        base=base,
        sigma=np.zeros((n, n)),
        tail_prob=np.zeros((n, n)),
        slow_nodes=slow,
        seed=1,
    )


class TestQueueModeRoundSampling:
    def test_earliest_arrival_pays_nothing(self):
        net = queue_network()
        lat = net.sample_round_latencies(0.0)
        assert lat[2, 0] == pytest.approx(0.01)  # rank 0

    def test_later_arrivals_pay_by_rank(self):
        net = queue_network(unit=0.001)
        lat = net.sample_round_latencies(0.0)
        # node 1 and node 3 arrive after node 0: ranks 1 and 2.
        assert lat[2, 1] == pytest.approx(0.05 + 0.001)
        assert lat[2, 3] == pytest.approx(0.09 + 0.002)

    def test_other_nodes_unaffected(self):
        net = queue_network()
        lat = net.sample_round_latencies(0.0)
        assert lat[1, 0] == pytest.approx(0.05)
        assert lat[0, 3] == pytest.approx(0.05)

    def test_inactive_window_no_queueing(self):
        net = queue_network(duty=0.1)  # slow during [0, 1) of each 10s
        lat = net.sample_round_latencies(5.0)
        assert lat[2, 1] == pytest.approx(0.05)

    def test_majority_rank_drives_model_satisfaction(self):
        """The structural point: with queueing active, the k-th arrival
        is late unless the timeout covers (k-1) queue units — so a
        majority-destination requirement fails long after the first link
        recovered."""
        net = queue_network(unit=0.002)
        lat = net.sample_round_latencies(0.0)
        timeout_small = 0.0535  # covers rank 0/1 bodies only
        timely = lat[2] < timeout_small
        assert timely[0] and timely[1]
        assert not timely[3]


class TestQueueModeSingleMessage:
    def test_expected_rank_approximation(self):
        net = queue_network(unit=0.001)
        # node 0 has the lowest base into node 2: rank 0.
        assert net.sample_latency(0, 2, 0.0) == pytest.approx(0.01)
        # node 3 has the highest: rank 2 (behind nodes 0 and 1).
        assert net.sample_latency(3, 2, 0.0) == pytest.approx(0.09 + 0.002)

    def test_outgoing_unaffected_by_queue_mode(self):
        net = queue_network()
        assert net.sample_latency(2, 1, 0.0) == pytest.approx(0.05)


class TestSlowWindowsValidation:
    def test_queue_mode_requires_unit(self):
        with pytest.raises(ValueError):
            SlowWindows(period=1.0, duty=0.5, mode="queue")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SlowWindows(period=1.0, duty=0.5, mode="sideways")
