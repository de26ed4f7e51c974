"""Unit tests for ping tables and leader selection."""

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, Partition
from repro.net.base import LatencyModel
from repro.net.iid import BernoulliLinkModel
from repro.net.ping import measure_latency_table, select_leader
from repro.net.planetlab import LEADER_NODE, planetlab_profile


class PartitionedPings(LatencyModel):
    """A profile measured through an active :class:`FaultPlan` partition.

    Ping ``k`` (sent at ``now = 0.1 * k``) maps to plan round ``k + 1``;
    cross-partition pings are lost, exactly as the event path's link
    faults would lose them.
    """

    def __init__(self, base: LatencyModel, plan: FaultPlan, round_length: float = 0.1):
        super().__init__(base.n, seed=base.seed)
        self._base = base
        self._plan = plan
        self._round_length = round_length

    def sample_latency(self, src, dst, now):
        round_number = int(now / self._round_length) + 1
        if self._plan.partitioned(src, dst, round_number):
            return None
        return self._base.sample_latency(src, dst, now)


class OneOddLink(BernoulliLinkModel):
    """A uniform 4-node WAN whose link 2 → 1 always samples ``value``."""

    def __init__(self, value):
        super().__init__(4, p=1.0, timeout=0.1)
        self._value = value

    def sample_latency(self, src, dst, now):
        if (src, dst) == (2, 1):
            return self._value
        return super().sample_latency(src, dst, now)


class TestMeasureLatencyTable:
    def test_shape_and_diagonal(self):
        table = measure_latency_table(planetlab_profile(seed=1), pings=5)
        assert table.shape == (8, 8)
        assert (np.diagonal(table) == 0).all()

    def test_medians_close_to_base(self):
        profile = planetlab_profile(seed=2)
        table = measure_latency_table(profile, pings=31)
        off = ~np.eye(8, dtype=bool)
        ratio = table[off] / profile.base[off]
        # Medians should hug the base latencies despite heavy tails.
        assert 0.8 < np.median(ratio) < 1.25

    def test_needs_at_least_one_ping(self):
        with pytest.raises(ValueError):
            measure_latency_table(planetlab_profile(), pings=0)

    def test_fully_lossy_link_is_infinite(self):
        model = BernoulliLinkModel(4, p=1.0, timeout=0.1, loss_prob=1.0)
        table = measure_latency_table(model, pings=5)
        off = ~np.eye(4, dtype=bool)
        assert np.isinf(table[off]).all()

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_a_sample_that_is_not_a_delay_is_refused(self, bad):
        """A NaN entry used to be scored as a dead link, and a negative
        one became a negative median that *won* the election (node 2 on
        this uniform WAN); both now raise what the transport raises."""
        with pytest.raises(ValueError) as raised:
            measure_latency_table(OneOddLink(bad), pings=5)
        message = str(raised.value)
        assert "2 → 1" in message
        assert "OneOddLink" in message and repr(bad) in message

    @pytest.mark.parametrize("lost", [None, float("inf")])
    def test_none_and_inf_stay_lost_pings(self, lost):
        table = measure_latency_table(OneOddLink(lost), pings=5)
        assert np.isinf(table[1, 2])
        assert np.isfinite(np.delete(table.ravel(), 1 * 4 + 2)).all()


class TestSelectLeader:
    def test_selects_uk_on_planetlab(self):
        for seed in (1, 9, 42, 77):
            table = measure_latency_table(planetlab_profile(seed=seed), pings=25)
            assert select_leader(table) == LEADER_NODE

    def test_minimax_method(self):
        table = np.array(
            [
                [0.0, 1.0, 9.0],
                [1.0, 0.0, 1.0],
                [9.0, 1.0, 0.0],
            ]
        )
        assert select_leader(table, method="minimax_rtt") == 1

    def test_median_method_picks_middle(self):
        # Node 0 best, node 2 worst, node 1 median.
        table = np.array(
            [
                [0.0, 1.0, 1.0],
                [2.0, 0.0, 2.0],
                [8.0, 8.0, 0.0],
            ]
        )
        assert select_leader(table, method="median") == 1

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            select_leader(np.zeros((3, 3)), method="wat")

    def test_even_n_median_is_upper_median(self):
        # Connectivity order by mean RTT: 0 < 1 < 2 < 3.  With four nodes
        # there is no middle node; the choice is explicitly the *upper*
        # median (rank n // 2 = 2), biased toward "average or worse".
        table = np.array(
            [
                [0.0, 1.0, 1.0, 1.0],
                [2.0, 0.0, 2.0, 2.0],
                [4.0, 4.0, 0.0, 4.0],
                [9.0, 9.0, 9.0, 0.0],
            ]
        )
        assert select_leader(table, method="median") == 2


class TestSelectLeaderWithDeadLinks:
    """Regression: a partially-infinite table used to be degenerate.

    ``measure_latency_table`` yields ``inf`` for a link losing most of
    its pings, so every node with one dead link scored ``mean_rtt = inf``
    and ``argmin`` silently tie-broke to node 0 — under a
    measurement-time partition the "well-connected leader" was arbitrary.
    """

    def dead_link_table(self):
        # Links 0<->1 and 2<->3 are dead: *every* node has a dead link,
        # so the old scoring gave all four nodes a mean RTT of inf and
        # picked node 0.  By finite links, node 3 is clearly cheapest.
        inf = float("inf")
        return np.array(
            [
                [0.0, inf, 5.0, 4.0],
                [inf, 0.0, 5.0, 4.0],
                [5.0, 5.0, 0.0, inf],
                [1.0, 1.0, inf, 0.0],
            ]
        )

    def test_dead_links_do_not_collapse_to_node_zero(self):
        assert select_leader(self.dead_link_table()) == 3

    def test_dead_link_costs_more_than_any_measured_link(self):
        # Node 0: one dead link, two excellent ones.  Node 2: all links
        # alive but mediocre.  The loss penalty (2x the worst finite RTT)
        # must outweigh node 0's good finite links here: 0's score is
        # (20 + 0.1 + 0.1) / 3 > 2's (4 + 4 + 4) / 3.
        inf = float("inf")
        table = 0.5 * np.array(
            [
                [0.0, inf, 0.1, 0.1],
                [inf, 0.0, 2.0, 2.0],
                [0.1, 2.0, 0.0, 4.0],
                [0.1, 2.0, 4.0, 0.0],
            ]
        )
        leader = select_leader(table)
        assert leader in (2, 3)

    def test_minimax_prefers_fully_connected_node(self):
        inf = float("inf")
        table = np.array(
            [
                [0.0, inf, 1.0],
                [inf, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
        assert select_leader(table, method="minimax_rtt") == 2

    def test_all_dead_is_the_honest_degenerate_case(self):
        inf = float("inf")
        table = np.full((3, 3), inf)
        np.fill_diagonal(table, 0.0)
        # Nothing to compare: every node scores the same and node 0 wins.
        assert select_leader(table) == 0

    def test_partitioned_fault_plan_pings_pick_majority_node(self):
        # Node 0 is quarantined with the usual winner (the UK node) in a
        # minority group for the whole measurement window; the leader
        # must come from the majority group — the old scoring returned
        # node 0 (arbitrarily, via the inf tie-break) on this profile.
        minority = (0, LEADER_NODE)
        majority = tuple(pid for pid in range(8) if pid not in minority)
        plan = FaultPlan(
            n=8,
            partitions=(
                Partition(groups=(minority, majority), start_round=1, heal_round=100),
            ),
        )
        for seed in (3, 21):
            profile = PartitionedPings(planetlab_profile(seed=seed), plan)
            table = measure_latency_table(profile, pings=25)
            leader = select_leader(table)
            assert leader in majority
