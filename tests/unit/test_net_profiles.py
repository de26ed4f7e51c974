"""Unit tests for the LAN and PlanetLab profiles — the calibration and
structural facts the measured figures depend on."""

import numpy as np
import pytest

from repro.net.lan import LanProfile, lan_profile
from repro.net.planetlab import (
    CN,
    LEADER_NODE,
    PL,
    PLANETLAB_SITES,
    PlanetLabProfile,
    UK,
    planetlab_profile,
)

OFF = ~np.eye(8, dtype=bool)


def fraction_timely(profile, timeout, rounds=400):
    lat = np.array(
        [profile.sample_round_latencies(k * timeout) for k in range(rounds)]
    )
    return (lat[:, OFF] < timeout).mean()


class TestLanProfile:
    def test_default_has_8_nodes(self):
        assert lan_profile().n == 8

    def test_calibration_p_at_0_1_ms(self):
        # Paper: timeout 0.1 ms -> p ~ 0.7.
        values = [fraction_timely(LanProfile(seed=s), 1e-4) for s in range(4)]
        assert 0.55 < np.mean(values) < 0.8

    def test_calibration_p_at_0_2_ms(self):
        # Paper: timeout 0.2 ms -> p ~ 0.976.
        values = [fraction_timely(LanProfile(seed=s), 2e-4) for s in range(4)]
        assert 0.94 < np.mean(values) < 0.995

    def test_good_leader_has_best_links(self):
        profile = LanProfile()
        rtt = profile.mean_rtt()
        means = np.array([rtt[i][OFF[i]].mean() for i in range(8)])
        assert int(np.argmin(means)) == profile.good_leader

    def test_slow_node_has_slow_windows(self):
        profile = LanProfile()
        assert profile.slow_node in profile.slow_nodes

    def test_distinct_leaders(self):
        profile = LanProfile()
        assert profile.good_leader != profile.average_leader


class TestPlanetLabProfile:
    def test_site_roster_matches_paper(self):
        assert PLANETLAB_SITES == (
            "Switzerland",
            "Japan",
            "California",
            "Georgia",
            "China",
            "Poland",
            "UK",
            "Sweden",
        )
        assert PLANETLAB_SITES[LEADER_NODE] == "UK"
        assert PLANETLAB_SITES[PlanetLabProfile().slow_node] == "Poland"

    def test_p_curve_landmarks(self):
        # Figure 1(d) calibration: p rises from ~0.85 at 150 ms to ~0.96+
        # at 210 ms (averaged over slow and non-slow runs).
        p160 = np.mean([fraction_timely(planetlab_profile(seed=s), 0.16) for s in range(6)])
        p210 = np.mean([fraction_timely(planetlab_profile(seed=s), 0.21) for s in range(6)])
        assert 0.85 < p160 < 0.94
        assert 0.93 < p210 < 0.985
        assert p160 < p210

    def test_china_egress_is_congested(self):
        profile = planetlab_profile(seed=0)
        # Outgoing base latencies from China exceed incoming ones.
        outgoing = np.delete(profile.base[:, CN], CN)
        incoming = np.delete(profile.base[CN, :], CN)
        assert outgoing.mean() > incoming.mean()
        assert outgoing.min() >= 0.150

    def test_uk_links_have_smallest_tail_probability(self):
        profile = planetlab_profile(seed=0)
        uk_tails = np.delete(profile.tail_prob[:, UK], UK)
        other = profile.tail_prob[OFF].mean()
        assert uk_tails.max() < other

    def test_slow_runs_are_a_random_subset(self):
        flags = [planetlab_profile(seed=s).slow_run for s in range(40)]
        assert 5 < sum(flags) < 35  # neither never nor always

    def test_slow_run_affects_poland_incoming_only(self):
        seed = next(s for s in range(100) if planetlab_profile(seed=s).slow_run)
        profile = planetlab_profile(seed=seed)
        assert set(profile.slow_nodes) == {PL}

    def test_base_matrix_diagonal_zero_and_positive(self):
        base = planetlab_profile().base
        assert (np.diagonal(base) == 0).all()
        assert (base[OFF] > 0).all()

    def test_deterministic_by_seed(self):
        a = planetlab_profile(seed=5).sample_round_latencies(0.0)
        b = planetlab_profile(seed=5).sample_round_latencies(0.0)
        assert np.allclose(a, b)



# A link's substream is a pure function of ``(seed, link)``: derived where
# it is installed, tabled nowhere.
def test_sampling_traces_retains_no_per_seed_state():
    import tracemalloc

    def sample(seeds):
        for seed in seeds:
            planetlab_profile(seed=seed).sample_trace_batch(5, 0.21)

    sample(range(10))  # warm-up: imports, NumPy's own pools
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sample(range(1000, 1200))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # A process-wide table of per-(seed, link) states kept ~6 MB here.
    assert retained < 64 * 1024


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_link_stream_is_a_function_of_seed_and_link(order):
    profiles = [None, None]
    for index in order:
        profiles[index] = planetlab_profile(seed=2007)
    draws = [p.sample_trace_batch(3, 0.2)[:, 2, 1] for p in profiles]
    assert np.array_equal(*draws)
    other_link = profiles[0].sample_trace_batch(3, 0.2)[:, 1, 2]
    other_seed = planetlab_profile(seed=2008).sample_trace_batch(3, 0.2)[:, 2, 1]
    assert not np.array_equal(draws[0], other_link)
    assert not np.array_equal(draws[0], other_seed)
