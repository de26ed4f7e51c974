"""Property tests pinning the NaN/argmin guards of the ranking sites.

``np.argmin`` over an array containing NaN returns the NaN's index, and
an ``inf`` score ties every unreachable node at the top — either would
silently crown a wrong winner.  The repo's ranking sites each carry a
guard (the ping layer's loss penalty, ``optimal_timeout``'s nanargmin +
all-NaN raise, the extractor's early-out on an unknown graph, the
selector's NaN filter).  These properties pin the guarded behaviour so a
refactor that drops a guard fails loudly instead of mis-ranking.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.crossover import optimal_timeout
from repro.net.ping import select_leader


@st.composite
def latency_tables(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    table = rng.uniform(0.01, 0.5, size=(n, n))
    np.fill_diagonal(table, 0.0)
    dead = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2))
    for _ in range(dead):
        dst = draw(st.integers(0, n - 1))
        src = draw(st.integers(0, n - 1))
        if dst != src:
            table[dst, src] = np.inf
    return table


class TestSelectLeaderGuards:
    @given(table=latency_tables())
    @settings(max_examples=80)
    def test_nan_links_rank_like_lost_links(self, table):
        # The ping layer reports a lost link as +inf; a NaN reaching the
        # table (e.g. from a future probe refactor) must not re-rank —
        # both are "no measurement" and both take the loss penalty.
        with_inf = select_leader(table)
        nan_table = table.copy()
        nan_table[~np.isfinite(nan_table)] = np.nan
        assert select_leader(nan_table) == with_inf

    @given(table=latency_tables())
    @settings(max_examples=80)
    def test_leader_minimizes_the_penalized_score(self, table):
        # The guard's whole point: ranking happens over *finite* penalized
        # scores, so the winner's score is a true minimum, never NaN/inf.
        n = table.shape[0]
        leader = select_leader(table)
        rtt = table + table.T
        off = ~np.eye(n, dtype=bool)
        finite = rtt[off & np.isfinite(rtt)]
        penalty = 2.0 * finite.max() if finite.size else 1.0
        penalized = np.where(np.isfinite(rtt), rtt, penalty)
        scores = np.array([penalized[i][off[i]].mean() for i in range(n)])
        assert np.isfinite(scores[leader])
        assert scores[leader] == scores.min()

    def test_one_dead_link_does_not_tie_everyone_to_node_zero(self):
        # Regression shape: node 3 is clearly best but has one dead link;
        # a raw-mean argmin would score every such node inf and fall back
        # to node 0.
        n = 5
        table = np.full((n, n), 0.4)
        np.fill_diagonal(table, 0.0)
        table[3, :] = table[:, 3] = 0.01
        table[3, 3] = 0.0
        table[4, 3] = np.inf
        assert select_leader(table) == 3


class TestOptimalTimeoutGuards:
    @given(
        seed=st.integers(0, 2**31),
        size=st.integers(min_value=1, max_value=12),
        nan_count=st.integers(min_value=0, max_value=11),
    )
    @settings(max_examples=100)
    def test_nan_cells_never_win(self, seed, size, nan_count):
        rng = np.random.default_rng(seed)
        timeouts = np.sort(rng.uniform(0.05, 1.0, size=size))
        times = rng.uniform(0.1, 50.0, size=size)
        nan_at = rng.choice(size, size=min(nan_count, size), replace=False)
        times[nan_at] = np.nan
        if np.isnan(times).all():
            with pytest.raises(ValueError):
                optimal_timeout(list(timeouts), list(times))
            return
        best_timeout, best_time = optimal_timeout(list(timeouts), list(times))
        assert best_time == best_time  # never NaN
        assert best_time == np.nanmin(times)
        assert best_timeout in timeouts

    def test_all_nan_raises(self):
        with pytest.raises(ValueError):
            optimal_timeout([0.1, 0.2], [float("nan"), float("nan")])


class TestExtractorGuards:
    def test_unknown_graph_defaults_leader_to_zero(self):
        from repro.adaptive import TimelinessExtractor

        extractor = TimelinessExtractor(4, timeouts=(0.1,))
        # No observations: the timeliness graph is all-NaN; best_leader
        # must early-out instead of argmaxing NaN bottlenecks.
        assert extractor.best_leader(0.1) == 0

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_recommendation_never_carries_nan(self, seed):
        from repro.adaptive import TimelinessExtractor

        rng = np.random.default_rng(seed)
        extractor = TimelinessExtractor(
            4, timeouts=(0.1, 0.3), window=8, min_rounds=2
        )
        for k in range(1, 6):
            latencies = rng.uniform(0.01, 0.2, size=(4, 4))
            # Random censoring: some links time out entirely.
            latencies[rng.random((4, 4)) < 0.3] = np.inf
            np.fill_diagonal(latencies, 0.0)
            extractor.observe_latencies(k, latencies)
        best = extractor.recommend()
        if best is not None:
            assert best.expected_time == best.expected_time
            assert best.satisfaction > 0.0
