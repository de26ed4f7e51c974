"""The bulk verdicts are the sequential one.

:meth:`PlanLinkFaults.burst_drops` decides a whole batch of messages at
once — each link's run of single-burst messages hashed over consecutive
counts, a round with several live bursts walked as :meth:`drop` walks it.
:meth:`PlanLinkFaults.judge` decides a ``[round, dst, src]`` block and
:meth:`PlanLinkFaults.sift` one send instant's messages, the whole plan
included.  Each is held here against a twin policy asked message by
message, in round order, through :meth:`drop` and ``latency_factor``:
the verdicts, the causes, the factors, the per-link burst counters, the
fired episodes and the ``faults.activations`` totals must come out
equal, over plans whose windows overlap in part of the examples and
counters some earlier :meth:`drop` calls advanced.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    Crash,
    FaultPlan,
    LossBurst,
    Partition,
    PlanLinkFaults,
    SlowNode,
)
from repro.obs.registry import MetricsRegistry

#: Plan windows start within the first ROUNDS_CAP rounds.
ROUNDS_CAP = 12


@st.composite
def burst_plans(draw):
    """1–3 loss bursts for 2–5 processes; with ``overlap`` every later
    burst opens inside the first one's window, so their rounds share
    each link's counter."""
    overlap = draw(st.booleans())
    bursts = []
    for _ in range(draw(st.integers(1, 3))):
        if overlap and bursts:
            start = draw(st.integers(bursts[0].start_round, bursts[0].end_round))
        else:
            start = draw(st.integers(1, ROUNDS_CAP))
        bursts.append(
            LossBurst(
                start_round=start,
                end_round=start + draw(st.integers(0, 6)),
                drop_prob=draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])),
            )
        )
    return FaultPlan(
        n=draw(st.integers(2, 5)),
        loss_bursts=tuple(bursts),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


def window(draw, longest=6):
    start = draw(st.integers(1, ROUNDS_CAP))
    return start, start + draw(st.integers(1, longest))


@st.composite
def link_plans(draw):
    """Every wire fault at once for 3–6 processes: recovering and
    permanent crashes, two or three partitions, the bursts of
    :func:`burst_plans` (overlapping in part of the examples) and slow
    nodes, all opening within the first ROUNDS_CAP rounds."""
    bursts = draw(burst_plans())
    n = draw(st.integers(3, 6))
    crashes = []
    for pid in draw(st.lists(st.integers(0, n - 1), unique=True,
                             max_size=(n + 1) // 2 - 1)):
        at, recover = window(draw)
        crashes.append(Crash(pid, at, draw(st.sampled_from([None, recover]))))
    partitions = []
    for _ in range(draw(st.integers(2, 3))):
        sides = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        groups = [tuple(p for p in range(n) if sides[p] == g) for g in range(3)]
        partitions.append(
            Partition(tuple(g for g in groups if g), *window(draw))
        )
    slow_nodes = []
    for _ in range(draw(st.integers(0, 2))):
        start, end = window(draw)
        slow_nodes.append(SlowNode(
            draw(st.integers(0, n - 1)), start, end,
            factor=draw(st.sampled_from([1.0, 1.5, 3.0])),
        ))
    return FaultPlan(
        n=n,
        crashes=tuple(crashes),
        loss_bursts=bursts.loss_bursts,
        partitions=tuple(partitions),
        slow_nodes=tuple(slow_nodes),
        seed=bursts.seed,
    )


def counted_policy(plan, timeout):
    metrics = MetricsRegistry()
    return PlanLinkFaults(plan, timeout, metrics=metrics), metrics


class TestBurstDropsAreDropCalls:
    @given(
        plan=burst_plans(),
        timeout=st.sampled_from([0.1, 0.25, 1.0]),
        # Grid rounds per plan round: finer, equal or coarser, so plan
        # rounds repeat, match or skip along the grid.
        stretch=st.sampled_from([0.5, 1.0, 1.5]),
        grid_rounds=st.integers(1, 24),
        density=st.sampled_from([0.3, 0.8, 1.0]),
        mask_seed=st.integers(0, 2**32 - 1),
        earlier=st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, 4), st.integers(1, ROUNDS_CAP)
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_bulk_verdicts_and_state_equal_per_message_drop(
        self, plan, timeout, stretch, grid_rounds, density, mask_seed, earlier
    ):
        n = plan.n
        sequential, sequential_metrics = counted_policy(plan, timeout)
        bulk, bulk_metrics = counted_policy(plan, timeout)
        # Counters some earlier traffic already advanced, on both twins.
        for src, dst, round_number in earlier:
            if src < n and dst < n and src != dst:
                now = sequential.start_of(round_number)
                assert sequential.drop(src, dst, now) == bulk.drop(src, dst, now)
        # The grid the batched engine would run: accumulated, not k * step.
        times = [0.0]
        for _ in range(grid_rounds - 1):
            times.append(times[-1] + timeout * stretch)
        rng = np.random.default_rng(mask_seed)
        candidate = rng.random((grid_rounds, n, n)) < density
        candidate &= ~np.eye(n, dtype=bool)
        messages = np.argwhere(candidate)

        expected = [
            sequential.drop(src, dst, times[k])
            for k, dst, src in messages.tolist()
        ]
        verdicts = bulk.burst_drops(messages, bulk.rounds_of(times))

        assert verdicts.dtype == bool
        assert verdicts.tolist() == expected
        assert bulk._burst_counters == sequential._burst_counters
        assert bulk._seen_activations == sequential._seen_activations
        assert bulk_metrics.snapshot() == sequential_metrics.snapshot()

    @given(
        plan=link_plans(),
        timeout=st.sampled_from([0.1, 0.25, 1.0]),
        stretch=st.sampled_from([0.5, 1.0, 1.5]),
        grid_rounds=st.integers(1, 30),
        density=st.sampled_from([0.3, 0.8, 1.0]),
        mask_seed=st.integers(0, 2**32 - 1),
        earlier=st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 5), st.integers(1, ROUNDS_CAP)
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_and_instant_verdicts_equal_per_message_drop(
        self, plan, timeout, stretch, grid_rounds, density, mask_seed, earlier
    ):
        n = plan.n
        twins = [counted_policy(plan, timeout) for _ in range(3)]
        (sequential, _), (block, _), (instant, _) = twins
        earlier = [
            (src, dst, sequential.start_of(k)) for src, dst, k in earlier
            if src < n and dst < n and src != dst
        ]

        def ask_earlier():
            # Counters some other traffic advanced, and instants resolved
            # before (and asked again after) the bulk calls.
            for src, dst, now in earlier:
                verdicts = {policy.drop(src, dst, now) for policy, _ in twins}
                assert len(verdicts) == 1

        ask_earlier()
        times = [0.0]
        for _ in range(grid_rounds - 1):
            times.append(times[-1] + timeout * stretch)
        rng = np.random.default_rng(mask_seed)
        sent = rng.random((grid_rounds, n, n)) < density
        sent &= ~np.eye(n, dtype=bool)

        lost = np.zeros_like(sent)
        factors = np.ones(sent.shape)
        causes = Counter()
        for k, dst, src in np.argwhere(sent).tolist():
            factors[k, dst, src] = sequential.latency_factor(src, dst, times[k])
            if sequential.drop(src, dst, times[k]):
                lost[k, dst, src] = True
                causes[sequential.last_drop_cause] += 1

        judged, factor, drops = block.judge(sent, block.rounds_of(times))
        assert (judged == lost).all()
        assert drops == {"crash": 0, "partition": 0, "loss-burst": 0} | dict(causes)
        assert (factor[sent] == factors[sent]).all()

        sifted, sift_drops = np.zeros_like(sent), {}
        for k, now in enumerate(times):
            # In send order: by sender, then destination.
            links = [(src, dst, 2.0, (k, src, dst))
                     for src, dst in np.argwhere(sent[k].T).tolist()]
            kept = {link[:2]: link for link in instant.sift(now, links, sift_drops)}
            for src, dst, latency, payload in links:
                if (src, dst) in kept:
                    assert kept[src, dst] == (
                        src, dst, latency * factors[k, dst, src], payload
                    )
                else:
                    sifted[k, dst, src] = True
        assert (sifted == lost).all()
        assert +Counter(sift_drops) == causes

        ask_earlier()
        for policy, metrics in twins[1:]:
            assert policy._burst_counters == sequential._burst_counters
            assert policy._seen_activations == sequential._seen_activations
            assert metrics.snapshot() == twins[0][1].snapshot()

    def test_no_messages_draw_nothing(self):
        plan = FaultPlan(n=3, loss_bursts=(LossBurst(1, 4, drop_prob=1.0),))
        policy = PlanLinkFaults(plan, 0.1)
        verdicts = policy.burst_drops(np.empty((0, 3), dtype=int), [1, 2])
        assert verdicts.shape == (0,)
        assert not policy.consumed


class TestRoundsOf:
    @given(
        timeout=st.floats(min_value=1e-4, max_value=10.0),
        multiples=st.lists(st.integers(0, 2000), min_size=1, max_size=30),
        steps=st.integers(1, 300),
        stretch=st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_vectorised_map_is_round_of_on_grid_instants(
        self, timeout, multiples, steps, stretch
    ):
        policy = PlanLinkFaults(FaultPlan(n=2), timeout)
        # Exact multiples of the timeout (where floor division is most
        # fragile) and an accumulated grid, as the batched engine builds it.
        times = [m * timeout for m in multiples]
        grid = [0.0]
        for _ in range(steps):
            grid.append(grid[-1] + timeout * stretch)
        for instants in (times, grid):
            assert policy.rounds_of(instants).tolist() == [
                policy.round_of(t) for t in instants
            ]


class TestTimeoutValidation:
    @pytest.mark.parametrize("timeout", [math.nan, math.inf, 0.0, -0.1])
    def test_non_finite_or_non_positive_timeout_is_refused(self, timeout):
        with pytest.raises(ValueError, match=f"timeout.*{timeout!r}"):
            PlanLinkFaults(FaultPlan(n=3), timeout)
