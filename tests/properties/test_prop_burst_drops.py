"""The bulk burst verdict is the sequential one.

:meth:`PlanLinkFaults.burst_drops` decides a whole batch of messages at
once — each link's run of single-burst messages hashed over consecutive
counts, a round with several live bursts walked as :meth:`drop` walks it.
Held here against twin policies, one asked message by message through
:meth:`drop`, the other in one bulk call: the verdicts, the per-link
burst counters, the fired episodes and the ``faults.activations`` totals
must come out equal, over plans whose burst windows overlap in part of
the examples and counters some earlier :meth:`drop` calls advanced.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, LossBurst, PlanLinkFaults
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
