"""The wire's verdicts are one: per block, per instant, per message.

:meth:`PlanLinkFaults.judge` decides a ``[round, dst, src]`` block and
:meth:`PlanLinkFaults.sift` one send instant's messages, the whole plan
included.  Each is held here against a twin policy asked message by
message, in round order, through :meth:`drop` and ``latency_factor``:
the verdicts, the causes, the factors, the fired episodes and the
``faults.activations`` totals must come out equal, over plans whose
windows overlap in part of the examples and episodes some earlier
:meth:`drop` calls fired.  Underneath all of them is one round map,
held here to the grid's own instants: a drift-free run's round ``k`` is
plan round ``k``, so a one-round fault hits that round and a crash falls
on its boundary, on both engines.
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
from repro.net import uniform_wan_profile
from repro.obs.registry import MetricsRegistry
from repro.sync import probe_run
from repro.sync.batch import _round_grid

#: Plan windows start within the first ROUNDS_CAP rounds.
ROUNDS_CAP = 12


@st.composite
def burst_plans(draw):
    """1–3 loss bursts for 2–5 processes; with ``overlap`` every later
    burst opens inside the first one's window, so some rounds have
    several live bursts."""
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
            # Episodes some other traffic fired, and instants resolved
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
            assert policy._seen_activations == sequential._seen_activations
            assert metrics.snapshot() == twins[0][1].snapshot()


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
        # A drift-free grid's own round starts: round k is plan round k.
        own = [0.0]
        for _ in range(steps - 1):
            own.append(own[-1] + timeout)
        assert policy.rounds_of(own).tolist() == list(range(1, steps + 1))


#: The conformance grid's timeouts (0.21 s is also the faults phase's), a
#: sweep timeout, and one whose accumulated sums stay exact.
MAP_TIMEOUTS = (0.0009, 0.1, 0.12, 0.21, 0.25)


def grid_run(timeout, rounds, plan=None, n=8, seed=5):
    """A drift-free probe run over the uniform WAN, on the round grid."""
    table = np.full((n, n), 0.03)
    np.fill_diagonal(table, 0.0)
    return probe_run(uniform_wan_profile(n, seed=seed), table, timeout, rounds,
                     plan=plan)


def rounds_down(timeout, k):
    """Whether grid round k starts below ``(k - 1) * timeout``: a floor
    division of its start would place it in round k - 1."""
    start = 0.0
    for _ in range(k - 1):
        start += timeout
    return int(start // timeout) + 1 != k


class TestPlanRoundsAreGridRounds:
    """Plan round k is the window between the accumulated round starts
    t[k-1] and t[k] a drift-free run's grid is built from."""

    @pytest.mark.parametrize("timeout", MAP_TIMEOUTS)
    def test_grid_round_k_starts_plan_round_k(self, timeout):
        rounds = 1500
        times = _round_grid(grid_run(timeout, rounds, n=2))
        policy = PlanLinkFaults(FaultPlan(n=2), timeout)
        for k in range(1, rounds + 1):
            assert policy.round_of(times[k - 1]) == k
            assert policy.start_of(k) == times[k - 1]
        assert policy.rounds_of(times[:-1]).tolist() == list(range(1, rounds + 1))

    #: Rounds 6, 7, 9, 12 and 14 start where a floor division says k - 1.
    PARTITIONED = (2, 3, 6, 7, 9, 12, 14, 30)

    @pytest.mark.parametrize("mode", ["auto", "scalar"])
    def test_a_one_round_partition_cuts_that_round_only(self, mode):
        timeout, rounds = 0.1, 34
        assert any(rounds_down(timeout, k) for k in self.PARTITIONED)
        clean = np.array(grid_run(timeout, rounds).run(mode=mode).matrices)
        halves = ((0, 1, 2, 3), (4, 5, 6, 7))
        cross = np.zeros((8, 8), dtype=bool)
        cross[:4, 4:] = cross[4:, :4] = True
        for k in self.PARTITIONED:
            plan = FaultPlan(n=8, partitions=(Partition(halves, k, k + 1),))
            run = grid_run(timeout, rounds, plan)
            cut = np.array(run.run(mode=mode).matrices)
            assert run.executed_mode == ("batch" if mode == "auto" else "scalar")
            assert not cut[k - 1][cross].any(), k
            expected = clean.copy()
            expected[k - 1][cross] = False
            assert np.array_equal(cut, expected), k

    @pytest.mark.parametrize("mode", ["auto", "scalar"])
    @pytest.mark.parametrize("timeout", MAP_TIMEOUTS)
    def test_a_crash_at_round_r_ends_in_round_r_minus_1(self, timeout, mode):
        """The crash is the last event of its instant: the dying process
        ends round r - 1, begins round r with its sends lost to the wire,
        and never ends round r, as on the lockstep runner."""
        for r in range(3, 60):
            plan = FaultPlan(n=3, crashes=(Crash(1, r),))
            run = grid_run(timeout, r + 1, plan, n=3)
            result = run.run(mode=mode)
            starts, ends = run.log.starts[:, 1], run.log.ends[:, 1]
            assert not np.isnan(ends[r - 1]), (timeout, r)
            assert not np.isnan(starts[r]), (timeout, r)
            assert np.isnan(ends[r]), (timeout, r)
            # Round r - 1 is credited to it; round r is not, and none of
            # its round-r sends arrives.
            assert result.matrices[r - 2][1, 1], (timeout, r)
            assert not result.matrices[r - 1][1].any(), (timeout, r)
            assert not result.matrices[r - 1][:, 1].any(), (timeout, r)


class TestTimeoutValidation:
    @pytest.mark.parametrize("timeout", [math.nan, math.inf, 0.0, -0.1])
    def test_non_finite_or_non_positive_timeout_is_refused(self, timeout):
        with pytest.raises(ValueError, match=f"timeout.*{timeout!r}"):
            PlanLinkFaults(FaultPlan(n=3), timeout)
