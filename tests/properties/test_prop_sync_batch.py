"""Property tests of the batched round-sync execution path.

Unlike the *distributional* scalar-vs-batch guarantees of the trace
sampler (``test_prop_batch_sampling.py``), the batched protocol path is
held to **bit identity**: an eligible run produces exactly the same
:class:`~repro.sync.round_sync.SyncRunResult` — matrices, ``sync_error``,
round durations, jumps, late-message counts, decision bookkeeping — as
the scalar event loop, over random profiles, seeds, timeouts, and round
counts.  Both paths consume each link's RNG substream in the same
chunked order, so even the latencies are the same IEEE doubles.

The same holds for every other GIRAF algorithm, which the batched
engine steps one grid round at a time: the consensus algorithms under
fixed, rotating and heartbeat-elected leaders, with and without a fault
plan, down to what their observers hear.

The fallback triggers are properties too: anything time-varying or
instrumented must run the scalar path and say why.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus import (
    AfmConsensus,
    EsConsensus,
    LmConsensus,
    PaxosConsensus,
)
from repro.core import WlmConsensus
from repro.faults.plan import (
    Crash,
    FaultPlan,
    LeaderChurn,
    LossBurst,
    Partition,
    SlowNode,
)
from repro.giraf.oracle import FixedLeaderOracle, NullOracle, RotatingLeaderOracle
from repro.net import (
    lan_profile,
    measure_latency_table,
    planetlab_profile,
    uniform_wan_profile,
)
from repro.obs.registry import MetricsRegistry
from repro.oracles.omega import HeartbeatOmega
from repro.sim import Transport
from repro.sync import SyncRun, probe_run, twin_runs
from repro.sync.batch import (
    METRIC_FACETS,
    RESULT_FIELDS,
    RUN_FACETS,
    run_divergences,
)

#: Eligible (static) profile variants: the dynamic behaviours are
#: switched off, which is precisely when the batch path may engage.
PROFILES = {
    "uniform-wan": (lambda seed: uniform_wan_profile(n=8, seed=seed), 0.1),
    "planetlab-static": (
        lambda seed: planetlab_profile(seed=seed, slow_run_prob=0.0),
        0.21,
    ),
    "lan-static": (lambda seed: lan_profile(seed=seed, slow_node=None), 0.0009),
}


def build_run(factory, timeout, seed, rounds, **extras):
    table = measure_latency_table(factory(seed + 1), pings=3)
    return probe_run(factory(seed), table, timeout, rounds, **extras)


def assert_same_internal_state(scalar_run, batched_run):
    """Beyond :func:`run_divergences`: the bookkeeping a continued use
    of the run objects would read is left where the scalar loop leaves
    it."""
    for a, b in zip(scalar_run.nodes, batched_run.nodes):
        assert a.process.round == b.process.round
        assert (
            a.process.algorithm.rounds_computed
            == b.process.algorithm.rounds_computed
        )
    assert scalar_run.simulator.now == batched_run.simulator.now


class TestBitIdentity:
    @given(
        name=st.sampled_from(sorted(PROFILES)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rounds=st.integers(min_value=1, max_value=40),
        squeeze=st.floats(min_value=0.2, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_result_is_bit_identical(self, name, seed, rounds, squeeze):
        # ``squeeze`` shrinks the timeout toward the latency body, driving
        # up ties, late messages, and losses — the hard cases.
        factory, base_timeout = PROFILES[name]
        timeout = base_timeout * squeeze
        twins = twin_runs(lambda: build_run(factory, timeout, seed, rounds))
        batched_run, scalar_run = twins.auto_run, twins.scalar_run
        assert batched_run.executed_mode == "batch", batched_run.fallback_reason
        assert twins.diverged == []
        assert_same_internal_state(scalar_run, batched_run)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_stream_state_left_as_the_scalar_run_leaves_it(self, seed):
        # After a run, each link's pre-sampled stream must sit at the
        # same cursor with the same chunk, so continued transport use
        # draws the same latencies either way — 300 more per link, which
        # crosses a refill.
        factory, timeout = PROFILES["uniform-wan"]
        draws = {}
        for mode in ("scalar", "auto"):
            run = build_run(factory, timeout, seed, rounds=12)
            run.run(mode=mode)
            links = [
                (src, dst)
                for src in range(run.n)
                for dst in range(run.n)
                if src != dst
            ]
            draws[mode] = run.transport.next_stream_block(
                links, [300] * len(links)
            )
        assert np.array_equal(draws["scalar"], draws["auto"])


@st.composite
def fault_plans(draw, n=8, rounds_cap=45):
    """A batch-eligible fault plan: permanent crashes, bursts,
    partitions, slow nodes and churn — no recoveries or clock steps."""
    crashes = tuple(
        Crash(pid=pid, at_round=draw(st.integers(1, rounds_cap + 5)))
        for pid in draw(
            st.lists(
                st.integers(0, (n + 1) // 2 - 1),
                unique=True,
                max_size=3,
            )
        )
    )
    bursts = []
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(1, rounds_cap))
        bursts.append(
            LossBurst(
                start_round=start,
                end_round=start + draw(st.integers(0, 10)),
                drop_prob=draw(st.sampled_from([0.3, 0.9, 1.0])),
            )
        )
    partitions = []
    if draw(st.booleans()):
        start = draw(st.integers(1, rounds_cap))
        cut = draw(st.integers(1, n - 1))
        partitions.append(
            Partition(
                groups=(tuple(range(cut)), tuple(range(cut, n))),
                start_round=start,
                heal_round=start + draw(st.integers(1, 8)),
            )
        )
    slows = []
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(1, rounds_cap))
        slows.append(
            SlowNode(
                pid=draw(st.integers(0, n - 1)),
                start_round=start,
                end_round=start + draw(st.integers(0, 8)),
                factor=draw(st.floats(1.5, 5.0)),
                drop_prob=draw(st.sampled_from([0.0, 0.5])),
            )
        )
    churn = []
    if draw(st.booleans()):
        start = draw(st.integers(1, rounds_cap))
        churn.append(
            LeaderChurn(
                start_round=start, end_round=start + draw(st.integers(0, 6))
            )
        )
    return FaultPlan(
        n=n,
        crashes=crashes,
        loss_bursts=tuple(bursts),
        partitions=tuple(partitions),
        slow_nodes=tuple(slows),
        leader_churn=tuple(churn),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


def build_widened_run(factory, timeout, seed, rounds, plan, metrics_on, omega):
    metrics = MetricsRegistry() if metrics_on else None
    return build_run(
        factory, timeout, seed, rounds, plan=plan, metrics=metrics, omega=omega
    )


class TestFaultedBitIdentity:
    """The widened fast path: fault plans, metrics, and HeartbeatOmega
    must not cost a single bit of fidelity."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rounds=st.integers(min_value=1, max_value=45),
        squeeze=st.floats(min_value=0.2, max_value=1.0),
        plan=fault_plans(),
        metrics_on=st.booleans(),
        omega=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_faulted_instrumented_run_is_bit_identical(
        self, seed, rounds, squeeze, plan, metrics_on, omega
    ):
        factory, base_timeout = PROFILES["uniform-wan"]
        timeout = base_timeout * squeeze
        twins = twin_runs(
            lambda: build_widened_run(
                factory, timeout, seed, rounds, plan, metrics_on, omega
            )
        )
        batched_run, scalar_run = twins.auto_run, twins.scalar_run
        assert batched_run.executed_mode == "batch", batched_run.fallback_reason
        # With ``metrics_on`` the same call also compares the counter
        # totals and histograms of the two runs' registries.
        assert twins.diverged == []
        assert_same_internal_state(scalar_run, batched_run)
        policy_a = scalar_run.link_faults
        policy_b = batched_run.link_faults
        if policy_a is not None:
            # The plan policy's own state (burst counters, seen episodes)
            # ends up where the scalar run leaves it.
            assert policy_a._burst_counters == policy_b._burst_counters
            assert policy_a._seen_activations == policy_b._seen_activations

    def test_overlapping_bursts_share_each_link_counter(self):
        # Rounds 6-9 have both bursts live: there a message walks them in
        # order, one count of its link each, up to the first that drops
        # it — the rule the batched engine's bulk burst call must follow.
        # ``fault_plans`` overlaps its bursts only by chance.
        plan = FaultPlan(
            n=8,
            crashes=(Crash(pid=2, at_round=8),),
            loss_bursts=(
                LossBurst(start_round=3, end_round=9, drop_prob=0.3),
                LossBurst(start_round=6, end_round=12, drop_prob=0.5),
            ),
            seed=29,
        )
        factory, timeout = PROFILES["uniform-wan"]
        twins = twin_runs(
            lambda: build_widened_run(factory, timeout, 7, 20, plan, True, True)
        )
        assert twins.auto_run.executed_mode == "batch"
        assert twins.diverged == []
        policy_a = twins.scalar_run.link_faults
        policy_b = twins.auto_run.link_faults
        assert policy_a._burst_counters == policy_b._burst_counters
        assert policy_a._seen_activations == policy_b._seen_activations
        # Not vacuous: a link sends at most 10 messages in the 10 burst
        # rounds, so a larger count means the overlap drew twice.
        assert max(policy_b._burst_counters.values()) > 10

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_omega_state_matches_after_replay(self, seed):
        plan = FaultPlan(
            n=8,
            crashes=(Crash(pid=1, at_round=6),),
            loss_bursts=(
                LossBurst(start_round=3, end_round=8, drop_prob=0.9),
            ),
            seed=seed,
        )
        factory, timeout = PROFILES["uniform-wan"]
        states = {}
        for mode in ("scalar", "auto"):
            run = build_widened_run(
                factory, timeout, seed, 20, plan, False, True
            )
            run.run(mode=mode)
            oracle = run.nodes[0].oracle
            states[mode] = (
                oracle._last_heard.copy(),
                oracle._suspected.copy(),
                dict(oracle._last_output),
            )
        assert np.array_equal(states["scalar"][0], states["auto"][0])
        assert np.array_equal(states["scalar"][1], states["auto"][1])
        assert states["scalar"][2] == states["auto"][2]


class CallLog:
    """Records the end-of-round notifications an observer hears."""

    def __init__(self):
        self.calls = []

    def on_oracle(self, pid, round_number, output):
        self.calls.append(("oracle", pid, round_number, output))

    def on_decision(self, pid, round_number, value):
        self.calls.append(("decision", pid, round_number, value))


ALGORITHMS = {
    "WLM": WlmConsensus,
    "ES": EsConsensus,
    "LM": LmConsensus,
    "Paxos": PaxosConsensus,
    "AFM": AfmConsensus,
}
ORACLES = {
    "fixed": lambda n, metrics: FixedLeaderOracle(2),
    # A new leader every round: the destinations change round to round.
    "rotating": lambda n, metrics: RotatingLeaderOracle(n),
    "omega": lambda n, metrics: HeartbeatOmega(n, metrics=metrics),
    "null": lambda n, metrics: NullOracle(),
}
PAIRS = [
    (algorithm, oracle)
    for algorithm in ("WLM", "ES", "LM", "Paxos")
    for oracle in ("fixed", "rotating", "omega")
] + [("AFM", "null")]

#: The canonical batch plan — a permanent crash, a loss burst, a
#: partition and a slow node — with leader churn on top.
CHURNED_PLAN = FaultPlan(
    n=8,
    crashes=(Crash(pid=5, at_round=21),),
    loss_bursts=(LossBurst(3, 6, drop_prob=0.7),),
    partitions=(
        Partition(groups=((0, 3, 5, 6), (1, 2, 4, 7)), start_round=9,
                  heal_round=12),
    ),
    slow_nodes=(
        SlowNode(pid=2, start_round=14, end_round=17, factor=3.0,
                 drop_prob=0.4),
    ),
    leader_churn=(LeaderChurn(start_round=7, end_round=10),),
    seed=13,
)


def consensus_run(algorithm, oracle, plan, metrics_on, observer, seed=5):
    n, rounds = 8, 30
    factory, timeout = PROFILES["planetlab-static"]
    metrics = MetricsRegistry() if metrics_on else None
    make = ALGORITHMS[algorithm]
    return SyncRun(
        n,
        lambda pid: make(pid, n, f"value-{pid}"),
        ORACLES[oracle](n, metrics),
        lambda sim: Transport(sim, factory(seed), metrics=metrics),
        timeout=timeout,
        latency_table=measure_latency_table(factory(seed + 1), pings=3),
        max_rounds=rounds,
        fault_plan=plan,
        metrics=metrics,
        observers=[observer],
    )


def slot_contents(run):
    """Every process's slots and pending message.  A slot is compared as
    the mapping ``compute`` reads, not in insertion order: the stepped
    engine receives by sender, the event loop by arrival, and no
    algorithm's ``compute`` tells the two apart
    (``test_prop_slot_order.py``)."""
    return [
        (node.process.slots, node.process.outgoing_payload) for node in run.nodes
    ]


class TestSteppedBitIdentity:
    """Any algorithm on the grid rides the batched engine, stepped round
    by round: results, node state, telemetry, what the observers hear
    and what the processes hold must all be the scalar loop's."""

    @pytest.mark.parametrize("metrics_on", [False, True], ids=["bare", "metrics"])
    @pytest.mark.parametrize(
        "plan", [None, CHURNED_PLAN], ids=["no-plan", "churned-plan"]
    )
    @pytest.mark.parametrize(
        "algorithm,oracle", PAIRS, ids=[f"{a}-{o}" for a, o in PAIRS]
    )
    def test_consensus_run_is_bit_identical(
        self, algorithm, oracle, plan, metrics_on
    ):
        logs = []

        def build():
            logs.append(CallLog())
            return consensus_run(algorithm, oracle, plan, metrics_on, logs[-1])

        twins = twin_runs(build)
        assert twins.auto_run.executed_mode == "batch", twins.auto_run.fallback_reason
        assert twins.diverged == []
        # Not vacuous: a settled leader decides; one rotating every round
        # never settles, but moves the destinations round to round (ES
        # elects its own leader and ignores the oracle).
        settles = oracle != "rotating" or algorithm == "ES"
        assert bool(twins.scalar.decisions) == settles
        scalar_log, auto_log = logs
        assert auto_log.calls == scalar_log.calls
        assert slot_contents(twins.auto_run) == slot_contents(twins.scalar_run)
        assert (
            twins.auto_run.simulator.now == twins.scalar_run.simulator.now
        )


class TestTwinRuns:
    def test_the_pair_is_built_fresh_and_diffed(self):
        factory, timeout = PROFILES["uniform-wan"]
        twins = twin_runs(lambda: build_run(factory, timeout, 5, 12))
        assert twins.auto_run is not twins.scalar_run
        assert (twins.auto_run.executed_mode, twins.scalar_run.executed_mode) == (
            "batch", "scalar",
        )
        assert len(twins.auto.matrices) == len(twins.scalar.matrices) == 12
        assert twins.diverged == []

    def test_a_run_the_auto_leg_put_on_the_scalar_loop_runs_once(self):
        factory, timeout = PROFILES["uniform-wan"]
        plan = FaultPlan(n=8, crashes=(Crash(pid=1, at_round=3, recover_round=6),))
        built = []

        def build():
            built.append(build_run(factory, timeout, 5, 12, plan=plan))
            return built[-1]

        twins = twin_runs(build)
        assert len(built) == 1
        assert twins.scalar_run is twins.auto_run
        assert twins.scalar is twins.auto
        assert twins.auto_run.executed_mode == "scalar"
        assert twins.diverged == []

    def test_a_build_that_is_not_the_same_twice_is_named(self):
        factory, timeout = PROFILES["uniform-wan"]
        seeds = iter((5, 6))
        twins = twin_runs(lambda: build_run(factory, timeout, next(seeds), 12))
        assert "matrices" in twins.diverged


class TestFallbackTriggers:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_foreign_fault_policy_forces_scalar(self, seed):
        class NoFaults:
            def drop(self, src, dst, now):
                return False

            def latency_factor(self, src, dst, now):
                return 1.0

        factory, timeout = PROFILES["uniform-wan"]
        run = build_run(factory, timeout, seed, rounds=8)
        run.transport.faults = NoFaults()
        result = run.run()
        assert run.executed_mode == "scalar"
        # The model still streams, but an ad-hoc policy that is not the
        # run's own plan policy cannot be replicated by the batch path.
        assert run.fallback_reason == "not a stock run"
        assert len(result.matrices) == 8

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_dynamic_model_forces_scalar(self, seed):
        factory = lambda s: planetlab_profile(seed=s, slow_run_prob=1.0)
        run = build_run(factory, 0.21, seed, rounds=8)
        assert run.transport.link_model.slow_run
        result = run.run()
        assert run.executed_mode == "scalar"
        assert "time-invariant" in run.fallback_reason
        assert len(result.matrices) == 8

    def test_result_divergences_detects_every_field(self):
        # The comparator itself must be able to fail: perturb each field
        # of a result copy, then each facet of a run copy, and check it
        # is the one reported.
        factory, timeout = PROFILES["uniform-wan"]

        def twin():
            run = build_widened_run(factory, timeout, 3, 6, None, True, True)
            return run, run.run()

        reference_run, reference = twin()

        def diverged(other_run, other):
            return run_divergences(reference_run, reference, other_run, other)

        assert diverged(*twin()) == []
        for field in RESULT_FIELDS:
            other_run, other = twin()
            value = getattr(other, field)
            if field == "matrices":
                value[0] = ~value[0]
            elif field in ("decisions", "decision_rounds", "proposals"):
                value[0] = "bogus"
            elif field == "correct":
                setattr(other, field, frozenset())
            else:
                value[0] += 1
            assert diverged(other_run, other) == [field]

        def shift(run):
            run.log.starts[1, 0] -= 1.0

        def stretch(run):
            run.log.ends[1, 0] += 1.0

        def drop_receipt(run):
            run.log.timely[2, 1] = False

        def crash(run):
            run.nodes[2].crashed_permanently = True

        def lose(run):
            run.transport.messages_lost += 1

        def count(run):
            run.metrics.counter("transport.sent").inc()

        def observe(run):
            run.metrics.histogram("transport.latency_seconds").observe(9.0)

        perturbations = {
            "node state": (shift, stretch, drop_receipt, crash),
            "transport counters": (lose,),
            "metric totals": (count,),
            "histograms": (observe,),
        }
        assert tuple(perturbations) == RUN_FACETS + METRIC_FACETS
        for facet, perturbs in perturbations.items():
            for perturb in perturbs:
                other_run, other = twin()
                perturb(other_run)
                assert diverged(other_run, other) == [facet], perturb.__name__
