"""Unit tests for the batched round-sync execution path.

The bit-identity guarantees live in ``tests/properties/test_prop_sync_batch.py``
and in the conformance axis; this file pins the dispatch machinery —
which runs take the fast path, which fall back and why, and that the
``mode`` override behaves.
"""

import sys

import numpy as np
import pytest

from repro.faults.plan import (
    ClockStep, Crash, FaultPlan, LeaderChurn, LossBurst, Partition,
)
from repro.core import WlmConsensus
from repro.giraf.kernel import RoundOutput
from repro.giraf.oracle import FixedLeaderOracle, NullOracle
from repro.net import lan_profile, planetlab_profile, uniform_wan_profile
from repro.net.base import LatencyModel
from repro.obs.registry import MetricsRegistry
from repro.sim import Clock, Transport
from repro.sync import (
    HeartbeatAlgorithm,
    SyncRun,
    batch_eligibility,
    probe_run,
    twin_runs,
)


def make_run(n=4, timeout=0.1, max_rounds=15, factory=uniform_wan_profile,
             seed=0, **extras):
    table = np.full((n, n), 0.02)
    np.fill_diagonal(table, 0.0)
    profile = factory(n=n, seed=seed) if factory is uniform_wan_profile else factory(seed=seed)
    return probe_run(profile, table, timeout, max_rounds, **extras)


def make_odd_run(**transport_kwargs):
    """What no argument of the stock constructor produces: options on the
    transport."""
    n = 4
    return SyncRun(
        n,
        lambda pid: HeartbeatAlgorithm(pid, n),
        NullOracle(),
        lambda sim: Transport(
            sim, uniform_wan_profile(n=n, seed=0), **transport_kwargs
        ),
        timeout=0.1,
        latency_table=np.full((n, n), 0.02),
        max_rounds=15,
    )


class TestDispatch:
    def test_eligible_run_takes_the_batch_path(self):
        run = make_run()
        result = run.run()
        assert run.executed_mode == "batch"
        assert run.fallback_reason is None
        assert len(result.matrices) == 15

    def test_scalar_mode_forces_the_event_loop(self):
        run = make_run()
        run.run(mode="scalar")
        assert run.executed_mode == "scalar"
        assert run.simulator.events_processed > 0

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown mode"):
            make_run().run(mode="vectorised")

    def test_batch_leaves_no_pending_events(self):
        run = make_run()
        run.run()
        assert run.simulator.pending_events == 0
        assert run.simulator.now == np.nanmax(run.log.ends[:, 0])


class TestFallbackReasons:
    def assert_falls_back(self, run, fragment, **run_kwargs):
        run.run(**run_kwargs)
        assert run.executed_mode == "scalar"
        assert run.fallback_reason is not None
        assert fragment in run.fallback_reason, run.fallback_reason

    def test_crash_recovery_plan(self):
        # Recovery moves a node off the common grid (it rejoins by
        # jumping): still scalar-only.
        plan = FaultPlan(n=4, crashes=(Crash(pid=1, at_round=3, recover_round=5),))
        self.assert_falls_back(make_run(plan=plan), "crash recovery")

    def test_clock_step_plan(self):
        plan = FaultPlan(n=4, clock_steps=(ClockStep(pid=1, at_round=3, offset=0.05),))
        self.assert_falls_back(make_run(plan=plan), "clock steps")

    def test_fault_policy_already_consumed(self):
        plan = FaultPlan(
            n=4,
            loss_bursts=(LossBurst(start_round=2, end_round=4, drop_prob=0.5),),
        )
        run = make_run(plan=plan)
        run.link_faults.drop(0, 1, 0.15)
        assert batch_eligibility(run) == "not a stock run"

    def test_streams_disabled(self):
        self.assert_falls_back(
            make_odd_run(batch_streams=False),
            "batch-capable",
        )

    def test_dynamic_model_falls_back(self):
        # A slow-run PlanetLab profile has time-varying windows: it is
        # not time-invariant, so its streams cannot be pre-sampled.
        factory = lambda seed: planetlab_profile(seed=seed, slow_run_prob=1.0)
        self.assert_falls_back(make_run(factory=factory), "time-invariant")

    def test_foreign_fault_policy_falls_back(self):
        # The transport still streams its model, but the ad-hoc policy is
        # not the run's own plan policy, so the batch path cannot
        # replicate its decisions.
        class NoFaults:
            def drop(self, src, dst, now):
                return False

            def latency_factor(self, src, dst, now):
                return 1.0

        run = make_run()
        run.transport.faults = NoFaults()
        self.assert_falls_back(run, "not a stock run")

    def test_heterogeneous_timeouts(self):
        run = make_run()
        run.nodes[2].timeout = 0.5
        self.assert_falls_back(run, "not a stock run")

    def test_heterogeneous_drift(self):
        clocks = [Clock(drift=1e-5 * i) for i in range(4)]
        self.assert_falls_back(make_run(clocks=clocks), "drift")

    def test_uniform_nonzero_drift_stays_eligible(self):
        clocks = [Clock(offset=0.3 * i, drift=2e-5) for i in range(4)]
        run = make_run(clocks=clocks)
        run.run()
        # Offsets never enter the protocol (timers are durations), and a
        # shared drift just rescales the common grid.
        assert run.executed_mode == "batch"

    def test_staggered_starts(self):
        starts = [0.0, 0.0, 0.1, 0.0]
        self.assert_falls_back(make_run(start_times=starts), "start")

    def test_rerun_falls_back(self):
        run = make_run()
        run.run()
        assert run.executed_mode == "batch"
        self.assert_falls_back(run, "not a stock run")

    def test_used_transport_falls_back(self):
        run = make_run()
        run.transport.send(0, 1, "warmup")
        # (not run: the foreign payload would crash the receive path)
        assert batch_eligibility(run) == "not a stock run"


class TestWidenedEligibility:
    """Former fallback causes that now ride the fast path."""

    def faulted_plan(self, n=4):
        return FaultPlan(
            n=n,
            crashes=(Crash(pid=1, at_round=8),),
            loss_bursts=(LossBurst(start_round=3, end_round=5, drop_prob=0.8),),
            seed=9,
        )

    def test_permanent_crash_plan_is_eligible(self):
        run = make_run(plan=self.faulted_plan())
        result = run.run()
        assert run.executed_mode == "batch"
        assert run.nodes[1].crashed_permanently
        assert 1 not in result.correct

    def test_metrics_ride_the_batch_path(self):
        metrics = MetricsRegistry()
        run = make_run(metrics=metrics)
        run.run()
        assert run.executed_mode == "batch"
        # Bulk accumulation stands in for the per-event increments.
        assert metrics.value("sync.rounds_started") == 4 * 15
        assert metrics.value("transport.sent") == 15 * 4 * 3

    def test_observers_ride_the_batch_path(self):
        class Collector:
            def __init__(self):
                self.matrices = []
                self.oracle_outputs = []

            def on_round_matrix(self, round_number, matrix):
                self.matrices.append(round_number)

            def on_oracle(self, pid, round_number, output):
                self.oracle_outputs.append((pid, round_number, output))

        collector = Collector()
        n = 4
        run = make_run(observers=[collector])
        run.nodes[0].oracle  # NullOracle: only the on_oracle hook forces replay
        run.run()
        assert run.executed_mode == "batch"
        assert collector.matrices == list(range(1, 16))
        # Boot queries plus one query per ended round, in pid order.
        assert len(collector.oracle_outputs) == n + n * 15

    def test_non_probe_algorithm_rides_the_batch_path(self):
        """Any algorithm on the grid is stepped round by round; a variant
        of the probe stream whose sends follow what it heard is one."""

        class Echo(HeartbeatAlgorithm):
            def compute(self, round_number, messages, oracle_output):
                super().compute(round_number, messages, oracle_output)
                return RoundOutput(sorted(messages), frozenset(messages))

        def build():
            run = make_run(factory=uniform_wan_profile, timeout=0.03)
            run.nodes[0].process.algorithm = Echo(0, 4)
            return run

        twins = twin_runs(build)
        assert batch_eligibility(build()) is None
        assert twins.auto_run.executed_mode == "batch"
        assert twins.diverged == []
        # Node 0 sent only to the peers it heard: not every round is full.
        assert not all(matrix.all() for matrix in twins.auto.matrices)
        for a, b in zip(twins.scalar_run.nodes, twins.auto_run.nodes):
            assert a.process.slots == b.process.slots
            assert a.process.outgoing_payload == b.process.outgoing_payload

    @pytest.mark.parametrize("drift", [-0.8, -0.9])
    def test_a_slow_uniform_clock_runs_every_round_on_the_batch_path(self, drift):
        """A clock may run at any rate above zero: a shared drift of −0.8
        stretches every round fivefold, and the run still reaches
        ``max_rounds`` on the batch path, identical to the scalar loop."""

        def build():
            clocks = [Clock(drift=drift) for _ in range(4)]
            return make_run(max_rounds=50, clocks=clocks)

        run = build()
        assert len(run.run().matrices) == 50
        assert run.executed_mode == "batch"
        assert twin_runs(build).diverged == []

    def test_slow_heterogeneous_clocks_run_every_round_on_the_scalar_loop(self):
        clocks = [Clock(drift=drift) for drift in (-0.8, -0.79, -0.8, -0.78)]
        run = make_run(max_rounds=50, clocks=clocks)
        assert len(run.run().matrices) == 50
        assert run.executed_mode == "scalar"
        assert run.fallback_reason == "heterogeneous clock drift"

    def test_heartbeat_omega_rides_the_batch_path(self):
        run = make_run(omega=True)
        run.run()
        assert run.executed_mode == "batch"

    def test_executed_mode_counters(self):
        metrics = MetricsRegistry()
        run = make_run(metrics=metrics)
        run.run()
        assert metrics.value("sync.executed_mode", mode="batch") == 1
        metrics = MetricsRegistry()
        run = make_run(metrics=metrics, start_times=[0.0, 0.1, 0.2, 0.3])
        run.run()
        assert metrics.value("sync.executed_mode", mode="scalar") == 1
        assert (
            metrics.value("sync.batch_fallback", reason="staggered start times")
            == 1
        )

    def test_forced_scalar_does_not_count_a_fallback(self):
        metrics = MetricsRegistry()
        run = make_run(metrics=metrics)
        run.run(mode="scalar")
        assert metrics.value("sync.executed_mode", mode="scalar") == 1
        snapshot = metrics.snapshot()["counters"]
        assert not any("batch_fallback" in key for key in snapshot)


class TestOracleReplay:
    """The detector reads the round log whole; only observers are walked
    through the answers, in the scalar engine's order."""

    PLAN = FaultPlan(
        n=4,
        crashes=(Crash(pid=0, at_round=6),),
        leader_churn=(LeaderChurn(start_round=3, end_round=9),),
        seed=4,
    )

    @staticmethod
    def oracle_calls(mode, omega, plan):
        class Recorder:
            def __init__(self):
                self.calls = []

            def on_oracle(self, pid, round_number, leader):
                self.calls.append((pid, round_number, leader))

        recorder = Recorder()
        run = make_run(
            observers=[recorder], omega=omega, plan=plan, max_rounds=20
        )
        run.run(mode=mode)
        assert run.executed_mode == ("scalar" if mode == "scalar" else "batch")
        return recorder.calls

    @pytest.mark.parametrize("plan", [PLAN, None], ids=["crash+churn", "no-plan"])
    def test_observers_hear_the_scalar_call_list_from_heartbeat_omega(self, plan):
        scalar = self.oracle_calls("scalar", True, plan)
        assert self.oracle_calls("auto", True, plan) == scalar
        assert [call[:2] for call in scalar[:4]] == [(pid, 0) for pid in range(4)]
        assert all(type(leader) is int for _, _, leader in scalar)
        if plan is not None:
            # The crashed leader stops asking; the survivors drop it once
            # the churn window and the suspicion window have passed.
            assert max(k for pid, k, _ in scalar if pid == 0) == 4
            assert {l for _, k, l in scalar if k == 2} == {0}
            assert {l for _, k, l in scalar if k == 20} == {1}
            assert all(
                leader == plan.churn_leader(k)
                for _, k, leader in scalar
                if plan.churning_at(k)
            )

    @pytest.mark.parametrize("plan", [PLAN, None], ids=["crash+churn", "no-plan"])
    def test_observers_hear_the_scalar_call_list_from_null_oracle(self, plan):
        scalar = self.oracle_calls("scalar", False, plan)
        assert self.oracle_calls("auto", False, plan) == scalar
        assert all(
            leader is None
            for _, k, leader in scalar
            if plan is None or not plan.churning_at(k)
        )

    @staticmethod
    def omega_calls(rounds):
        """Calls into functions defined in ``repro/oracles/omega.py``
        during one instrumented batched run of ``rounds`` rounds."""
        run = make_run(max_rounds=rounds, metrics=MetricsRegistry(), omega=True)
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename.endswith(
                "repro/oracles/omega.py"
            ):
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            run.run()
        finally:
            sys.setprofile(previous)
        assert run.executed_mode == "batch"
        return calls

    def test_oracle_work_does_not_grow_with_the_rounds(self):
        """The guard that keeps the per-round loop from growing back: the
        batched run enters the detector's module a fixed number of times
        (37 524 calls at 1 500 rounds when it was fed round by round)."""
        assert 0 < self.omega_calls(100) == self.omega_calls(400)


class TestLanStaticProfile:
    def test_static_lan_variant_is_eligible(self):
        factory = lambda seed: lan_profile(seed=seed, slow_node=None)
        run = make_run(factory=factory, timeout=0.0009, n=8)
        run.run()
        assert run.executed_mode == "batch"

    def test_default_lan_profile_falls_back(self):
        # The stock LAN profile has a periodically slow node — time-
        # varying, so it must take the scalar path.
        run = make_run(factory=lan_profile, timeout=0.0009, n=8)
        run.run()
        assert run.executed_mode == "scalar"
        assert "time-invariant" in run.fallback_reason


class ConstantLatency(LatencyModel):
    """Every link takes exactly ``value`` seconds, drawn in columns."""

    supports_batch_trace = is_time_invariant = True

    def __init__(self, n, value):
        super().__init__(n=n)
        self.value = value

    def sample_latency(self, src, dst, now):
        return self.value

    def sample_lanes(self, start, stop, round_length):
        return np.full((stop - start, self.n * (self.n - 1)), self.value)


class TestArrivalTies:
    def test_a_message_landing_on_the_round_end_is_timely_iff_its_sender_is_lower(self):
        """With every latency equal to the round length, every message
        lands at the instant its receiver's round timer fires.  The event
        queue fires whichever was scheduled first: the delivery, when the
        sender began the round before the receiver (lower pid).  The
        batched engine must break the tie the same way."""
        n = 4
        twins = twin_runs(
            lambda: probe_run(ConstantLatency(n, 0.25), np.zeros((n, n)), 0.25, 6)
        )
        assert twins.auto_run.executed_mode == "batch"
        assert twins.diverged == []
        lower = np.tril(np.ones((n, n), dtype=bool))  # [dst, src]: src <= dst
        assert all((matrix == lower).all() for matrix in twins.scalar.matrices)

    def test_a_stepped_message_landing_on_the_round_end_is_timely_iff_its_sender_is_lower(self):
        """The same tie on the stepped path: Algorithm 2 under leader 2
        sends the leader's broadcast and everyone's message to the
        leader, each landing on its receiver's round end."""
        n = 4

        def build():
            return SyncRun(
                n,
                lambda pid: WlmConsensus(pid, n, proposal=pid),
                FixedLeaderOracle(2),
                lambda sim: Transport(sim, ConstantLatency(n, 0.25)),
                timeout=0.25,
                latency_table=np.zeros((n, n)),
                max_rounds=6,
            )

        twins = twin_runs(build)
        assert twins.auto_run.executed_mode == "batch"
        assert twins.diverged == []
        sent = np.eye(n, dtype=bool)  # [dst, src]
        sent[:, 2] = sent[2, :] = True
        lower = np.tril(np.ones((n, n), dtype=bool))
        assert len(twins.scalar.matrices) == 6
        assert all(
            (matrix == (sent & lower)).all() for matrix in twins.scalar.matrices
        )


class TestPartitionEpisodes:
    """A partition episode fires when a message it cuts is lost, not
    because the plan lists it: a run that ends before the second
    partition's window counts one activation on every engine."""

    PLAN = FaultPlan(
        n=4,
        partitions=(
            Partition(((0, 1), (2, 3)), start_round=3, heal_round=6),
            Partition(((0, 2), (1, 3)), start_round=30, heal_round=33),
        ),
    )

    @pytest.mark.parametrize("algorithm", ["probe", "consensus"])
    def test_only_the_partition_the_run_reaches_fires(self, algorithm):
        def build():
            metrics = MetricsRegistry()
            if algorithm == "probe":
                return make_run(plan=self.PLAN, metrics=metrics)
            # Algorithm 2 under leader 2 takes the stepped path.
            return SyncRun(
                4,
                lambda pid: WlmConsensus(pid, 4, proposal=pid),
                FixedLeaderOracle(2),
                lambda sim: Transport(
                    sim, uniform_wan_profile(n=4, seed=0), metrics=metrics
                ),
                timeout=0.1,
                latency_table=np.full((4, 4), 0.02),
                max_rounds=15,
                fault_plan=self.PLAN,
                metrics=metrics,
            )

        twins = twin_runs(build)
        assert twins.auto_run.executed_mode == "batch"
        assert twins.diverged == []
        for run in (twins.scalar_run, twins.auto_run):
            assert run.metrics.value("transport.dropped", cause="partition") > 0
            assert run.metrics.value("faults.activations", kind="partition") == 1
