"""Integration tests: one FaultPlan drives both execution paths.

The acceptance bar for the fault subsystem: a single declarative plan,
injected into the lockstep GIRAF runner and into the event-driven
round-sync stack, produces bit-reproducible runs from its seed, and the
structural faults (crashes, partitions) are realized identically on both
paths.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.consensus import EsConsensus
from repro.core import WlmConsensus
from repro.faults import (
    ClockStep,
    Crash,
    FaultPlan,
    LeaderChurn,
    LossBurst,
    Partition,
    PlanLinkFaults,
    SlowNode,
)
from repro.giraf import IIDSchedule, LockstepRunner, NullOracle, StableAfterSchedule
from repro.giraf.kernel import GirafAlgorithm
from repro.giraf.oracle import EventuallyStableLeaderOracle
from repro.giraf.process import GirafProcess
from repro.net import planetlab_profile
from repro.obs.registry import MetricsRegistry
from repro.sim import Clock, Simulator, Transport
from repro.sync import HeartbeatAlgorithm, SyncRun
from repro.sync.round_sync import RoundLog, SyncedNode
from tests.conftest import FixedLatency


N = 5
TIMEOUT = 0.2


def rich_plan(seed=11):
    return FaultPlan(
        n=N,
        crashes=(Crash(1, 3, recover_round=6), Crash(4, 8)),
        loss_bursts=(LossBurst(2, 4, drop_prob=0.6),),
        partitions=(Partition(((0, 1, 2), (3, 4)), 5, 7),),
        leader_churn=(LeaderChurn(2, 5),),
        seed=seed,
    )


def lockstep_run(plan, seed=1):
    schedule = StableAfterSchedule(
        IIDSchedule(N, p=0.2, seed=seed),
        gsr=plan.quiet_after() + 2,
        model="WLM",
        leader=0,
        seed=seed + 1,
        correct=sorted(plan.correct()),
    )
    oracle = EventuallyStableLeaderOracle(
        leader=0, stable_from=plan.quiet_after() + 2, n=N, seed=seed + 2
    )
    runner = LockstepRunner(
        N,
        lambda pid: WlmConsensus(pid, N, 10 * (pid + 1)),
        oracle,
        schedule,
        fault_plan=plan,
    )
    return runner.run(max_rounds=40, stop_on_global_decision=False)


def event_run(plan, max_rounds=12):
    table = np.full((N, N), 0.05)
    np.fill_diagonal(table, 0.0)
    run = SyncRun(
        N,
        lambda pid: HeartbeatAlgorithm(pid, N),
        NullOracle(),
        lambda sim: Transport(sim, FixedLatency(0.05)),
        timeout=TIMEOUT,
        latency_table=table,
        max_rounds=max_rounds,
        fault_plan=plan,
    )
    return run, run.run()


class TestSeedReproducibility:
    def test_lockstep_path_is_bit_reproducible(self):
        a = lockstep_run(rich_plan())
        b = lockstep_run(rich_plan())
        assert a.rounds_executed == b.rounds_executed
        for left, right in zip(a.delivered_matrices, b.delivered_matrices):
            assert (left == right).all()
        assert a.decisions == b.decisions

    def test_event_path_is_bit_reproducible(self):
        _, a = event_run(rich_plan())
        _, b = event_run(rich_plan())
        assert len(a.matrices) == len(b.matrices)
        for left, right in zip(a.matrices, b.matrices):
            assert (left == right).all()
        assert np.allclose(a.sync_error, b.sync_error, equal_nan=True)

    def test_seed_changes_the_realization(self):
        _, a = event_run(rich_plan(seed=11))
        _, b = event_run(rich_plan(seed=12))
        assert any(
            (x != y).any() for x, y in zip(a.matrices, b.matrices)
        )

    def test_structural_faults_agree_across_paths(self):
        """Crashes and partitions carry no randomness, so the lockstep
        mask and the event path's drop decisions must agree exactly,
        round for round and link for link."""
        plan = FaultPlan(
            n=N,
            crashes=(Crash(1, 3, recover_round=6), Crash(4, 8)),
            partitions=(Partition(((0, 1, 2), (3, 4)), 5, 7),),
            seed=7,
        )
        lockstep = LockstepRunner(
            N,
            lambda pid: HeartbeatAlgorithm(pid, N),
            NullOracle(),
            IIDSchedule(N, p=1.0, seed=0),
            fault_plan=plan,
        ).run(max_rounds=11, stop_on_global_decision=False)
        link_faults = PlanLinkFaults(plan, TIMEOUT)
        for k in range(1, 12):
            mid_round = (k - 0.5) * TIMEOUT
            mask = plan.mask(k)
            delivered = lockstep.delivered_matrices[k - 1]
            for src in range(N):
                for dst in range(N):
                    if src == dst:
                        continue
                    lockstep_lost = not delivered[dst, src]
                    event_lost = link_faults.drop(src, dst, mid_round)
                    assert lockstep_lost == event_lost == mask[dst, src], (
                        k, src, dst,
                    )


class TestEventPathFaults:
    def test_frozen_node_is_silent_then_rejoins(self):
        plan = FaultPlan(n=N, crashes=(Crash(1, 3, recover_round=6),))
        run, result = event_run(plan)
        stack = np.stack(result.matrices)
        # Mid-freeze rounds: nothing from node 1 reaches anyone, and the
        # frozen node executes no rounds of its own.
        others = [pid for pid in range(N) if pid != 1]
        for k in (4, 5):
            assert not stack[k - 1][others, 1].any(), k
            assert not stack[k - 1][1].any(), k
        # After recovery it is heard again.
        tail = stack[7:]
        assert tail[:, others, 1].any()
        assert not run.nodes[1].crashed

    def test_permanent_crash_kills_for_good(self):
        plan = FaultPlan(n=N, crashes=(Crash(2, 4),))
        run, result = event_run(plan)
        assert run.nodes[2].crashed_permanently
        stack = np.stack(result.matrices)
        assert not stack[4:][:, :, 2].any()  # never heard again
        # The survivors' trace is not truncated at the crash round.
        assert len(result.matrices) >= 10

    def test_total_burst_blacks_out_the_wire(self):
        plan = FaultPlan(n=N, loss_bursts=(LossBurst(3, 5, drop_prob=1.0),))
        _, result = event_run(plan)
        clean_plan = FaultPlan(n=N)
        _, clean = event_run(clean_plan)
        burst_rounds = np.stack(result.matrices)[2:5]
        off_diagonal = ~np.eye(N, dtype=bool)
        assert not (burst_rounds & off_diagonal).any()
        clean_rounds = np.stack(clean.matrices)[2:5]
        assert (clean_rounds & off_diagonal).any()

    def test_churn_overrides_the_oracle_on_event_path(self):
        plan = FaultPlan(n=N, leader_churn=(LeaderChurn(1, 8),), seed=5)
        table = np.full((N, N), 0.05)
        np.fill_diagonal(table, 0.0)
        run = SyncRun(
            N,
            lambda pid: HeartbeatAlgorithm(pid, N),
            EventuallyStableLeaderOracle(
                leader=0, stable_from=0, n=N, seed=1
            ),
            lambda sim: Transport(sim, FixedLatency(0.05)),
            timeout=TIMEOUT,
            latency_table=table,
            max_rounds=10,
            fault_plan=plan,
        )
        oracle = run.nodes[0].oracle
        churned = [oracle.query(0, k) for k in range(1, 9)]
        assert churned == [plan.churn_leader(k) for k in range(1, 9)]
        assert oracle.query(0, 9) == 0  # window over: base oracle speaks

    def test_mismatched_plan_size_rejected(self):
        with pytest.raises(ValueError, match="n="):
            event_run(FaultPlan(n=N + 1))


class TestQuietBroadcast:
    """A broadcast that finds :class:`PlanLinkFaults` quiet skips the
    per-message questions; with the query switched off the same policy is
    asked about every message, as a foreign policy is.  Both must be the
    same run, to the last counter."""

    PLAN = FaultPlan(
        n=N,
        crashes=(Crash(1, 3, recover_round=6),),
        clock_steps=(ClockStep(2, 8, offset=0.03),),
        loss_bursts=(LossBurst(10, 12, drop_prob=0.5),),
        slow_nodes=(SlowNode(3, 14, 16, factor=2.0),),
        seed=5,
    )

    @classmethod
    def observe(cls, link_model, quiet):
        table = np.full((N, N), 0.05)
        np.fill_diagonal(table, 0.0)
        metrics = MetricsRegistry()
        run = SyncRun(
            N,
            lambda pid: HeartbeatAlgorithm(pid, N),
            NullOracle(),
            lambda sim: Transport(sim, link_model(), metrics=metrics),
            timeout=TIMEOUT,
            latency_table=table,
            max_rounds=25,
            fault_plan=cls.PLAN,
            metrics=metrics,
        )
        policy = run.link_faults
        if not quiet:
            policy.quiet = None  # a policy without the query
        asked = []
        drop = policy.drop
        policy.drop = lambda *link: asked.append(link) or drop(*link)
        result = run.run()
        assert run.executed_mode == "scalar"
        return run, result, metrics.snapshot(), len(asked)

    @pytest.mark.parametrize(
        "link_model",
        [lambda: FixedLatency(0.05), lambda: planetlab_profile(seed=3, slow_run_prob=0.0)],
        ids=["scalar-sampled", "streamed"],
    )
    def test_quiet_shortcut_changes_nothing_but_the_questions(self, link_model):
        run, result, snapshot, asked = self.observe(link_model, quiet=True)
        twin, expected, expected_snapshot, asked_all = self.observe(
            link_model, quiet=False
        )
        np.testing.assert_array_equal(result.matrices, expected.matrices)
        np.testing.assert_array_equal(result.sync_error, expected.sync_error)
        assert result.round_durations == expected.round_durations
        assert result.jumps == expected.jumps
        assert result.late_messages == expected.late_messages
        assert result.correct == expected.correct
        assert snapshot == expected_snapshot
        counters = snapshot["counters"]
        for kind in ("crash", "recover", "clock-step", "loss-burst"):
            assert any(kind in name for name in counters), kind
        assert any("dropped" in name for name in counters)
        assert run.link_faults._seen_activations == twin.link_faults._seen_activations
        assert run.simulator.events_processed == twin.simulator.events_processed
        # Not vacuous: most broadcasts were quiet, some were not.
        assert 0 < asked < asked_all / 2


class TestClockSteps:
    @staticmethod
    def stepped_node(offset, at=0.5, timeout=1.0):
        simulator = Simulator()
        transport = Transport(simulator, FixedLatency(0.05))
        node = SyncedNode(
            process=GirafProcess(0, HeartbeatAlgorithm(0, 2)),
            oracle=NullOracle(),
            transport=transport,
            simulator=simulator,
            clock=Clock(),
            timeout=timeout,
            latency_estimates=[0.0, 0.1],
            log=RoundLog(2),
            max_rounds=5,
        )
        simulator.schedule(at, lambda: node.apply_clock_step(offset))
        simulator.run(until=6.0)
        return node

    def test_forward_step_shortens_the_running_round(self):
        node = self.stepped_node(+0.3)
        assert node.log.ends[1, 0] == pytest.approx(0.7, abs=1e-9)
        # Subsequent rounds are full length again.
        assert node.log.ends[2, 0] - node.log.starts[2, 0] == pytest.approx(1.0)

    def test_backward_step_stretches_the_running_round(self):
        node = self.stepped_node(-0.3)
        assert node.log.ends[1, 0] == pytest.approx(1.3, abs=1e-9)

    def test_huge_forward_step_fires_immediately_not_in_the_past(self):
        node = self.stepped_node(+10.0)
        assert node.log.ends[1, 0] == pytest.approx(0.5, abs=1e-9)

    def test_step_through_sync_run_plan(self):
        plan = FaultPlan(n=N, clock_steps=(ClockStep(0, 2, 0.1),))
        run, result = event_run(plan)
        durations = (run.log.ends - run.log.starts)[:, 0]
        # Round 2 lost the step's 0.1 s.
        assert durations[2] == pytest.approx(TIMEOUT - 0.1, abs=1e-6)


class TestLockstepConsensusUnderFaults:
    def test_es_decides_after_the_plan_goes_quiet(self):
        plan = FaultPlan(
            n=N,
            crashes=(Crash(3, 2, recover_round=5),),
            loss_bursts=(LossBurst(1, 6, drop_prob=0.8),),
            seed=3,
        )
        gsr = plan.quiet_after() + 2
        schedule = StableAfterSchedule(
            IIDSchedule(N, p=0.5, seed=1),
            gsr=gsr,
            model="ES",
            leader=0,
            seed=2,
        )
        runner = LockstepRunner(
            N,
            lambda pid: EsConsensus(pid, N, pid + 1),
            NullOracle(),
            schedule,
            fault_plan=plan,
        )
        result = runner.run(max_rounds=gsr + 20)
        assert result.agreement_holds() and result.validity_holds()
        assert result.all_correct_decided

    def test_each_rounds_mask_is_computed_once(self, monkeypatch):
        """The runner decides every message of a round against one mask:
        60 builds (RNG draws included) for these 60 rounds of ◊LM at
        n = 8, not one per message (3 360).  The conformance plan's slow
        node goes: the mask refuses it."""
        from repro.faults.catalog import build
        from repro.consensus import LmConsensus
        from repro.giraf import FixedLeaderOracle

        plan = replace(build("canonical", 8, 60), slow_nodes=())
        computed = []
        mask = FaultPlan.mask
        monkeypatch.setattr(
            FaultPlan, "mask", lambda self, k: computed.append(k) or mask(self, k)
        )
        runner = LockstepRunner(
            8,
            lambda pid: LmConsensus(pid, 8, pid + 1),
            FixedLeaderOracle(0),
            IIDSchedule(8, p=0.9, seed=1),
            fault_plan=plan,
        )
        result = runner.run(max_rounds=60, stop_on_global_decision=False)
        assert result.rounds_executed == 60
        assert sorted(computed) == sorted(set(computed))
        assert 0 < len(computed) <= 60
