"""Unit tests for the declarative fault-plan language."""

from dataclasses import replace

import numpy as np
import pytest

from repro.faults import (
    ClockStep,
    Crash,
    FaultPlan,
    LeaderChurn,
    LossBurst,
    Partition,
    SlowNode,
)
from repro.giraf import LockstepRunner, MatrixSchedule, NullOracle
from repro.sync import HeartbeatAlgorithm


def full_stack(rounds, n):
    return np.ones((rounds, n, n), dtype=bool)


class TestValidation:
    def test_too_many_crashing_processes_rejected(self):
        with pytest.raises(ValueError, match="n/2"):
            FaultPlan(n=4, crashes=(Crash(0, 1), Crash(1, 2)))

    def test_recovering_crashes_also_count_toward_the_bound(self):
        with pytest.raises(ValueError, match="n/2"):
            FaultPlan(
                n=4,
                crashes=(Crash(0, 1, recover_round=5), Crash(1, 2)),
            )

    def test_recovery_must_follow_crash(self):
        with pytest.raises(ValueError, match="recovery"):
            FaultPlan(n=3, crashes=(Crash(0, 5, recover_round=5),))

    def test_final_sends_incompatible_with_recovery(self):
        with pytest.raises(ValueError, match="final_sends"):
            FaultPlan(
                n=3,
                crashes=(
                    Crash(0, 5, recover_round=9, final_sends=frozenset({1})),
                ),
            )

    def test_final_sends_must_name_processes_of_the_system(self):
        # Out-of-range targets used to vanish silently in the lockstep
        # runner's ``targets & final_sends``.
        for targets in ({0, 3}, {-1}):
            with pytest.raises(ValueError, match="final_sends"):
                FaultPlan(
                    n=3, crashes=(Crash(1, 2, final_sends=frozenset(targets)),)
                )

    def test_partition_must_cover_all_processes(self):
        with pytest.raises(ValueError, match="cover"):
            FaultPlan(
                n=4,
                partitions=(Partition(((0, 1),), 2, 5),),
            )

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(n=3, loss_bursts=(LossBurst(1, 3, drop_prob=1.5),))
        with pytest.raises(ValueError):
            FaultPlan(n=3, slow_nodes=(SlowNode(0, 1, 3, drop_prob=-0.1),))

    def test_slow_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            FaultPlan(n=3, slow_nodes=(SlowNode(0, 1, 3, factor=0.5),))

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_non_finite_slow_factor_rejected(self, factor):
        # NaN passes a ``factor < 1.0`` guard and would reach the
        # simulator as a NaN delivery time.
        with pytest.raises(ValueError, match="factor"):
            FaultPlan(n=3, slow_nodes=(SlowNode(0, 1, 3, factor=factor),))

    @pytest.mark.parametrize(
        "offset", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_clock_step_offset_rejected(self, offset):
        # ``max(0.0, nan)`` is 0.0: the stepped round timer would fire
        # immediately and silently.
        with pytest.raises(ValueError, match="offset"):
            FaultPlan(n=3, clock_steps=(ClockStep(0, 2, offset=offset),))


class TestTimeline:
    def test_down_at_window(self):
        plan = FaultPlan(n=4, crashes=(Crash(1, 5, recover_round=9),))
        assert not plan.down_at(1, 4)
        assert plan.down_at(1, 5)
        assert plan.down_at(1, 8)
        assert not plan.down_at(1, 9)

    def test_permanent_crash_never_recovers(self):
        plan = FaultPlan(n=4, crashes=(Crash(1, 5),))
        assert plan.down_at(1, 500)
        assert plan.correct() == frozenset({0, 2, 3})

    def test_quiet_after_covers_every_fault(self):
        plan = FaultPlan(
            n=6,
            crashes=(Crash(0, 2, recover_round=7),),
            loss_bursts=(LossBurst(3, 11),),
            partitions=(Partition(((0, 1, 2), (3, 4, 5)), 4, 15),),
            slow_nodes=(SlowNode(5, 1, 9),),
            clock_steps=(ClockStep(2, 13, 0.1),),
            leader_churn=(LeaderChurn(1, 8),),
        )
        assert plan.quiet_after() == 14
        assert plan.mask(plan.quiet_after() + 1).sum() == 0

    def test_permanent_crash_keeps_masking_after_quiet(self):
        plan = FaultPlan(n=4, crashes=(Crash(1, 3),))
        assert plan.quiet_after() == 0
        assert plan.mask(10)[1].sum() == 3  # row dead (diagonal exempt)
        assert plan.mask(10)[:, 1].sum() == 3


class TestMask:
    def test_mask_is_deterministic_per_round(self):
        plan = FaultPlan(n=5, loss_bursts=(LossBurst(1, 20, 0.5),), seed=9)
        assert (plan.mask(7) == plan.mask(7)).all()
        # Distinct rounds draw from distinct streams.
        assert (plan.mask(7) != plan.mask(8)).any()

    def test_mask_never_touches_diagonal(self):
        plan = FaultPlan(
            n=4,
            crashes=(Crash(0, 1, recover_round=9),),
            loss_bursts=(LossBurst(1, 9, 1.0),),
            partitions=(Partition(((0, 1), (2, 3)), 1, 9),),
        )
        assert not plan.mask(5).diagonal().any()

    def test_partition_masks_exactly_cross_group_links(self):
        plan = FaultPlan(
            n=4, partitions=(Partition(((0, 1), (2, 3)), 2, 6),)
        )
        mask = plan.mask(3)
        for dst in range(4):
            for src in range(4):
                crosses = (src < 2) != (dst < 2)
                assert mask[dst, src] == crosses, (dst, src)
        assert plan.mask(6).sum() == 0  # healed

    def test_frozen_process_is_fully_silenced(self):
        plan = FaultPlan(n=4, crashes=(Crash(2, 3, recover_round=6),))
        mask = plan.mask(4)
        assert mask[2, [0, 1, 3]].all()
        assert mask[[0, 1, 3], 2].all()
        assert plan.mask(6).sum() == 0

    def test_total_burst_kills_everything_off_diagonal(self):
        plan = FaultPlan(n=4, loss_bursts=(LossBurst(2, 4, 1.0),))
        assert plan.mask(3).sum() == 12

    def test_slow_node_only_affects_its_links(self):
        plan = FaultPlan(n=5, slow_nodes=(SlowNode(2, 1, 9, drop_prob=1.0),))
        mask = plan.mask(4)
        others = [0, 1, 3, 4]
        assert mask[2, others].all() and mask[others, 2].all()
        assert mask[np.ix_(others, others)].sum() == 0


    def test_a_round_that_draws_nothing_seeds_no_generator(self, monkeypatch):
        plan = FaultPlan(
            n=5,
            crashes=(Crash(0, 2, recover_round=4),),
            loss_bursts=(LossBurst(6, 7, 0.5),),
            partitions=(Partition(((0, 1), (2, 3, 4)), 3, 5),),
            slow_nodes=(SlowNode(4, 9, 9, drop_prob=0.5),),
            seed=9,
        )
        # An equal plan's masks: ``plan`` has drawn nothing yet, and a
        # bursty round draws once.
        expected = {k: replace(plan).mask(k) for k in range(1, 12)}
        seeded, rng = [], FaultPlan.rng

        def counted(self, *parts):
            seeded.append(parts[1])
            return rng(self, *parts)

        monkeypatch.setattr(FaultPlan, "rng", counted)
        for k, mask in expected.items():
            assert (plan.mask(k) == mask).all()
        # Only the burst's and the slow node's rounds draw; crash and
        # partition rounds are tabulated, quiet rounds empty.
        assert seeded == [6, 7, 9]
        # Every drawing round is memoized, the slow node's rows with the
        # bursts' blocks: asking again draws nothing.
        seeded.clear()
        for k, mask in expected.items():
            assert (plan.mask(k) == mask).all()
        assert seeded == []

    def test_a_burst_and_a_slow_node_share_one_seeding(self, monkeypatch):
        """A round with both a live burst and an active slow node seeds
        ``rng("mask", k)`` once: the slow rows come from the generator
        that drew the bursts' blocks, and ``burst_hits`` and ``mask``
        read the same memo."""
        plan = FaultPlan(
            n=5,
            loss_bursts=(LossBurst(3, 6, 0.4), LossBurst(5, 7, 0.7)),
            slow_nodes=(SlowNode(2, 4, 8, drop_prob=0.5),),
            seed=11,
        )
        seeded, rng = [], FaultPlan.rng

        def counted(self, *parts):
            seeded.append(parts)
            return rng(self, *parts)

        monkeypatch.setattr(FaultPlan, "rng", counted)
        for k in range(1, 10):
            plan.burst_hits(k)
            plan.mask(k)
            plan.mask(k)
        assert seeded == [("mask", k) for k in range(3, 9)]
        # The one generator, replayed: bursts' blocks, then the rows.
        k = 5
        draws = rng(plan, "mask", k)
        blocks = draws.random((2, 5, 5))
        rows = draws.random((2, 5)) < 0.5
        hits = blocks < np.reshape([0.4, 0.7], (-1, 1, 1))
        assert (plan.burst_hits(k) == hits).all()
        expected = hits.any(axis=0)
        expected[2, :] |= rows[0]
        expected[:, 2] |= rows[1]
        np.fill_diagonal(expected, False)
        assert (plan.mask(k) == expected).all()


class TestApplication:
    def test_apply_to_matrices_masks_and_preserves_diagonal(self):
        plan = FaultPlan(n=4, loss_bursts=(LossBurst(2, 3, 1.0),))
        faulted = plan.apply_to_matrices(full_stack(5, 4))
        assert faulted[0].all()  # round 1 untouched
        assert faulted[1].sum() == 4 and faulted[1].diagonal().all()
        assert faulted[2].sum() == 4
        assert faulted[3].all() and faulted[4].all()
        # A stack of runs is the per-run calls stacked: each round's mask
        # is drawn the same, once, for every run.
        noisy = FaultPlan(
            n=4,
            loss_bursts=(LossBurst(2, 4, 0.5),),
            slow_nodes=(SlowNode(pid=3, start_round=1, end_round=5, drop_prob=0.5),),
            seed=3,
        )
        runs = np.random.default_rng(0).random((3, 6, 4, 4)) < 0.8
        stacked = noisy.apply_to_matrices(runs)
        assert stacked.dtype == bool and stacked.shape == runs.shape
        assert np.array_equal(
            stacked, np.stack([noisy.apply_to_matrices(run) for run in runs])
        )
        assert not np.array_equal(stacked, runs)

    def test_apply_does_not_mutate_input(self):
        stack = full_stack(4, 4)
        FaultPlan(n=4, loss_bursts=(LossBurst(1, 4, 1.0),)).apply_to_matrices(
            stack
        )
        assert stack.all()

    def test_to_crash_plan_keeps_only_permanent_crashes(self):
        """The lockstep runner kills the permanent crashes only; a
        recovering crash freezes through the mask and stays correct."""
        plan = FaultPlan(
            n=7,
            crashes=(
                Crash(1, 4, recover_round=9),
                Crash(3, 6, final_sends=frozenset({0, 2})),
                Crash(5, 2),
            ),
        )
        runner = LockstepRunner(
            7, lambda pid: HeartbeatAlgorithm(pid, 7), NullOracle(),
            MatrixSchedule([np.ones((7, 7), dtype=bool)]), fault_plan=plan,
        )
        result = runner.run(max_rounds=10, stop_on_global_decision=False)
        assert result.correct == frozenset({0, 1, 2, 4, 6})
        senders = [set(np.flatnonzero(m.sum(axis=0) > 1)) for m in result.sent_matrices]
        assert senders[0] == set(range(7))
        assert senders[1] == senders[4] == {0, 1, 2, 3, 4, 6}
        assert senders[5] == {0, 1, 2, 3, 4, 6}  # pid 3's dying round
        assert result.sent_matrices[5][:, 3].tolist() == [1, 0, 1, 1, 0, 0, 0]
        assert senders[6] == senders[9] == {0, 1, 2, 4, 6}

    def test_final_sends_survive_the_dying_processs_own_mask(self):
        """In its crash round a process dying mid-broadcast still reaches
        its ``final_sends``, masked only by that round's other faults."""
        plan = FaultPlan(
            n=5,
            crashes=(Crash(0, 3, final_sends=frozenset({1, 2, 4})), Crash(4, 2)),
            partitions=(Partition(((0, 1, 3), (2, 4)), 3, 4),),
        )
        faulted = plan.apply_to_matrices(full_stack(4, 5))
        # Round 3: 1 hears it; 2 is across the partition; 4 is dead.
        assert faulted[2][:, 0].tolist() == [True, True, False, False, False]
        assert faulted[1][:, 0].tolist() == [True, True, True, True, False]
        assert faulted[3][:, 0].tolist() == [True, False, False, False, False]

    def test_churn_leader_deterministic_and_in_range(self):
        plan = FaultPlan(n=6, leader_churn=(LeaderChurn(1, 30),), seed=3)
        leaders = [plan.churn_leader(k) for k in range(1, 31)]
        assert leaders == [plan.churn_leader(k) for k in range(1, 31)]
        assert all(0 <= leader < 6 for leader in leaders)
        assert len(set(leaders)) > 1  # it actually churns

    def test_seed_changes_realization(self):
        base = dict(n=5, loss_bursts=(LossBurst(1, 10, 0.5),))
        a = FaultPlan(seed=1, **base)
        b = FaultPlan(seed=2, **base)
        assert any((a.mask(k) != b.mask(k)).any() for k in range(1, 11))
