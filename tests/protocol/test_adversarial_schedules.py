"""Failure injection with structured adversaries: partitions, loss
bursts, targeted silence.  Safety always; decision after healing.

Partitions and loss bursts are :class:`FaultPlan` windows over the
ordinary schedules; silencing one direction of one process is a
:class:`MatrixSchedule` script."""

import numpy as np
import pytest

from repro.faults import FaultPlan, LossBurst, Partition
from repro.giraf import (
    FixedLeaderOracle,
    IIDSchedule,
    LockstepRunner,
    MatrixSchedule,
    NullOracle,
    StableAfterSchedule,
)
from repro.models import satisfies_es
from repro.models.matrix import full_matrix
from tests.conftest import ALGORITHMS, assert_safety


def build_runner(name, schedule, n, leader=0, fault_plan=None):
    oracle = NullOracle() if name in ("ES", "AFM") else FixedLeaderOracle(leader)
    return LockstepRunner(
        n,
        lambda pid: ALGORITHMS[name](pid, n, (pid + 1) * 10),
        oracle,
        schedule,
        fault_plan=fault_plan,
    )


def partition(n, groups, heal_round):
    """Cross-group messages are lost in rounds ``[1, heal_round)``."""
    return FaultPlan(n, partitions=(Partition(tuple(groups), 1, heal_round),))


def periodic_bursts(n, calm_rounds, burst_rounds, last_round, drop_prob, seed=0):
    """Rounds cycle through ``calm_rounds`` calm rounds then
    ``burst_rounds`` rounds whose messages each drop with ``drop_prob``."""
    period = calm_rounds + burst_rounds
    return FaultPlan(
        n,
        loss_bursts=tuple(
            LossBurst(start, start + burst_rounds - 1, drop_prob)
            for start in range(calm_rounds + 1, last_round + 1, period)
        ),
        seed=seed,
    )


def silence(n, victim, until_round, incoming=True, outgoing=True):
    """A script that cuts ``victim``'s incoming and/or outgoing links
    until ``until_round``, everything else timely."""
    muted = full_matrix(n)
    if incoming:
        muted[victim, :] = False
    if outgoing:
        muted[:, victim] = False
    muted[victim, victim] = True
    return MatrixSchedule([muted] * (until_round - 1) + [full_matrix(n)])


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestPartitions:
    def test_split_brain_minority_majority(self, name):
        """2-3 split of 5 processes for 8 rounds: nobody in the minority
        may decide against the majority; after healing, all decide."""
        n = 5
        plan = partition(n, [(0, 1), (2, 3, 4)], heal_round=9)
        runner = build_runner(
            name, MatrixSchedule([full_matrix(n)]), n, fault_plan=plan
        )
        result = runner.run(max_rounds=80)
        assert_safety(result)
        assert result.all_correct_decided

    def test_even_split_cannot_decide_during_partition(self, name):
        """A 3-3 split of 6: neither half holds a majority (majority of
        6 is 4), so no decision can happen before healing."""
        n = 6
        heal = 12
        plan = partition(n, [(0, 1, 2), (3, 4, 5)], heal_round=heal)
        runner = build_runner(
            name, MatrixSchedule([full_matrix(n)]), n, fault_plan=plan
        )
        result = runner.run(max_rounds=90)
        assert_safety(result)
        for pid, decided_round in result.decision_rounds.items():
            assert decided_round >= heal, (pid, decided_round)
        assert result.all_correct_decided

    def test_three_way_partition(self, name):
        """Lossy groups (80 % timely inside each) until the heal; the
        whole network is timely from then on."""
        n = 7
        heal = 7
        plan = partition(n, [(0, 1), (2, 3), (4, 5, 6)], heal_round=heal)
        schedule = StableAfterSchedule(
            IIDSchedule(n, p=0.8), gsr=heal, model="ES"
        )
        result = build_runner(name, schedule, n, fault_plan=plan).run(
            max_rounds=80
        )
        assert_safety(result)
        assert result.all_correct_decided


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestBurstyLoss:
    def test_safe_and_eventually_decides_between_bursts(self, name):
        """Calm rounds 99.5 % timely, three-round bursts 2 % timely."""
        n = 5
        plan = periodic_bursts(
            n, calm_rounds=10, burst_rounds=3, last_round=120,
            drop_prob=1 - 0.02 / 0.995, seed=4,
        )
        schedule = IIDSchedule(n, p=0.995, seed=4)
        result = build_runner(name, schedule, n, fault_plan=plan).run(
            max_rounds=120
        )
        assert_safety(result)
        assert result.all_correct_decided

    def test_pure_burst_storm_is_safe(self, name):
        """Nearly continuous bursts: may never decide, must never err."""
        n = 5
        plan = periodic_bursts(
            n, calm_rounds=1, burst_rounds=9, last_round=60, drop_prob=1.0
        )
        schedule = IIDSchedule(n, p=0.6, seed=5)
        result = build_runner(name, schedule, n, fault_plan=plan).run(
            max_rounds=60
        )
        assert_safety(result)


class TestBurstConcentrationEffect:
    def test_bursts_beat_iid_at_equal_p(self):
        """The Section 5.2 observation, reconstructed: at the same overall
        delivery fraction, concentrated lateness satisfies ES far more
        often than IID lateness — late messages ruin few rounds instead
        of a little of every round."""
        n = 8
        rounds = range(1, 201)
        plan = periodic_bursts(
            n, calm_rounds=9, burst_rounds=1, last_round=200, drop_prob=1.0
        )
        bursty_matrices = plan.apply_to_matrices(
            np.stack([full_matrix(n)] * len(rounds))
        )
        overall_p = float(
            np.mean([m[~np.eye(n, dtype=bool)].mean() for m in bursty_matrices])
        )
        iid = IIDSchedule(n, p=overall_p, seed=2)
        iid_matrices = [iid.matrix(k) for k in rounds]
        p_es_bursty = np.mean([satisfies_es(m) for m in bursty_matrices])
        p_es_iid = np.mean([satisfies_es(m) for m in iid_matrices])
        assert p_es_bursty > p_es_iid + 0.3


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestTargetedSilence:
    def test_silenced_leader_delays_but_never_breaks(self, name):
        """The designated leader is mute for 6 rounds; consensus happens
        after it reappears (the oracle keeps trusting it, as Ω may)."""
        n = 5
        schedule = silence(n, victim=0, until_round=7)
        result = build_runner(name, schedule, n, leader=0).run(max_rounds=40)
        assert_safety(result)
        assert result.all_correct_decided

    def test_silenced_follower_is_tolerated(self, name):
        n = 5
        schedule = silence(n, victim=3, until_round=6, incoming=False)
        result = build_runner(name, schedule, n, leader=0).run(max_rounds=40)
        assert_safety(result)
        assert result.all_correct_decided


class TestScheduleValidation:
    def test_partition_group_coverage(self):
        with pytest.raises(ValueError):
            partition(4, [(0, 1)], heal_round=3)
        with pytest.raises(ValueError):
            partition(4, [(0, 1), (1, 2, 3)], heal_round=3)

    def test_bursty_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(4, loss_bursts=(LossBurst(3, 2),))
        with pytest.raises(ValueError):
            FaultPlan(4, loss_bursts=(LossBurst(1, 2, drop_prob=1.5),))

    def test_silence_validation(self):
        # Cutting the victim's whole row and column also cuts its
        # self-link, which no round matrix may do.
        isolated = full_matrix(4)
        isolated[1, :] = isolated[:, 1] = False
        with pytest.raises(ValueError):
            MatrixSchedule([isolated, full_matrix(4)])
        with pytest.raises(ValueError):
            MatrixSchedule([full_matrix(4), full_matrix(5)])
