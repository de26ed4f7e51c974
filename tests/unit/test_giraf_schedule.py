"""Unit tests for delivery schedules."""

import numpy as np
import pytest

from repro.faults import Crash, FaultPlan
from repro.giraf.oracle import NullOracle
from repro.giraf.runner import LockstepRunner
from repro.giraf.schedule import (
    IIDSchedule,
    IntermittentlyStableSchedule,
    MatrixSchedule,
    StableAfterSchedule,
)
from repro.models import get_model
from repro.models.matrix import empty_matrix, full_matrix
from repro.sync import HeartbeatAlgorithm


class TestMatrixSchedule:
    def test_uses_given_matrices_then_repeats_last(self):
        schedule = MatrixSchedule([empty_matrix(3), full_matrix(3)])
        assert (schedule.matrix(1) == empty_matrix(3)).all()
        assert schedule.matrix(2).all()
        assert schedule.matrix(99).all()

    def test_rounds_are_one_based(self):
        schedule = MatrixSchedule([full_matrix(2)])
        with pytest.raises(ValueError):
            schedule.matrix(0)

    def test_empty_matrix_list_rejected(self):
        with pytest.raises(ValueError):
            MatrixSchedule([])

    def test_non_boolean_matrix_rejected(self):
        with pytest.raises(ValueError):
            MatrixSchedule([np.ones((3, 3))])


class TestIIDSchedule:
    def test_matrices_deterministic_per_round(self):
        a = IIDSchedule(4, p=0.5, seed=9)
        b = IIDSchedule(4, p=0.5, seed=9)
        assert (a.matrix(7) == b.matrix(7)).all()

    def test_different_rounds_differ(self):
        schedule = IIDSchedule(6, p=0.5, seed=9)
        assert not (schedule.matrix(1) == schedule.matrix(2)).all()

    def test_diagonal_always_timely(self):
        schedule = IIDSchedule(5, p=0.0, seed=0)
        assert np.diagonal(schedule.matrix(1)).all()

    def test_p_one_delivers_everything(self):
        schedule = IIDSchedule(4, p=1.0, seed=0)
        assert schedule.matrix(3).all()

    def test_empirical_rate_near_p(self):
        schedule = IIDSchedule(8, p=0.8, seed=1)
        off = ~np.eye(8, dtype=bool)
        rate = np.mean([schedule.matrix(k)[off].mean() for k in range(1, 200)])
        assert 0.77 < rate < 0.83

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            IIDSchedule(4, p=1.5)


class TestStableAfterSchedule:
    @pytest.mark.parametrize("model_name", ["ES", "LM", "WLM", "AFM"])
    def test_model_satisfied_from_gsr(self, model_name):
        base = IIDSchedule(6, p=0.2, seed=3)
        schedule = StableAfterSchedule(base, gsr=4, model=model_name, leader=2)
        model = get_model(model_name)
        leader = 2 if model.needs_leader else None
        for k in range(4, 15):
            assert model.satisfied(schedule.matrix(k), leader=leader)

    def test_pre_gsr_rounds_untouched(self):
        base = IIDSchedule(6, p=0.2, seed=3)
        schedule = StableAfterSchedule(base, gsr=5, model="ES", leader=0)
        for k in range(1, 5):
            assert (schedule.matrix(k) == base.matrix(k)).all()

    def test_repair_only_adds_links(self):
        base = IIDSchedule(6, p=0.2, seed=3)
        schedule = StableAfterSchedule(base, gsr=1, model="AFM")
        for k in range(1, 10):
            before = base.matrix(k)
            after = schedule.matrix(k)
            assert (after | before == after).all()  # after ⊇ before

    def test_gsr_must_be_positive(self):
        with pytest.raises(ValueError):
            StableAfterSchedule(IIDSchedule(4, p=0.5), gsr=0, model="ES")

    @pytest.mark.parametrize("leader", [-1, 4, 9])
    @pytest.mark.parametrize("schedule_type", ["stable-after", "intermittent"])
    def test_leader_outside_the_system_rejected_at_construction(
        self, schedule_type, leader
    ):
        """Not at the first good round: -1 would silently repair pid 3
        while the oracle names 0, and 9 would fail mid-run."""
        base = IIDSchedule(4, p=0.5)
        with pytest.raises(ValueError, match="out of range"):
            if schedule_type == "stable-after":
                StableAfterSchedule(base, gsr=3, model="LM", leader=leader)
            else:
                IntermittentlyStableSchedule(base, 0.5, model="LM", leader=leader)

    @pytest.mark.parametrize("model", ["LM", "WLM"])
    def test_leader_model_without_a_leader_rejected_at_construction(self, model):
        with pytest.raises(ValueError, match="needs a leader"):
            StableAfterSchedule(IIDSchedule(4, p=0.5), gsr=3, model=model)


class TestCrashPlan:
    """Crash timelines, stated as a :class:`FaultPlan` and realized by the
    lockstep runner."""

    @staticmethod
    def run(plan, rounds=4):
        n = plan.n
        return LockstepRunner(
            n, lambda pid: HeartbeatAlgorithm(pid, n), NullOracle(),
            MatrixSchedule([full_matrix(n)]), fault_plan=plan,
        ).run(max_rounds=rounds, stop_on_global_decision=False)

    def test_crashed_at_semantics(self):
        plan = FaultPlan(5, crashes=(Crash(1, 3),))
        assert not plan.down_at(1, 2)
        assert plan.down_at(1, 3)
        assert plan.down_at(1, 99)
        assert not plan.down_at(0, 99)
        # Process 1 sends in rounds 1 and 2 and is silent from round 3 on.
        sent = self.run(plan).sent_matrices
        assert [m[0, 1] for m in sent] == [True, True, False, False]

    def test_correct_set(self):
        plan = FaultPlan(5, crashes=(Crash(0, 2), Crash(3, 5)))
        assert plan.correct() == frozenset({1, 2, 4})
        assert self.run(plan).correct == frozenset({1, 2, 4})

    def test_majority_crash_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(5, crashes=(Crash(0, 1), Crash(1, 1), Crash(2, 1)))  # 3 >= ceil(5/2)

    def test_validate_accepts_minority(self):
        plan = FaultPlan(5, crashes=(Crash(0, 1), Crash(1, 1)))
        assert self.run(plan).correct == frozenset({2, 3, 4})

    def test_final_round_partial_send(self):
        plan = FaultPlan(3, crashes=(Crash(0, 2, final_sends=frozenset({1})),))
        sent = self.run(plan).sent_matrices
        assert sent[0][:, 0].all()  # round 1: a full broadcast
        assert sent[1][:, 0].tolist() == [True, True, False]  # dying in round 2
        assert not sent[2][1:, 0].any()  # dead in round 3
