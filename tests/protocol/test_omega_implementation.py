"""Tests for the implementable Ω (HeartbeatOmega) and consensus on top.

The paper assumes an Ω oracle exists; this detector implements it from
observed deliveries.  These tests check the Ω property (eventual
agreement on a correct leader), leader re-election after a crash, and
consensus running end-to-end with the *implemented* detector instead of
an omniscient one.
"""

import numpy as np
import pytest

from repro.consensus import LmConsensus
from repro.core import WlmConsensus
from repro.faults import Crash, FaultPlan
from repro.giraf import (
    IIDSchedule,
    LockstepRunner,
    MatrixSchedule,
    StableAfterSchedule,
)
from repro.models.matrix import empty_matrix, full_matrix
from repro.obs.registry import MetricsRegistry
from repro.oracles import HeartbeatOmega
from tests.conftest import assert_safety


class TestHeartbeatOmegaUnit:
    def test_trusts_self_when_nothing_heard(self):
        omega = HeartbeatOmega(n=4)
        assert omega.query(2, 10) == 2

    def test_trusts_smallest_recently_heard(self):
        omega = HeartbeatOmega(n=4, suspicion_rounds=2)
        delivered = np.eye(4, dtype=bool)
        delivered[3, 1] = True  # node 3 hears node 1
        omega.observe_rows(5, delivered)
        assert omega.query(3, 5) == 1

    def test_suspicion_window_expires(self):
        omega = HeartbeatOmega(n=4, suspicion_rounds=2)
        delivered = np.eye(4, dtype=bool)
        delivered[3, 0] = True
        omega.observe_rows(5, delivered)
        assert omega.query(3, 6) == 0  # still in window
        omega.observe_rows(6, np.eye(4, dtype=bool))
        omega.observe_rows(7, np.eye(4, dtype=bool))
        assert omega.query(3, 7) == 0  # the window's oldest round still counts
        omega.observe_rows(8, np.eye(4, dtype=bool))
        assert omega.query(3, 8) == 3  # 0 expired; only self remains

    def test_validation(self):
        with pytest.raises(ValueError):
            HeartbeatOmega(n=0)
        with pytest.raises(ValueError):
            HeartbeatOmega(n=3, suspicion_rounds=0)
        with pytest.raises(ValueError):
            HeartbeatOmega(n=3).observe_rows(1, np.eye(4, dtype=bool))

    def test_a_repeated_row_is_refused_not_counted_twice(self):
        """``rows=(0, 0)`` used to count each of receiver 0's raised
        suspicions twice (4 instead of 2 here)."""
        metrics = MetricsRegistry()
        omega = HeartbeatOmega(n=3, suspicion_rounds=1, metrics=metrics)
        with pytest.raises(ValueError, match="row 0 given twice"):
            omega.observe_rows(5, np.eye(3, dtype=bool), rows=(0, 0))
        assert metrics.value("omega.suspicions_raised") == 0
        omega.observe_rows(5, np.eye(3, dtype=bool), rows=(0,))
        assert metrics.value("omega.suspicions_raised") == 2

    @pytest.mark.parametrize("row", [-1, 3, 7])
    def test_a_row_out_of_range_is_refused(self, row):
        """``rows=(-1,)`` used to feed the *last* receiver silently and
        ``rows=(7,)`` surfaced a bare NumPy ``IndexError``."""
        omega = HeartbeatOmega(n=3)
        with pytest.raises(ValueError, match=f"row {row} out of range"):
            omega.observe_rows(5, np.ones((3, 3), dtype=bool), rows=(1, row))
        assert not omega._last_heard.any()

    def test_replay_validates_its_arguments(self):
        omega = HeartbeatOmega(n=3)
        timely = np.ones((4, 3, 3), dtype=bool)
        with pytest.raises(ValueError, match="delivery matrix has wrong shape"):
            omega.replay(np.ones((4, 3, 2), dtype=bool), [4, 4, 4])
        with pytest.raises(ValueError, match="delivery matrix has wrong shape"):
            omega.replay(np.ones((3, 3), dtype=bool), [4, 4, 4])
        with pytest.raises(ValueError, match="need 3 last ended rounds"):
            omega.replay(timely, [4, 4])
        with pytest.raises(ValueError, match="receiver 1's last ended round 5"):
            omega.replay(timely, [4, 5, 4])
        with pytest.raises(ValueError, match="receiver 2's last ended round -1"):
            omega.replay(timely, [4, 4, -1])
        with pytest.raises(ValueError, match="unasked must mask rounds 0..4"):
            omega.replay(timely, [4, 4, 4], np.zeros(4, dtype=bool))
        assert not omega._last_heard.any() and not omega._last_output


class TestOmegaProperty:
    def test_converges_under_full_delivery(self):
        """With all-to-all timely delivery, every process trusts p_0
        within one round — the Ω property with GSR = 1."""
        omega = HeartbeatOmega(n=5)
        schedule = MatrixSchedule([full_matrix(5)])
        runner = LockstepRunner(
            5,
            lambda pid: WlmConsensus(pid, 5, pid),
            omega,
            schedule,
        )
        runner.run(max_rounds=6, stop_on_global_decision=False)
        assert all(omega.query(pid, 6) == 0 for pid in range(5))

    def test_reelects_after_leader_silence(self):
        """If p_0's messages stop arriving, trust moves to p_1 after the
        suspicion window."""
        n = 4
        omega = HeartbeatOmega(n=n, suspicion_rounds=2)
        all_but_zero = full_matrix(n)
        all_but_zero[:, 0] = False
        np.fill_diagonal(all_but_zero, True)
        schedule = MatrixSchedule([full_matrix(n)] * 3 + [all_but_zero])
        runner = LockstepRunner(
            n,
            lambda pid: WlmConsensus(pid, n, pid),
            omega,
            schedule,
            fault_plan=FaultPlan(n, crashes=(Crash(0, 4),)),
        )
        runner.run(max_rounds=10, stop_on_global_decision=False)
        for pid in range(1, n):
            assert omega.query(pid, 10) == 1


class TestConsensusWithImplementedOmega:
    @pytest.mark.parametrize("algorithm_cls", [WlmConsensus, LmConsensus])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decides_with_heartbeat_omega(self, algorithm_cls, seed):
        """The full stack with no omniscient oracle anywhere: chaos, then
        the model's conditions; the detector must find the leader and the
        algorithm must decide."""
        n = 5
        gsr = 6
        model = "WLM" if algorithm_cls is WlmConsensus else "LM"
        # Stability with leader 0: from GSR, p_0's column is timely, so
        # the heartbeat detector hears p_0 and converges on it.
        schedule = StableAfterSchedule(
            IIDSchedule(n, p=0.3, seed=seed),
            gsr=gsr,
            model=model,
            leader=0,
            seed=seed + 5,
        )
        omega = HeartbeatOmega(n=n, suspicion_rounds=2)
        runner = LockstepRunner(
            n,
            lambda pid: algorithm_cls(pid, n, (pid + 1) * 10),
            omega,
            schedule,
        )
        result = runner.run(max_rounds=60)
        assert_safety(result)
        assert result.all_correct_decided
        # A handful of rounds slower than the omniscient oracle (the
        # detector must observe before it can trust), still constant.
        assert result.global_decision_round <= gsr + 10

    def test_leader_crash_reelection_consensus(self):
        """p_0 leads, crashes mid-run; the detector re-elects p_1 and
        consensus still terminates on a valid value."""
        n = 5
        gsr = 8
        plan = FaultPlan(n, crashes=(Crash(0, 5),))
        schedule = StableAfterSchedule(
            IIDSchedule(n, p=0.5, seed=3),
            gsr=gsr,
            model="WLM",
            leader=1,  # post-GSR conditions hold for the new leader
            seed=11,
            correct=[1, 2, 3, 4],
        )
        omega = HeartbeatOmega(n=n, suspicion_rounds=2)
        runner = LockstepRunner(
            n,
            lambda pid: WlmConsensus(pid, n, (pid + 1) * 10),
            omega,
            schedule,
            fault_plan=plan,
        )
        result = runner.run(max_rounds=80)
        assert_safety(result)
        assert result.all_correct_decided
