"""Unit tests for the lockstep runner's mechanics (not protocol logic)."""

import numpy as np
import pytest

from repro.core import WlmConsensus
from repro.faults import Crash, FaultPlan
from repro.giraf.kernel import GirafAlgorithm, RoundOutput
from repro.giraf.oracle import FixedLeaderOracle, NullOracle
from repro.giraf.runner import LockstepRunner
from repro.giraf.schedule import IIDSchedule, MatrixSchedule
from repro.models.matrix import full_matrix, empty_matrix


class Collector(GirafAlgorithm):
    """Broadcasts its pid; records who it heard each round."""

    def __init__(self, pid: int, n: int):
        self.pid = pid
        self.n = n
        self.heard: dict[int, frozenset[int]] = {}

    def initialize(self, oracle_output):
        return RoundOutput(self.pid, frozenset(range(self.n)))

    def compute(self, round_number, messages, oracle_output):
        self.heard[round_number] = frozenset(messages)
        return RoundOutput(self.pid, frozenset(range(self.n)))


class DecideAtRound(GirafAlgorithm):
    """Decides a constant at a chosen round (for runner bookkeeping tests)."""

    def __init__(self, pid: int, n: int, decide_round: int):
        self.pid = pid
        self.n = n
        self.decide_round = decide_round
        self.proposal = pid
        self._decision = None

    def initialize(self, oracle_output):
        return RoundOutput(self.pid, frozenset(range(self.n)))

    def compute(self, round_number, messages, oracle_output):
        if round_number >= self.decide_round:
            self._decision = 42
        return RoundOutput(self.pid, frozenset(range(self.n)))

    def decision(self):
        return self._decision


def make_runner(n, matrices, algorithm=Collector, fault_plan=None, **kwargs):
    return LockstepRunner(
        n,
        lambda pid: algorithm(pid, n, **kwargs),
        NullOracle(),
        MatrixSchedule(matrices),
        fault_plan=fault_plan,
    )


class TestLockstepRunner:
    def test_full_matrix_delivers_everything(self):
        runner = make_runner(3, [full_matrix(3)])
        runner.run(max_rounds=3, stop_on_global_decision=False)
        for proc in runner.processes:
            assert proc.algorithm.heard[1] == frozenset({0, 1, 2})

    def test_empty_matrix_delivers_only_self(self):
        runner = make_runner(3, [empty_matrix(3)])
        runner.run(max_rounds=2, stop_on_global_decision=False)
        for proc in runner.processes:
            assert proc.algorithm.heard[1] == frozenset({proc.pid})

    def test_message_count_excludes_self(self):
        runner = make_runner(4, [full_matrix(4)])
        result = runner.run(max_rounds=2, stop_on_global_decision=False)
        # 4 processes x 3 destinations x 2 rounds.
        assert result.messages_sent == 24
        assert result.per_round_messages == [12, 12]

    def test_decision_round_recorded(self):
        runner = make_runner(3, [full_matrix(3)], algorithm=DecideAtRound, decide_round=4)
        result = runner.run(max_rounds=10)
        assert result.decision_rounds == {0: 4, 1: 4, 2: 4}
        assert result.global_decision_round == 4

    def test_stops_at_global_decision(self):
        runner = make_runner(3, [full_matrix(3)], algorithm=DecideAtRound, decide_round=2)
        result = runner.run(max_rounds=50)
        assert result.rounds_executed == 2

    def test_crashed_process_stops_participating(self):
        plan = FaultPlan(3, crashes=(Crash(0, 2),))
        runner = make_runner(3, [full_matrix(3)], fault_plan=plan)
        runner.run(max_rounds=3, stop_on_global_decision=False)
        # Round 1: everyone hears 0.  Round 2+: nobody does.
        assert runner.processes[1].algorithm.heard[1] == frozenset({0, 1, 2})
        assert runner.processes[1].algorithm.heard[2] == frozenset({1, 2})
        # The crashed process computed only round 1.
        assert list(runner.processes[0].algorithm.heard) == [1]

    def test_final_round_partial_send(self):
        plan = FaultPlan(3, crashes=(Crash(0, 2, final_sends=frozenset({1})),))
        runner = make_runner(3, [full_matrix(3)], fault_plan=plan)
        runner.run(max_rounds=3, stop_on_global_decision=False)
        # In its dying round 2, process 0 reached only process 1.
        assert 0 in runner.processes[1].algorithm.heard[2]
        assert 0 not in runner.processes[2].algorithm.heard[2]

    def test_final_sends_are_delivered_not_just_sent(self):
        """The plan's own mask must not swallow a dying process's last
        words: they were sent but lost when the mask cut the whole column
        of a process that dies in the round."""
        plan = FaultPlan(4, crashes=(Crash(0, 3, final_sends=frozenset({1})),))
        runner = make_runner(4, [full_matrix(4)], fault_plan=plan)
        result = runner.run(max_rounds=4, stop_on_global_decision=False)
        assert result.sent_matrices[2][:, 0].tolist() == [True, True, False, False]
        assert result.delivered_matrices[2][:, 0].tolist() == [True, True, False, False]
        assert 0 in runner.processes[1].algorithm.heard[3]
        # From round 4 on it is gone, and a dead process's row stays undelivered.
        assert not result.sent_matrices[3][1:, 0].any()
        assert result.delivered_matrices[3][0].tolist() == [True, False, False, False]

    def test_second_run_raises(self):
        """A runner's processes and oracle carry its run: a second ``run``
        used to return ``rounds_executed=1`` with every process "deciding"
        in round 0, without any error."""
        n = 5
        runner = LockstepRunner(
            n,
            lambda pid: WlmConsensus(pid, n, proposal=pid),
            FixedLeaderOracle(0),
            IIDSchedule(n, p=1.0),
        )
        first = runner.run(max_rounds=20)
        assert first.all_correct_decided and first.global_decision_round > 0
        with pytest.raises(RuntimeError, match="already run"):
            runner.run(max_rounds=20)

    @pytest.mark.parametrize("leader", [-1, 5])
    def test_destination_outside_the_system_rejected(self, leader):
        """A message to "leader -1" used to land at process n-1 (Python's
        negative indexing), and one to pid n raised a bare IndexError."""
        n = 5
        runner = LockstepRunner(
            n,
            lambda pid: WlmConsensus(pid, n, proposal=pid),
            FixedLeaderOracle(leader),
            IIDSchedule(n, p=1.0),
        )
        with pytest.raises(ValueError, match=rf"process 0 .*round-1 .* to {leader},"):
            runner.run(max_rounds=5)

    def test_plan_for_another_size_rejected(self):
        with pytest.raises(ValueError, match="n=5"):
            make_runner(4, [full_matrix(4)], fault_plan=FaultPlan(5))

    def test_correct_set_in_result(self):
        plan = FaultPlan(5, crashes=(Crash(2, 3),))
        runner = make_runner(5, [full_matrix(5)], fault_plan=plan)
        result = runner.run(max_rounds=2, stop_on_global_decision=False)
        assert result.correct == frozenset({0, 1, 3, 4})

    def test_sent_and_delivered_matrices_recorded(self):
        runner = make_runner(3, [empty_matrix(3)])
        result = runner.run(max_rounds=1, stop_on_global_decision=False)
        assert result.sent_matrices[0].all()  # everyone attempted everyone
        assert (result.delivered_matrices[0] == np.eye(3, dtype=bool)).all()

    def test_schedule_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LockstepRunner(
                4,
                lambda pid: Collector(pid, 4),
                NullOracle(),
                MatrixSchedule([full_matrix(3)]),
            )
