"""Protocol tests for Algorithm 2 (the paper's ◊WLM consensus).

Theorem 10: (a) global decision by round GSR+4; (b) by GSR+3 when the Ω
oracle's property already holds from round GSR-1.  Plus the linear
stable-state message complexity claim of Section 3.
"""

import pytest

from repro.consensus.base import ConsensusMessage, MsgType
from repro.core import WlmConsensus
from repro.giraf import (
    EventuallyStableLeaderOracle,
    FixedLeaderOracle,
    IIDSchedule,
    LockstepRunner,
    StableAfterSchedule,
)
from tests.conftest import assert_safety, make_consensus_run


class TestDecisionBounds:
    @pytest.mark.parametrize("gsr", [1, 2, 5, 9, 14])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_global_decision_by_gsr_plus_4(self, gsr, seed):
        """Theorem 10(a): oracle stabilizes at GSR -> decision by GSR+4."""
        result = make_consensus_run(
            "WLM", n=5, gsr=gsr, seed=seed, oracle_stable_from=gsr
        )
        assert_safety(result)
        assert result.all_correct_decided
        assert result.global_decision_round <= gsr + 4

    @pytest.mark.parametrize("gsr", [2, 5, 9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_global_decision_by_gsr_plus_3_with_early_leader(self, gsr, seed):
        """Theorem 10(b): oracle stable from GSR-1 -> decision by GSR+3."""
        result = make_consensus_run(
            "WLM", n=5, gsr=gsr, seed=seed, oracle_stable_from=gsr - 1
        )
        assert_safety(result)
        assert result.all_correct_decided
        assert result.global_decision_round <= gsr + 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 11])
    def test_various_system_sizes(self, n):
        result = make_consensus_run("WLM", n=n, gsr=4, leader=n - 1)
        assert_safety(result)
        assert result.all_correct_decided
        assert result.global_decision_round <= 8

    def test_decides_in_4_rounds_from_start_with_stable_leader(self):
        """GSR = 1 with an always-stable leader: everything is stable from
        the first round, so decision happens within 4 rounds."""
        n = 5
        schedule = StableAfterSchedule(
            IIDSchedule(n, p=1.0, seed=0), gsr=1, model="WLM", leader=2
        )
        runner = LockstepRunner(
            n,
            lambda pid: WlmConsensus(pid, n, proposal=pid),
            FixedLeaderOracle(2),
            schedule,
        )
        result = runner.run(max_rounds=10)
        assert result.global_decision_round <= 4


class TestMessageComplexity:
    def test_stable_state_message_complexity_is_linear(self):
        """Once all processes trust the same leader, each round carries
        2(n-1) messages: everyone-to-leader plus leader-to-everyone."""
        for n in (4, 5, 8, 12):
            schedule = StableAfterSchedule(
                IIDSchedule(n, p=1.0, seed=0), gsr=1, model="WLM", leader=0
            )
            runner = LockstepRunner(
                n,
                lambda pid: WlmConsensus(pid, n, proposal=pid),
                FixedLeaderOracle(0),
                schedule,
            )
            result = runner.run(max_rounds=20, stop_on_global_decision=False)
            # From round 2 on (all round-1 messages already carry the
            # stable leader) the count is exactly 2(n-1).
            assert all(m == 2 * (n - 1) for m in result.per_round_messages[1:]), (
                n,
                result.per_round_messages,
            )

    def test_message_complexity_at_most_quadratic_during_chaos(self):
        result = make_consensus_run("WLM", n=6, gsr=10, seed=3)
        assert all(m <= 6 * 5 for m in result.per_round_messages)

    def test_non_leader_sends_only_to_its_leader(self):
        algo = WlmConsensus(1, 5, proposal=7)
        output = algo.initialize(3)
        assert output.destinations == frozenset({3})

    def test_leader_sends_to_everyone(self):
        algo = WlmConsensus(3, 5, proposal=7)
        output = algo.initialize(3)
        assert output.destinations == frozenset(range(5))


class TestPipelining:
    def test_stabilization_mid_attempt_wastes_no_extra_rounds(self):
        """The leader pipelines proposals: whatever the pre-GSR state, the
        GSR+4 bound holds — including when the leader's pre-GSR commit
        attempts were half way through."""
        for seed in range(8):
            gsr = 7
            result = make_consensus_run(
                "WLM", n=5, gsr=gsr, seed=seed, p_chaos=0.7,
                oracle_stable_from=gsr,
            )
            assert result.all_correct_decided
            assert result.global_decision_round <= gsr + 4

    def test_decide_messages_propagate(self):
        """Once any process decides, DECIDE reaches the others through the
        leader within the bound (rule decide-1)."""
        result = make_consensus_run("WLM", n=5, gsr=5)
        rounds = sorted(result.decision_rounds.values())
        assert rounds[-1] - rounds[0] <= 2


class TestDecide3:
    @pytest.mark.parametrize("approved", [False, True])
    def test_a_majority_of_commits_decides_only_a_maj_approved_committer(
        self, approved
    ):
        """decide-3 (line 26): in ◊WLM only the leader is sure to hear a
        majority, so a majority of COMMITs decides a process only if its
        own COMMIT was majApproved; otherwise it commits again."""
        proc = WlmConsensus(1, 3, proposal="v")
        proc.initialize(0)
        proc.ts, proc.msg_type = 3, MsgType.COMMIT
        messages = {
            pid: ConsensusMessage(
                MsgType.COMMIT, "v", 3, leader=0,
                maj_approved=approved if pid == 1 else pid == 0,
            )
            for pid in range(3)
        }
        proc.compute(4, messages, 0)
        assert proc.decision() == ("v" if approved else None)
