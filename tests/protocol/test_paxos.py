"""Protocol tests for the Paxos baseline.

Two roles: (1) a correct consensus protocol that makes progress under
◊WLM's guarantees; (2) the motivating negative result [13] — after GSR,
Paxos can spend a number of rounds *linear in n* chasing ballots that
surface one at a time, while Algorithm 2 decides in constant rounds.
"""

import pytest

from repro.consensus import PaxosConsensus
from repro.consensus.paxos import PaxosCmd, PaxosMessage
from repro.core import WlmConsensus
from repro.giraf import (
    FixedLeaderOracle,
    IIDSchedule,
    LockstepRunner,
    MatrixSchedule,
    StableAfterSchedule,
)
from repro.giraf.schedule import Schedule
from repro.models.matrix import empty_matrix, full_matrix
from tests.conftest import assert_safety, make_consensus_run


class TestPaxosBasics:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("gsr", [1, 5, 10])
    def test_decides_under_wlm(self, seed, gsr):
        result = make_consensus_run("PAXOS", n=5, gsr=gsr, seed=seed, max_rounds=200)
        assert_safety(result)
        assert result.all_correct_decided

    def test_quick_decision_in_clean_runs(self):
        """With a stable leader and full delivery from round 1, Paxos needs
        phase 1 (2 rounds), phase 2 (2 rounds) and the decide broadcast."""
        n = 5
        schedule = StableAfterSchedule(
            IIDSchedule(n, p=1.0, seed=0), gsr=1, model="WLM", leader=0
        )
        runner = LockstepRunner(
            n,
            lambda pid: PaxosConsensus(pid, n, (pid + 1) * 10),
            FixedLeaderOracle(0),
            schedule,
        )
        result = runner.run(max_rounds=20)
        assert result.all_correct_decided
        assert result.global_decision_round <= 6

    def test_ballots_unique_per_proposer(self):
        a = PaxosConsensus(1, 5, "x")
        b = PaxosConsensus(2, 5, "x")
        ballots_a = {a._next_ballot(k) for k in range(50)}
        ballots_b = {b._next_ballot(k) for k in range(50)}
        assert not (ballots_a & ballots_b)

    def test_next_ballot_exceeds_floor(self):
        paxos = PaxosConsensus(3, 5, "x")
        for above in (0, 7, 8, 23, 100):
            assert paxos._next_ballot(above) > above
            assert paxos._next_ballot(above) % 5 == 3

    def test_chooses_accepted_value_over_own_proposal(self):
        """Phase 1 must adopt the value of the highest accepted ballot —
        the heart of Paxos safety."""
        n = 3
        leader = PaxosConsensus(0, n, proposal="mine")
        leader.initialize(0)  # starts phase 1 with ballot b
        ballot = leader.cballot
        messages = {
            0: PaxosMessage(promised=ballot, vrnd=0, vval=None),
            1: PaxosMessage(promised=ballot, vrnd=1, vval="theirs"),
        }
        leader.compute(1, messages, 0)
        assert leader.phase == 2
        assert leader.cvalue == "theirs"


class PoisonedMajoritySchedule(Schedule):
    """The [13] adversary: after GSR the leader hears a majority each
    round, but the majority rotates so that one new "poisoned" acceptor
    (holding a higher promised ballot from the chaotic past) surfaces per
    phase-1 attempt."""

    def __init__(self, n: int, leader: int, gsr: int):
        super().__init__(n)
        self.leader = leader
        self.gsr = gsr

    def matrix(self, round_number):
        import numpy as np

        m = empty_matrix(self.n)
        if round_number < self.gsr:
            # Pre-GSR: total silence (poisoning happens via oracle, below).
            return m
        m[:, self.leader] = True  # leader reaches everyone
        # Leader hears from itself plus a rotating majority.
        majority_size = self.n // 2  # plus self = floor(n/2)+1
        start = (round_number // 2) % (self.n - 1)
        others = [pid for pid in range(self.n) if pid != self.leader]
        for offset in range(majority_size):
            src = others[(start + offset) % len(others)]
            m[self.leader, src] = True
        return m


class TestPaxosLinearRecovery:
    def _poisoned_run(self, n, leader=0, max_rounds=300):
        """Seed every non-leader acceptor with a distinct high promised
        ballot (as pre-GSR chaos would), then run under a rotating-majority
        WLM schedule and count the leader's aborted ballots."""
        gsr = 2
        schedule = PoisonedMajoritySchedule(n, leader, gsr)
        runner = LockstepRunner(
            n,
            lambda pid: PaxosConsensus(pid, n, (pid + 1) * 10),
            FixedLeaderOracle(leader),
            schedule,
        )
        # Poison acceptor states directly (the result of an arbitrarily
        # adversarial pre-GSR period).
        for pid in range(n):
            if pid != leader:
                runner.processes[pid].algorithm.promised = 1000 * pid + pid
        result = runner.run(max_rounds=max_rounds)
        restarts = runner.processes[leader].algorithm.restarts
        return result, restarts

    @pytest.mark.parametrize("n", [5, 9, 13])
    def test_restart_count_grows_linearly(self, n):
        result, restarts = self._poisoned_run(n)
        assert result.all_correct_decided
        assert_safety(result)
        # One abort per poisoned acceptor the rotating majority surfaces:
        # Θ(n) restarts (each costing rounds), minus the handful the last
        # attempt's majority absorbs at once.
        assert restarts >= (n - 1) // 2 - 1

    def test_rounds_after_gsr_grow_with_n(self):
        rounds = {}
        for n in (5, 9, 13):
            result, _ = self._poisoned_run(n)
            rounds[n] = result.global_decision_round
        assert rounds[5] < rounds[9] < rounds[13]

    def test_algorithm_2_is_constant_under_the_same_adversary(self):
        """Algorithm 2 under the same rotating-majority WLM schedule (and
        adversarially poisoned timestamps) still decides in constant
        rounds — it never chases timestamps."""
        for n in (5, 9, 13):
            gsr = 2
            schedule = PoisonedMajoritySchedule(n, 0, gsr)
            runner = LockstepRunner(
                n,
                lambda pid: WlmConsensus(pid, n, (pid + 1) * 10),
                FixedLeaderOracle(0),
                schedule,
            )
            # Poison: give non-leaders absurdly large timestamps? No —
            # timestamps are bounded by round numbers (Lemma 1), which is
            # precisely why Algorithm 2 cannot be poisoned.  Run as-is.
            result = runner.run(max_rounds=50)
            assert result.all_correct_decided
            assert result.global_decision_round <= gsr + 4, n
