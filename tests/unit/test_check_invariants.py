"""Unit tests for the runtime invariant checkers."""

import numpy as np
import pytest

from repro.check import (
    Agreement,
    Integrity,
    InvariantSuite,
    LeaderStability,
    Validity,
    Violation,
    WlmDecisionBound,
    default_suite,
)
from repro.check.mutation import BrokenAgreementWlm, agreement_violation_run
from repro.core import WlmConsensus
from repro.giraf import (
    FixedLeaderOracle,
    IIDSchedule,
    LockstepRunner,
    RunResult,
    StableAfterSchedule,
)
from repro.obs.registry import MetricsRegistry


def empty_view(n=3, **overrides):
    view = dict(
        n=n,
        correct=frozenset(range(n)),
        proposals={},
        decisions={},
        decision_rounds={},
        rounds_executed=10,
    )
    view.update(overrides)
    return RunResult(**view)


class TestAgreement:
    def test_live_hooks_flag_differing_decisions(self):
        checker = Agreement()
        checker.on_decision(0, 3, "A")
        checker.on_decision(1, 4, "B")
        assert not checker.ok
        assert checker.violations[0].invariant == "agreement"
        assert checker.violations[0].pid == 1

    def test_matching_decisions_are_clean(self):
        checker = Agreement()
        checker.on_decision(0, 3, "A")
        checker.on_decision(1, 4, "A")
        checker.on_decision(0, 5, "A")  # re-reported while latched
        checker.on_finish(empty_view(decisions={0: "A", 1: "A"}))
        assert checker.ok

    def test_finish_fallback_without_live_hooks(self):
        checker = Agreement()
        checker.on_finish(empty_view(decisions={0: "A", 1: "B"}))
        assert not checker.ok


class TestValidity:
    def test_decided_value_must_be_proposed(self):
        checker = Validity()
        checker.on_proposal(0, "A")
        checker.on_proposal(1, "B")
        checker.on_decision(0, 2, "C")
        assert not checker.ok
        assert "nobody proposed" in checker.violations[0].message

    def test_proposed_value_is_fine(self):
        checker = Validity()
        checker.on_proposal(0, "A")
        checker.on_decision(1, 2, "A")
        checker.on_finish(empty_view(proposals={0: "A"}, decisions={1: "A"}))
        assert checker.ok

    def test_finish_checks_view_when_hooks_missed_proposals(self):
        checker = Validity()
        checker.on_finish(
            empty_view(proposals={0: "A", 1: "B"}, decisions={2: "Z"})
        )
        assert not checker.ok


class TestIntegrity:
    def test_changed_decision_is_flagged(self):
        checker = Integrity()
        checker.on_decision(0, 2, "A")
        checker.on_decision(0, 3, "A")  # latched re-report: fine
        checker.on_decision(0, 4, "B")  # value changed: violation
        assert not checker.ok
        assert "changed its decision" in checker.violations[0].message

    def test_stable_decision_is_clean(self):
        checker = Integrity()
        for k in range(2, 8):
            checker.on_decision(1, k, 42)
        assert checker.ok


class TestLeaderStability:
    def test_pre_gsr_churn_is_ignored(self):
        checker = LeaderStability(gsr=5)
        checker.on_oracle(0, 1, 0)
        checker.on_oracle(1, 1, 3)
        checker.on_oracle(0, 4, 2)
        assert checker.ok

    def test_post_gsr_disagreement_is_flagged(self):
        checker = LeaderStability(gsr=5)
        checker.on_oracle(0, 6, 2)
        checker.on_oracle(1, 6, 3)
        assert not checker.ok

    def test_expected_leader_mismatch_is_flagged(self):
        checker = LeaderStability(gsr=5, expected_leader=2)
        checker.on_oracle(0, 7, 1)
        assert not checker.ok

    def test_none_outputs_are_ignored(self):
        checker = LeaderStability(gsr=1)
        checker.on_oracle(0, 2, None)
        checker.on_oracle(1, 2, 3)
        assert checker.ok

    def test_gsr_must_be_non_negative(self):
        with pytest.raises(ValueError):
            LeaderStability(gsr=-1)


class TestWlmDecisionBound:
    def test_deadline_is_gsr_plus_4_or_3(self):
        assert WlmDecisionBound(gsr=7).deadline == 11
        assert WlmDecisionBound(gsr=7, leader_stable_early=True).deadline == 10

    def test_late_decision_is_flagged(self):
        checker = WlmDecisionBound(gsr=2, leader_stable_early=True)
        checker.on_finish(
            empty_view(
                n=2,
                correct=frozenset({0, 1}),
                decisions={0: "A", 1: "A"},
                decision_rounds={0: 4, 1: 9},
                rounds_executed=12,
            )
        )
        assert len(checker.violations) == 1
        assert checker.violations[0].pid == 1

    def test_never_deciding_correct_process_is_flagged(self):
        checker = WlmDecisionBound(gsr=2)
        checker.on_finish(
            empty_view(n=2, correct=frozenset({0, 1}), rounds_executed=12)
        )
        assert len(checker.violations) == 2

    def test_too_short_run_is_not_silently_passed(self):
        checker = WlmDecisionBound(gsr=10)
        checker.on_finish(empty_view(rounds_executed=5))
        assert not checker.ok
        assert "not checkable" in checker.violations[0].message

    def test_holds_on_algorithm_2_with_stable_leader(self):
        """Attached to a real lockstep run of Algorithm 2 (chaos before
        GSR, ◊WLM repaired from GSR on, leader stable throughout), the
        Theorem 10 bound must hold — the liveness-bound tests' setting,
        expressed as an observer."""
        for seed, gsr in [(0, 3), (1, 7), (2, 12)]:
            checker = WlmDecisionBound(gsr=gsr, leader_stable_early=True)
            suite = InvariantSuite(
                [Agreement(), Validity(), Integrity(), checker]
            )
            schedule = StableAfterSchedule(
                IIDSchedule(5, p=0.5, seed=seed),
                gsr=gsr,
                model="WLM",
                leader=0,
                seed=seed + 100,
            )
            runner = LockstepRunner(
                5,
                lambda pid: WlmConsensus(pid, 5, (pid + 1) * 10),
                FixedLeaderOracle(0),
                schedule,
                observers=[suite],
            )
            result = runner.run(max_rounds=60)
            suite.finish(result)
            assert suite.ok, [str(v) for v in suite.violations]


class TestInvariantSuite:
    def test_violations_increment_metrics_counter(self):
        metrics = MetricsRegistry(enabled=True)
        suite = default_suite(metrics=metrics)
        suite.on_decision(0, 1, "A")
        suite.on_decision(1, 1, "B")
        counters = metrics.snapshot()["counters"]
        matching = [v for k, v in counters.items() if "check.violations" in k]
        assert sum(matching) == 1
        assert not suite.ok

    def test_finish_returns_all_violations(self):
        suite = default_suite()
        suite.on_proposal(0, "A")
        violations = suite.finish(
            empty_view(decisions={0: "A", 1: "Z"}, proposals={0: "A"})
        )
        invariants = {v.invariant for v in violations}
        assert "agreement" in invariants
        assert "validity" in invariants

    def test_violation_str_mentions_context(self):
        text = str(Violation("agreement", "boom", round_number=4, pid=2))
        assert "agreement" in text and "round 4" in text and "pid 2" in text


class TestMutationDetection:
    def test_broken_algorithm_trips_agreement(self):
        suite = default_suite()
        result = agreement_violation_run(observers=[suite])
        suite.finish(result)
        assert not result.agreement_holds()
        assert any(v.invariant == "agreement" for v in suite.violations)

    def test_intact_algorithm_survives_same_schedule(self):
        suite = default_suite()
        result = agreement_violation_run(
            observers=[suite], algorithm=WlmConsensus
        )
        suite.finish(result)
        assert result.agreement_holds()
        assert suite.ok, [str(v) for v in suite.violations]

    def test_mutant_really_is_a_two_camp_split(self):
        result = agreement_violation_run()
        assert sorted(set(result.decisions.values())) == ["A", "C"]


class TestRunnerObserverHooks:
    def test_lockstep_runner_reports_proposals_oracle_and_decisions(self):
        events = []

        class Recorder:
            def on_proposal(self, pid, value):
                events.append(("proposal", pid, value))

            def on_oracle(self, pid, round_number, output):
                events.append(("oracle", pid, round_number, output))

            def on_decision(self, pid, round_number, value):
                events.append(("decision", pid, round_number, value))

        schedule = StableAfterSchedule(
            IIDSchedule(3, p=1.0, seed=0), gsr=1, model="WLM", leader=0
        )
        runner = LockstepRunner(
            3,
            lambda pid: WlmConsensus(pid, 3, pid),
            FixedLeaderOracle(0),
            schedule,
            observers=[Recorder()],
        )
        result = runner.run(max_rounds=10)
        kinds = {event[0] for event in events}
        assert kinds == {"proposal", "oracle", "decision"}
        proposals = {e[1]: e[2] for e in events if e[0] == "proposal"}
        assert proposals == result.proposals
        first_decisions = {}
        for e in events:
            if e[0] == "decision" and e[1] not in first_decisions:
                first_decisions[e[1]] = e[2]
        assert first_decisions == result.decision_rounds
