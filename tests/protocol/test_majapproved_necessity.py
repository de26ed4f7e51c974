"""The majApproved mechanism is necessary — a mutation test.

The paper's key idea: "trust the leader ... provided that it indicates
that at least a majority believes it to be the leader" (the majApproved
field).  This test removes that safeguard — commit on any trusted
leader's message, decide on any majority of COMMITs — and exhibits a
concrete 3-process schedule in which the mutant violates agreement,
while Algorithm 2 proper, on the *same* schedule with the *same* oracle,
stays safe.  It both documents why the mechanism exists and proves this
suite can detect agreement violations at all.
"""

from repro.check.mutation import BrokenAgreementWlm, agreement_violation_run
from repro.core import WlmConsensus


class TestMajApprovedNecessity:
    """The world is :func:`agreement_violation_run`'s: 3 processes, p0
    trusts itself, p1 and p2 trust p2.  Round 1: everyone hears only its
    own trusted leader — without majApproved, all three *commit* (p0 on
    "A"; p1 and p2 on "C").  Round 2: p0 hears its own COMMIT plus p2's —
    two COMMITs, a majority — and decides "A"; p2 hears its own COMMIT
    plus p1's and decides "C".  Two decisions, two values."""

    def test_mutant_violates_agreement(self):
        result = agreement_violation_run(algorithm=BrokenAgreementWlm)
        assert len(result.decisions) >= 2
        assert max(result.decision_rounds.values()) <= 2
        assert not result.agreement_holds(), result.decisions

    def test_algorithm_2_is_safe_on_the_same_world(self):
        result = agreement_violation_run(algorithm=WlmConsensus)
        assert result.agreement_holds()
        # In fact nobody can even commit here: no leader ever carries a
        # majority's approval.
        assert result.decisions == {}
