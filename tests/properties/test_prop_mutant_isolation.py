"""The conformance mutant is Algorithm 2 minus its two guards — and nothing else.

:class:`~repro.check.mutation.BrokenAgreementWlm` overrides only
``_commit_guard`` and ``_decide3_guard``.  Behaviourally: from any state
Algorithm 2 reaches, on any round's messages, one ``compute`` step of the mutant
yields the same message, destinations and decision as Algorithm 2's —
unless a stripped guard *binds* in that step (returns ``False`` where the
rest of its rule held), in which case it yields a different message.  By
induction, worlds in which no guard ever binds give identical traces, and
the two traces of any world part exactly at the first binding.
"""

from hypothesis import given, settings, strategies as st

from repro.check.mutation import BrokenAgreementWlm
from repro.core import WlmConsensus
from repro.giraf import (
    FixedLeaderOracle,
    IIDSchedule,
    LockstepRunner,
    RotatingLeaderOracle,
)
from repro.giraf.oracle import EventuallyStableLeaderOracle


class ShadowedWlm(WlmConsensus):
    """Algorithm 2, replaying each of its steps on a mutant in the same state."""

    def __init__(self, pid, n, proposal, tally):
        super().__init__(pid, n, proposal)
        self._tally = tally
        self._guard_bound = False

    def _commit_guard(self, leader_msg):
        return self._note(super()._commit_guard(leader_msg))

    def _decide3_guard(self, own):
        return self._note(super()._decide3_guard(own))

    def _note(self, passed):
        self._guard_bound |= not passed
        return passed

    def compute(self, round_number, messages, oracle_output):
        shadow = BrokenAgreementWlm(self.pid, self.n, self.proposal)
        shadow.__dict__.update(self.__dict__)
        self._guard_bound = False
        output = super().compute(round_number, messages, oracle_output)
        shadow_output = shadow.compute(round_number, messages, oracle_output)

        self._tally[self._guard_bound] += 1
        if self._guard_bound:
            assert shadow_output.payload != output.payload
        else:
            assert shadow_output == output
            assert shadow.decision() == self.decision()
        return output


@st.composite
def world(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    proposals = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    p = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    leader = draw(st.integers(min_value=0, max_value=n - 1))
    oracle = draw(st.sampled_from(["fixed", "eventual", "rotating"]))
    return n, proposals, p, seed, leader, oracle


@given(world=world())
@settings(max_examples=80, deadline=None)
def test_mutant_step_differs_exactly_when_a_stripped_guard_binds(world):
    n, proposals, p, seed, leader, oracle_kind = world
    oracle = {
        "fixed": FixedLeaderOracle(leader),
        "eventual": EventuallyStableLeaderOracle(leader, 4, n, seed),
        "rotating": RotatingLeaderOracle(n),
    }[oracle_kind]
    tally = {True: 0, False: 0}
    LockstepRunner(
        n,
        lambda pid: ShadowedWlm(pid, n, proposals[pid], tally),
        oracle,
        IIDSchedule(n, p=p, seed=seed),
    ).run(max_rounds=12, stop_on_global_decision=False)
    assert sum(tally.values()) == 12 * n
