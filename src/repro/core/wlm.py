"""Algorithm 2: the time- and message-efficient consensus algorithm for ◊WLM.

The line-by-line transcription of the paper's Algorithm 2 is
:class:`~repro.consensus.base.LeaderConsensus` (lines 1-8 and 12-30, shared
with the ES and ◊LM baselines); this module states the two places where
◊WLM differs from them — ``Destinations()`` and rule decide-3.  The key
ideas (Section 3):

- **Fresh timestamps without discovery.**  Unlike Paxos, the leader never
  tries to learn the highest timestamp in the system (which can take O(n)
  rounds after GSR in ◊WLM [13]).  A committing process simply uses the
  current round number as the timestamp — round numbers are monotonically
  increasing, so the timestamp is always fresh.

- **majApproved.**  Trusting a leader that may not know all timestamps is
  made safe by the ``majApproved`` flag: the leader sets it when a majority
  named it as leader in the previous round.  Because two processes cannot
  both be named leader by a majority in the same round, commits of a round
  agree (Lemma 3); and because a majApproved leader heard from a majority,
  it cannot have missed a timestamp that led to decision (Lemma 5).

- **Pipelined proposals.**  The leader makes progress every round from its
  current state, so a stabilization that arrives mid-attempt wastes no
  rounds.

- **Linear message complexity.**  ``Destinations()``: the leader sends to
  everyone; everyone else sends only to its leader.  Once all processes
  trust the same leader (at most one round after GSR), each round carries
  ``2(n-1)`` messages.

Guarantees (Theorem 10): validity and uniform agreement always; global
decision by round GSR+4, and by GSR+3 when the Ω oracle's eventual
property already holds from round GSR-1 (the common stable-leader case).
"""

from __future__ import annotations

from typing import FrozenSet

from repro.consensus.base import ConsensusMessage, LeaderConsensus


class WlmConsensus(LeaderConsensus):
    """The paper's Algorithm 2, code for process ``p_i``."""

    # ------------------------------------------------------------------
    # procedure Destinations(leader_i)  (lines 9-11)
    # ------------------------------------------------------------------
    def _destinations(self, leader: int) -> FrozenSet[int]:
        if leader == self.pid:
            return self._all
        return frozenset({leader})

    def _decide3_guard(self, own: ConsensusMessage) -> bool:
        # decide-3 (line 26): only the leader is sure to hear a majority
        # in ◊WLM, so the decider itself must be majority-approved.
        return own.maj_approved
