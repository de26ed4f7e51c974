"""The 5-round leaderless consensus algorithm for the eventual-AFM model.

Reconstruction of the ◊AFM algorithm of Keidar & Shraer [19] (the original
gives only its existence and round count).  ◊AFM has no oracle; during
stable rounds every correct process both reaches and hears from a majority,
and safety must hold without any leader to serialize commits.

The algorithm is built on *majority-unanimity commits*:

- Every round, every process sends ``(msgType, est, ts)`` to everyone and
  adopts the lexicographically maximal ``(ts, est)`` pair it receives.
- **commit**: if more than ``n/2`` of this round's messages carry the
  *identical* pair and that pair is the maximum received, commit it with
  the current round as the new timestamp.  Two same-round commits must
  agree: their supporting majorities intersect, and the witness in the
  intersection sent a single pair to both.
- **decide**: if more than ``n/2`` of this round's messages are COMMITs
  (necessarily sharing the same fresh pair), decide.  A decide therefore
  certifies a *majority* of same-pair commits, and any later commit's
  unanimous majority intersects that set — so later commits repeat the
  decided value (the Lemma 5 induction of the paper, adapted).

Round count from GSR in random stable schedules: the maximal pair reaches a
majority in one round and everyone in two (majorities intersect); the
third stable round is unanimous, so everyone commits; the fourth delivers
majority COMMITs, so everyone decides — GSR+3 typically, GSR+4 when a
straggler commit mid-stabilization restarts convergence once, matching the
paper's 5-round figure.  (A *fully adversarial* mobile-majority schedule
can delay commits further — a caveat of this reconstruction, documented in
DESIGN.md; the paper's own evaluation measures the model's 5-round
condition windows, which this repo reproduces independently of the
algorithm.)
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Tuple

from repro.consensus.base import ConsensusMessage, MsgType, TimestampedConsensus
from repro.giraf.kernel import RoundOutput


class AfmConsensus(TimestampedConsensus):
    """Leaderless all-to-all consensus; 5 stable rounds in ◊AFM."""

    def initialize(self, oracle_output: Any) -> RoundOutput:
        return RoundOutput(self._message(), self._all)

    def compute(
        self,
        round_number: int,
        messages: Mapping[int, ConsensusMessage],
        oracle_output: Any,
    ) -> RoundOutput:
        if self._decision is None:
            pairs = [(m.ts, m.est) for m in messages.values()]
            max_pair = max(pairs)
            commit_votes: dict[Tuple[int, Any], int] = {}
            for m in messages.values():
                if m.msg_type == MsgType.COMMIT:
                    key = (m.ts, m.est)
                    commit_votes[key] = commit_votes.get(key, 0) + 1

            decide_msg = self._first_decide(messages)
            decided_pair = self._majority_commit(commit_votes)
            if decide_msg is not None:
                self._decide(decide_msg.est, round_number)
            elif decided_pair is not None:
                self.ts = decided_pair[0]
                self._decide(decided_pair[1], round_number)
            elif pairs.count(max_pair) > self.n // 2:
                # Majority-unanimity commit on the maximal pair.
                self.est = max_pair[1]
                self.ts = round_number
                self.msg_type = MsgType.COMMIT
            else:
                self.ts, self.est = max_pair
                self.msg_type = MsgType.PREPARE

        return RoundOutput(self._message(), self._all)

    def _majority_commit(
        self, commit_votes: dict[Tuple[int, Any], int]
    ) -> Optional[Tuple[int, Any]]:
        """The pair carried by more than n/2 COMMITs this round, if any."""
        for pair, votes in commit_votes.items():
            if votes > self.n // 2:
                return pair
        return None
