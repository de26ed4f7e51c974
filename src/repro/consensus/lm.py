"""The 3-round consensus algorithm for the eventual-LM model.

Reconstruction of the optimal ◊LM algorithm of Keidar & Shraer [19] (the
original paper gives only its existence and round count).  It reuses
Algorithm 2's commit machinery
(:class:`~repro.consensus.base.LeaderConsensus`) — timestamps equal to
round numbers and the leader's ``majApproved`` flag — but sends all-to-all
(``Θ(n²)`` messages per round) and exploits ◊LM's stronger guarantee that
*every* correct process hears from a majority each stable round:

- **commit** exactly as in Algorithm 2: adopt the estimate of a
  majority-approved leader, with the current round as timestamp.
- **decide** as soon as a majority of COMMIT messages (including one's
  own) arrives — no ``majApproved`` needed at the decider, because in ◊LM
  everyone, not just the leader, receives from a majority.  COMMIT
  messages of one round all carry the same round timestamp and (by the
  Lemma 3 argument) the same estimate, so the rule is unambiguous.

Round count from GSR, with a stable leader (the Section 4 setting — the
oracle's property already holds at round GSR-1): the leader turns
majApproved at the end of GSR, everyone commits at the end of GSR+1, and
everyone receives majority COMMITs and decides at the end of GSR+2 —
3 rounds.  Without the stable-leader head start it takes one round more,
mirroring Algorithm 2's 4-versus-5 distinction.
"""

from __future__ import annotations

from repro.consensus.base import LeaderConsensus


class LmConsensus(LeaderConsensus):
    """All-to-all leader-based consensus; 3 stable rounds in ◊LM.

    The machine's defaults are this algorithm: the Ω leader, ``Π`` as
    destinations, and no decide-3 guard.
    """
