"""Consensus algorithms for the four timing models.

All algorithms are GIRAF instantiations sharing the commit/decide machinery
of the paper's Algorithm 2 (timestamped estimates, majority-approved
leaders, PREPARE/COMMIT/DECIDE message types):

- :mod:`base` — the shared message format, the :class:`ConsensusAlgorithm`
  interface, the common update helpers, and :class:`LeaderConsensus`: the
  one leader-based commit/decide round machine (Algorithm 2, lines 15-30)
  that ES, eventual LM and eventual WLM all execute.
- :mod:`es` — 3-round algorithm for Eventual Synchrony (reconstruction of
  the optimal indulgent algorithm of [14]): the machine with a
  synchrony-derived leader.
- :mod:`lm` — 3-round algorithm for eventual LM (reconstruction of [19]):
  the machine's defaults.
- :mod:`afm` — 5-round leaderless algorithm for eventual AFM
  (reconstruction of [19]).
- :mod:`paxos` — round-based Paxos: the prior protocol able to run in
  eventual WLM, exhibiting the O(n)-rounds-after-GSR recovery of [13].

The paper's own algorithm for eventual WLM lives in :mod:`repro.core.wlm`
(the machine with ``Destinations()`` and rule decide-3).
"""

from repro.consensus.base import (
    MsgType,
    ConsensusMessage,
    ConsensusAlgorithm,
    LeaderConsensus,
    round_maximum,
)
from repro.consensus.es import EsConsensus
from repro.consensus.lm import LmConsensus
from repro.consensus.afm import AfmConsensus
from repro.consensus.paxos import PaxosConsensus

__all__ = [
    "MsgType",
    "ConsensusMessage",
    "ConsensusAlgorithm",
    "LeaderConsensus",
    "round_maximum",
    "EsConsensus",
    "LmConsensus",
    "AfmConsensus",
    "PaxosConsensus",
]
