"""The 3-round consensus algorithm for Eventual Synchrony.

Reconstruction of the optimal indulgent ES algorithm of Dutta, Guerraoui &
Keidar [14] (round count only is given in the paper).  ES provides no
failure detector, so the coordinator is *derived from synchrony itself*:
at each end-of-round a process trusts the lowest-id process it heard from
in that round.  Once all links between correct processes are timely, all
correct processes hear the same sender set and hence trust the same
coordinator — a "virtual Ω" that costs no extra rounds.

The commit/decide rules are the shared ones
(:class:`~repro.consensus.base.LeaderConsensus`, configured as in
:mod:`lm`): a coordinator commits others only with a majority-approved
message, deciders need a majority of COMMITs including their own.  Safety therefore never depends
on the coordinator choice being consistent; only liveness does.

Round count from GSR: 3 rounds when the coordinator was already consistent
in the round before GSR (failure-free runs — the common case Section 4
analyzes, since all correct processes hear ``p_0``); one extra round when
GSR also changes the coordinator.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.consensus.base import ConsensusMessage, LeaderConsensus


class EsConsensus(LeaderConsensus):
    """All-to-all consensus with a synchrony-derived coordinator; 3 stable
    rounds in ES."""

    def _leader(
        self, oracle_output: Any, messages: Mapping[int, ConsensusMessage]
    ) -> int:
        # ES has no oracle.  Synchrony-derived coordinator: the lowest-id
        # sender heard this round (the own message is always present);
        # before any round, p_0 by convention.
        return min(messages, default=0)
