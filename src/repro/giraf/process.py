"""The generic round automaton of Algorithm 1.

:class:`GirafProcess` holds the framework state of one process — the round
counter ``k_i``, the inbox ``M_i``, the pending outgoing message and its
destination set ``D_i`` — and wires the two algorithm hooks into the
end-of-round action.  It is execution-agnostic: the lockstep runner and the
asynchronous (round-synchronized) runner both drive it through
:meth:`receive` and :meth:`end_of_round`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.giraf.kernel import GirafAlgorithm, Inbox, RoundOutput


class GirafProcess:
    """Process ``p_i`` of Algorithm 1.

    The life cycle per the paper: the first ``end-of-round`` queries the
    oracle and calls ``initialize()``; each subsequent ``end-of-round``
    queries the oracle and calls ``compute()``.  Between end-of-rounds the
    process sends its current message to ``D_i \\ {i}`` and receives
    whatever arrives.  The self-copy of each round's message is recorded
    into the inbox immediately when the message is produced.
    """

    def __init__(self, pid: int, algorithm: GirafAlgorithm) -> None:
        self.pid = pid
        self.algorithm = algorithm
        self.round = 0  # k_i
        self.inbox = Inbox()
        self._outgoing: Optional[RoundOutput] = None

    @property
    def outgoing_payload(self) -> Any:
        """The message body this process sends in its current round."""
        if self._outgoing is None:
            return None
        return self._outgoing.payload

    def send_targets(self) -> frozenset[int]:
        """Destinations actually transmitted to: ``D_i \\ {i}``."""
        if self._outgoing is None or self._outgoing.payload is None:
            return frozenset()
        return frozenset(d for d in self._outgoing.destinations if d != self.pid)

    def receive(self, round_number: int, sender: int, payload: Any) -> None:
        """Deliver a round-``round_number`` message from ``sender``."""
        self.inbox.record(round_number, sender, payload)

    def end_of_round(
        self, oracle_output: Any, next_round: Optional[int] = None
    ) -> RoundOutput:
        """Fire the ``end-of-round_i`` action; returns the next round's output.

        ``next_round`` lets the round-synchronization protocol of
        Section 5.1 *jump*: after computing, the process joins its peers
        directly in a future round (skipping the rounds in between) so it
        can use the future-round message that triggered the jump.  Rounds
        only ever move forward.
        """
        if self.round == 0:
            output = self.algorithm.initialize(oracle_output)
        else:
            output = self.algorithm.compute(self.round, self.inbox, oracle_output)
        if next_round is None:
            next_round = self.round + 1
        elif next_round <= self.round:
            raise ValueError(
                f"cannot jump from round {self.round} back to {next_round}"
            )
        self.round = next_round
        self._outgoing = output
        # The process "receives" its own message in the round it sends it
        # (Algorithm 1 never transmits to self, but M_i[k][i] is defined).
        if output.payload is not None:
            self.inbox.record(self.round, self.pid, output.payload)
        return output

    def decision(self) -> Any:
        """The algorithm's decision value, or ``None``."""
        return self.algorithm.decision()
