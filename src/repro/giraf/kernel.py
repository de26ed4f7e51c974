"""The GIRAF algorithm interface.

An algorithm instantiates Algorithm 1 of the paper by implementing
:class:`GirafAlgorithm`.  Both hooks return a :class:`RoundOutput`: the
payload to send in the next round and the set of destinations (the paper's
``D_i``).  The framework — not the algorithm — handles round numbering,
buffering, and the self-message (a process always "receives" its own
round-``k`` message in round ``k``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, FrozenSet, Mapping


@dataclass(frozen=True, slots=True)
class RoundOutput:
    """What an algorithm hands back to the framework at an end-of-round.

    Attributes:
        payload: the message body for the next round.  ``None`` means the
            process sends nothing next round (still counted as a round).
        destinations: process ids the payload is addressed to.  The paper's
            ``D_i``; the framework strips the sender itself before actually
            transmitting, and delivers the self-copy locally for free.
    """

    payload: Any
    destinations: FrozenSet[int]


class GirafAlgorithm(abc.ABC):
    """One process's instantiation of Algorithm 1.

    A fresh instance is created per process per run; instances never share
    state (all communication goes through messages).
    """

    @abc.abstractmethod
    def initialize(self, oracle_output: Any) -> RoundOutput:
        """Called at the first end-of-round (round 0): produce round 1's message."""

    @abc.abstractmethod
    def compute(
        self, round_number: int, messages: Mapping[int, Any], oracle_output: Any
    ) -> RoundOutput:
        """Called at the end of round ``round_number``: produce the next message.

        Args:
            round_number: the round that just ended (``k_i`` in the paper).
            messages: the round-``round_number`` messages received, keyed by
                sender (the paper's ``M_i[k_i][*]``; the own message
                included).  A round-driven algorithm reads no other round,
                so the framework keeps no other round for it.
            oracle_output: this round's failure-detector output (``FD_i``).
        """

    def decision(self) -> Any:
        """The decided value, or ``None`` if this process has not decided.

        Consensus algorithms override this; non-consensus GIRAF algorithms
        (e.g. the measurement heartbeat) keep the default.
        """
        return None
