"""The GIRAF algorithm interface and the per-round message store.

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


class Inbox:
    """The message store ``M_i[N][\\Pi]`` of Algorithm 1.

    Maps ``(round, sender) -> payload``.  A round-``k`` message is
    recorded in slot ``k`` whenever it arrives — exactly as Algorithm 1
    does.  On the event-driven stack that makes a late message harmless
    to round-driven algorithms, and puts a future-round message where the
    process finds it after jumping to that round.
    """

    def __init__(self) -> None:
        self._slots: dict[int, dict[int, Any]] = {}

    def record(self, round_number: int, sender: int, payload: Any) -> None:
        """Store ``payload`` as the round-``round_number`` message of ``sender``."""
        slot = self._slots.get(round_number)
        if slot is None:  # not ``setdefault``: that builds a dict per call
            slot = self._slots[round_number] = {}
        slot[sender] = payload

    def round(self, round_number: int) -> Mapping[int, Any]:
        """All messages of the given round, keyed by sender id."""
        return self._slots.get(round_number, {})

    def get(self, round_number: int, sender: int) -> Any:
        """The round-``round_number`` message of ``sender``, or ``None``."""
        return self._slots.get(round_number, {}).get(sender)

    def senders(self, round_number: int) -> frozenset[int]:
        """Ids of processes whose round-``round_number`` message arrived."""
        return frozenset(self._slots.get(round_number, {}))


class GirafAlgorithm(abc.ABC):
    """One process's instantiation of Algorithm 1.

    A fresh instance is created per process per run; instances never share
    state (all communication goes through messages).
    """

    @abc.abstractmethod
    def initialize(self, oracle_output: Any) -> RoundOutput:
        """Called at the first end-of-round (round 0): produce round 1's message."""

    @abc.abstractmethod
    def compute(self, round_number: int, inbox: Inbox, oracle_output: Any) -> RoundOutput:
        """Called at the end of round ``round_number``: produce the next message.

        Args:
            round_number: the round that just ended (``k_i`` in the paper).
            inbox: all messages received so far (``M_i``).
            oracle_output: this round's failure-detector output (``FD_i``).
        """

    def decision(self) -> Any:
        """The decided value, or ``None`` if this process has not decided.

        Consensus algorithms override this; non-consensus GIRAF algorithms
        (e.g. the measurement heartbeat) keep the default.
        """
        return None
