"""The generic round automaton of Algorithm 1.

:class:`GirafProcess` holds the framework state of one process — the round
counter ``k_i``, the messages of its current and future rounds, the pending
outgoing message and its destination set ``D_i`` — and runs the
end-of-round action.  It is execution-agnostic: every engine drives it
through :meth:`transmit_targets`, :meth:`receive` and :meth:`end_of_round`.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.giraf.kernel import GirafAlgorithm, RoundOutput
from repro.giraf.oracle import Oracle


def notify(observers: Sequence[Any], hook: str, *args: Any) -> None:
    """Call ``hook(*args)`` on every observer that implements it.

    An observer implements any subset of the hooks (see
    :class:`~repro.giraf.runner.LockstepRunner`); this is the one dispatch
    both the lockstep and the round-synchronized runners use.
    """
    for observer in observers:
        method = getattr(observer, hook, None)
        if method is not None:
            method(*args)


class GirafProcess:
    """Process ``p_i`` of Algorithm 1.

    The life cycle per the paper: the first ``end-of-round`` queries the
    oracle and calls ``initialize()``; each subsequent ``end-of-round``
    queries the oracle and calls ``compute()`` on the round's messages.
    Between end-of-rounds the process sends its current message to
    ``D_i \\ {i}`` and receives whatever arrives.  The self-copy of each
    round's message is stored immediately when the message is produced.

    Of the paper's ``M_i[N][\\Pi]`` only the current and future rounds are
    kept: an end-of-round hands its round's messages to ``compute`` and
    forgets them, and a message for a round already over is dropped.
    """

    def __init__(self, pid: int, algorithm: GirafAlgorithm) -> None:
        self.pid = pid
        self.algorithm = algorithm
        self.round = 0  # k_i
        #: ``round -> sender -> payload`` for the current and future rounds.
        self.slots: dict[int, dict[int, Any]] = {}
        self._outgoing: Optional[RoundOutput] = None

    @property
    def outgoing_payload(self) -> Any:
        """The message body this process sends in its current round."""
        if self._outgoing is None:
            return None
        return self._outgoing.payload

    def transmit_targets(self, n: int) -> list[int]:
        """Where this process sends its current round's message: ``D_i
        \\ {i}`` in ascending order — the transmit step of every engine
        (the round step of :mod:`repro.giraf.runner`, the event-driven
        :class:`~repro.sync.round_sync.SyncedNode`).  A destination
        outside ``range(n)`` is refused, naming the sender, the round and
        the destination: no engine has a process there."""
        if self._outgoing is None or self._outgoing.payload is None:
            return []
        targets = sorted(set(self._outgoing.destinations).difference((self.pid,)))
        if targets and not (0 <= targets[0] and targets[-1] < n):
            dst = targets[0] if targets[0] < 0 else targets[-1]
            raise ValueError(
                f"process {self.pid} addressed its round-{self.round}"
                f" message to {dst}, outside range({n})"
            )
        return targets

    def receive(self, round_number: int, sender: int, payload: Any) -> None:
        """Deliver a round-``round_number`` message from ``sender``; one for
        a round already over is useless to a round-driven algorithm and is
        dropped."""
        if round_number < self.round:
            return
        slot = self.slots.get(round_number)
        if slot is None:  # not ``setdefault``: that builds a dict per call
            slot = self.slots[round_number] = {}
        slot[sender] = payload

    def end_of_round(
        self,
        oracle: Oracle,
        observers: Sequence[Any] = (),
        next_round: Optional[int] = None,
    ) -> Any:
        """Fire the ``end-of-round_i`` action; returns the decision, if any.

        Queries ``oracle`` (reported to ``observers`` as ``on_oracle``),
        calls ``initialize`` (round 0) or ``compute`` on the round's
        messages, and reports a decision as ``on_decision`` — every round
        while it is latched, so integrity checkers see a value change.

        ``next_round`` lets the round-synchronization protocol of
        Section 5.1 *jump*: after computing, the process joins its peers
        directly in a future round (skipping the rounds in between) so it
        can use the future-round message that triggered the jump.  Rounds
        only ever move forward.
        """
        k = self.round
        if next_round is None:
            next_round = k + 1
        elif next_round <= k:
            raise ValueError(f"cannot jump from round {k} back to {next_round}")
        oracle_output = oracle.query(self.pid, k)
        notify(observers, "on_oracle", self.pid, k, oracle_output)
        if k == 0:
            output = self.algorithm.initialize(oracle_output)
        else:
            output = self.algorithm.compute(k, self.slots.pop(k, {}), oracle_output)
        self.round = next_round
        self._outgoing = output
        # The process "receives" its own message in the round it sends it
        # (Algorithm 1 never transmits to self, but M_i[k][i] is defined).
        if output.payload is not None:
            self.receive(next_round, self.pid, output.payload)
        decision = self.algorithm.decision()
        if decision is not None:
            notify(observers, "on_decision", self.pid, k, decision)
        return decision

    def decision(self) -> Any:
        """The algorithm's decision value, or ``None``."""
        return self.algorithm.decision()
