"""The all-to-all probe algorithm of the measurement experiments.

The paper's LAN and WAN experiments do not run consensus directly: every
node sends a message to every other node each round, and the *conditions*
of each timing model are evaluated offline on the resulting delivery
matrices ("we measure the time and number of rounds until the appropriate
conditions for global decision are satisfied for each model").  This
algorithm is that probe stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.giraf.kernel import GirafAlgorithm, Inbox, RoundOutput


@dataclass(frozen=True, slots=True)
class Probe:
    """A heartbeat payload: just the sender and the round it belongs to."""

    sender: int
    round_number: int


class HeartbeatAlgorithm(GirafAlgorithm):
    """Sends a probe to everyone each round; never decides."""

    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self.n = n
        self._all = frozenset(range(n))
        self.rounds_computed = 0

    def initialize(self, oracle_output: Any) -> RoundOutput:
        return RoundOutput(Probe(self.pid, 1), self._all)

    def compute(self, round_number: int, inbox: Inbox, oracle_output: Any) -> RoundOutput:
        self.rounds_computed += 1
        return RoundOutput(Probe(self.pid, round_number + 1), self._all)
