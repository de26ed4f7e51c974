"""Round-based single-decree Paxos — the prior-art baseline for ◊WLM.

Paxos [21] makes progress under ◊WLM's guarantees (the leader exchanges
messages with a majority and reaches everyone), but — as Dutta, Guerraoui &
Keidar observe [13] — it can need a *linear* number of rounds after GSR:
the leader insists on discovering the highest ballot in the system before
committing, and each newly surfaced higher ballot aborts the current
attempt.  The paper's Algorithm 2 exists precisely to avoid this; the
benchmark ``test_paxos_linear_recovery`` reproduces the contrast.

The implementation maps classic Paxos onto GIRAF rounds with *state-based*
acceptor replies: every process broadcasts its acceptor state
``(promised, vrnd, vval)`` each round; the leader reads a reply as a
phase-1 promise iff ``promised`` equals its ballot, and as a phase-2 accept
iff ``vrnd`` equals its ballot.  A reply with a higher ``promised`` acts as
a NACK and aborts the attempt.  Ballots are made proposer-unique by the
usual ``t * n + pid`` construction.

Message pattern: non-leaders send only to their Ω leader; the leader sends
to everyone — linear per round, like Algorithm 2, so the comparison
isolates the *recovery* behaviour rather than message complexity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, FrozenSet, Mapping, Optional

from repro.consensus.base import ConsensusAlgorithm
from repro.giraf.kernel import RoundOutput


class PaxosCmd(enum.IntEnum):
    """Leader-to-acceptors command carried in a round message."""

    NONE = 0
    P1A = 1
    P2A = 2
    DECIDE = 3


@dataclass(frozen=True)
class PaxosMessage:
    """One process's round message: acceptor state plus optional command.

    Attributes:
        promised: highest ballot this acceptor has promised (``rnd``).
        vrnd: ballot of the last accepted value (0 = none).
        vval: the last accepted value.
        cmd: leader command, if the sender is acting as a proposer.
        cmd_ballot: ballot of the command.
        cmd_value: value of a P2A or DECIDE command.
    """

    promised: int
    vrnd: int
    vval: Any
    cmd: PaxosCmd = PaxosCmd.NONE
    cmd_ballot: int = 0
    cmd_value: Any = None


class PaxosConsensus(ConsensusAlgorithm):
    """Single-decree Paxos in GIRAF; correct in ◊WLM, O(n) recovery worst case."""

    def __init__(self, pid: int, n: int, proposal: Any) -> None:
        super().__init__(pid, n, proposal)
        # Acceptor state.
        self.promised = 0
        self.vrnd = 0
        self.vval: Any = None
        # Proposer state.
        self.cballot: Optional[int] = None
        self.phase = 0  # 0 = idle, 1 = collecting promises, 2 = collecting accepts
        self.cvalue: Any = None
        self.restarts = 0  # number of aborted ballots (instrumentation)
        self._pending_cmd = PaxosCmd.NONE
        self._leader: Optional[int] = None

    # ------------------------------------------------------------------
    # Ballot arithmetic: ballots of process i are { t*n + i : t >= 1 }.
    # ------------------------------------------------------------------
    def _next_ballot(self, above: int) -> int:
        t = max(above // self.n, 0) + 1
        while t * self.n + self.pid <= above:
            t += 1
        return t * self.n + self.pid

    def _destinations(self, leader: int) -> FrozenSet[int]:
        if leader == self.pid:
            return frozenset(range(self.n))
        return frozenset({leader})

    def _message(self) -> PaxosMessage:
        cmd = self._pending_cmd
        if self._decision is not None:
            return PaxosMessage(
                promised=self.promised,
                vrnd=self.vrnd,
                vval=self.vval,
                cmd=PaxosCmd.DECIDE,
                cmd_ballot=self.cballot or 0,
                cmd_value=self._decision,
            )
        return PaxosMessage(
            promised=self.promised,
            vrnd=self.vrnd,
            vval=self.vval,
            cmd=cmd,
            cmd_ballot=self.cballot or 0,
            cmd_value=self.cvalue if cmd == PaxosCmd.P2A else None,
        )

    def initialize(self, oracle_output: Any) -> RoundOutput:
        leader = int(oracle_output)
        self._leader = leader
        if leader == self.pid:
            self.cballot = self._next_ballot(0)
            self.phase = 1
            self._pending_cmd = PaxosCmd.P1A
        return RoundOutput(self._message(), self._destinations(leader))

    def compute(
        self,
        round_number: int,
        messages: Mapping[int, PaxosMessage],
        oracle_output: Any,
    ) -> RoundOutput:
        leader = int(oracle_output)

        if self._decision is None:
            self._acceptor_step(messages, round_number)
        if self._decision is None:
            self._proposer_step(messages, leader, round_number)
        self._leader = leader
        return RoundOutput(self._message(), self._destinations(leader))

    # ------------------------------------------------------------------
    # Acceptor: obey commands in ballot order.
    # ------------------------------------------------------------------
    def _acceptor_step(
        self, messages: Mapping[int, PaxosMessage], round_number: int
    ) -> None:
        commands = sorted(
            (m for m in messages.values() if m.cmd != PaxosCmd.NONE),
            key=lambda m: (m.cmd_ballot, m.cmd),
        )
        for m in commands:
            if m.cmd == PaxosCmd.P1A:
                if m.cmd_ballot > self.promised:
                    self.promised = m.cmd_ballot
            elif m.cmd == PaxosCmd.P2A:
                if m.cmd_ballot >= self.promised:
                    self.promised = m.cmd_ballot
                    self.vrnd = m.cmd_ballot
                    self.vval = m.cmd_value
            elif m.cmd == PaxosCmd.DECIDE:
                self._decide(m.cmd_value, round_number)
                return

    # ------------------------------------------------------------------
    # Proposer: run phases, restart on higher ballots.
    # ------------------------------------------------------------------
    def _proposer_step(
        self, messages: Mapping[int, PaxosMessage], leader: int, round_number: int
    ) -> None:
        if leader != self.pid:
            # Demoted: stop proposing, keep acceptor state.
            self._pending_cmd = PaxosCmd.NONE
            self.phase = 0
            return

        highest_seen = max(
            [m.promised for m in messages.values()]
            + [m.cmd_ballot for m in messages.values()]
            + [self.promised]
        )

        if self.cballot is None or self.phase == 0:
            self.cballot = self._next_ballot(highest_seen)
            self.phase = 1
            self._pending_cmd = PaxosCmd.P1A
            return

        if self.phase == 1:
            promises = [m for m in messages.values() if m.promised == self.cballot]
            if len(promises) > self.n // 2:
                accepted = [m for m in promises if m.vrnd > 0]
                if accepted:
                    best = max(accepted, key=lambda m: m.vrnd)
                    self.cvalue = best.vval
                else:
                    self.cvalue = self.proposal
                self.phase = 2
                self._pending_cmd = PaxosCmd.P2A
            elif highest_seen > self.cballot:
                # A higher ballot exists: abort and chase it — the Paxos
                # behaviour that costs O(n) rounds after GSR in ◊WLM [13].
                self.restarts += 1
                self.cballot = self._next_ballot(highest_seen)
                self.phase = 1
                self._pending_cmd = PaxosCmd.P1A
            # else: keep re-broadcasting P1A until a majority answers.
            return

        if self.phase == 2:
            accepts = sum(1 for m in messages.values() if m.vrnd == self.cballot)
            if accepts > self.n // 2:
                self._decide(self.cvalue, round_number)
                self._pending_cmd = PaxosCmd.DECIDE
            elif highest_seen > self.cballot:
                self.restarts += 1
                self.cballot = self._next_ballot(highest_seen)
                self.phase = 1
                self._pending_cmd = PaxosCmd.P1A
            # else: keep re-broadcasting P2A.
