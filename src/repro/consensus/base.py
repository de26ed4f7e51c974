"""Shared machinery of the indulgent consensus algorithms.

The message format is the paper's 5-tuple
``(msgType, est, ts, leader, majApproved)`` (Algorithm 2, line 8); the
baseline algorithms reuse it, leaving fields they do not need at their
defaults.  ``Values`` is any totally ordered set — the algorithms rely on
the order when several estimates share the maximal timestamp.

The commit/decide rule of Algorithm 2 (lines 15-30) is stated once, in
:class:`LeaderConsensus`; ◊WLM, ◊LM and ES are that machine with three
small methods overridden (who the trusted leader is, ``Destinations()``,
and the two ``majApproved`` guards).  :class:`TimestampedConsensus` holds
what the leaderless ◊AFM algorithm shares with it: the estimate state, the
message builder and rule decide-1.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Any, FrozenSet, Mapping, Optional, Tuple

from repro.giraf.kernel import GirafAlgorithm, RoundOutput


class MsgType(enum.IntEnum):
    """The three message types of Algorithm 2.

    A process sends COMMIT when it sees a possibility of decision in the
    next few rounds, DECIDE forever once it has decided, and PREPARE
    otherwise.
    """

    PREPARE = 0
    COMMIT = 1
    DECIDE = 2


@dataclass(frozen=True)
class ConsensusMessage:
    """One round's message.

    Attributes:
        msg_type: PREPARE / COMMIT / DECIDE.
        est: the sender's current estimate of the decision value.
        ts: the timestamp (ballot) attached to the estimate.
        leader: the process the sender's oracle indicated as leader when
            this message was produced (``None`` for leaderless algorithms).
        maj_approved: whether the sender received, in the round before this
            message was produced, messages from a majority of processes
            naming the sender as their leader.
    """

    msg_type: MsgType
    est: Any
    ts: int
    leader: Optional[int] = None
    maj_approved: bool = False

    def __post_init__(self) -> None:
        if self.ts < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.ts}")


def round_maximum(messages: Mapping[int, ConsensusMessage]) -> Tuple[int, Any]:
    """The paper's ``(maxTS, maxEST)`` update (Algorithm 2, lines 19-20).

    ``maxTS`` is the largest timestamp among this round's messages and
    ``maxEST`` the largest estimate carried with that timestamp (``Values``
    is totally ordered, so the maximum is well defined).
    """
    if not messages:
        raise ValueError("round_maximum needs at least one message")
    top_ts = max(m.ts for m in messages.values())
    top_est = max(m.est for m in messages.values() if m.ts == top_ts)
    return top_ts, top_est


class ConsensusAlgorithm(GirafAlgorithm):
    """Base class for the consensus algorithms.

    Concrete algorithms implement ``initialize``/``compute``; this base
    holds the consensus-problem state: the read-only proposal ``prop_i``
    and the write-once decision ``dec_i``.
    """

    def __init__(self, pid: int, n: int, proposal: Any) -> None:
        if n < 2:
            raise ValueError("consensus needs at least 2 processes")
        if not 0 <= pid < n:
            raise ValueError(f"pid {pid} out of range for n={n}")
        self.pid = pid
        self.n = n
        self.proposal = proposal
        self._decision: Any = None
        self.decided_in_round: Optional[int] = None

    @property
    def majority(self) -> int:
        """The majority threshold ``floor(n/2) + 1``."""
        return self.n // 2 + 1

    def decision(self) -> Any:
        """The decided value, or ``None`` while undecided."""
        return self._decision

    def _decide(self, value: Any, round_number: int) -> None:
        """Write the write-once decision variable."""
        if self._decision is not None:
            if self._decision != value:
                raise AssertionError(
                    f"process {self.pid} attempted to overwrite decision "
                    f"{self._decision!r} with {value!r}"
                )
            return
        self._decision = value
        self.decided_in_round = round_number


class TimestampedConsensus(ConsensusAlgorithm):
    """What every algorithm speaking :class:`ConsensusMessage` shares.

    The timestamped estimate and message type (Algorithm 2, lines 1-3 and
    6), the message builder (line 8) and rule decide-1 (lines 23-24).
    Leaderless algorithms leave ``new_leader`` and ``maj_approved`` at
    their defaults.
    """

    def __init__(self, pid: int, n: int, proposal: Any) -> None:
        super().__init__(pid, n, proposal)
        self.est: Any = proposal
        self.ts: int = 0
        self.maj_approved: bool = False
        self.new_leader: Optional[int] = None  # newLD_i
        self.msg_type: MsgType = MsgType.PREPARE
        self._all = frozenset(range(n))  # Π

    def _message(self) -> ConsensusMessage:
        return ConsensusMessage(
            msg_type=self.msg_type,
            est=self.est,
            ts=self.ts,
            leader=self.new_leader,
            maj_approved=self.maj_approved,
        )

    def _decide(self, value: Any, round_number: int) -> None:
        """Decide ``value``: it becomes the estimate, sent as DECIDE forever."""
        super()._decide(value, round_number)
        self.est = value
        self.msg_type = MsgType.DECIDE

    @staticmethod
    def _first_decide(
        messages: Mapping[int, ConsensusMessage]
    ) -> Optional[ConsensusMessage]:
        """The DECIDE message from the lowest-id sender, if any (rule decide-1)."""
        for sender in sorted(messages):
            if messages[sender].msg_type == MsgType.DECIDE:
                return messages[sender]
        return None


class LeaderConsensus(TimestampedConsensus):
    """The leader-based round machine: Algorithm 2, code for process ``p_i``.

    ``compute`` is the paper's lines 15-30 and is the only copy of the
    commit/decide rule.  The algorithms built on it differ in exactly
    three places, each a method:

    - :meth:`_leader` — whom the process trusts at an end-of-round: the Ω
      oracle's output (◊LM, ◊WLM), or the lowest-id sender heard (ES).
    - :meth:`_destinations` — the paper's ``Destinations()`` (lines 9-11):
      Π here; leader-only in ◊WLM.
    - :meth:`_commit_guard` / :meth:`_decide3_guard` — the two
      ``majApproved`` tests (lines 27 and 26).  Commit always needs the
      leader's; decide-3 needs the decider's own only in ◊WLM, because in
      ES and ◊LM every process, not just the leader, hears from a majority.
    """

    def _leader(
        self, oracle_output: Any, messages: Mapping[int, ConsensusMessage]
    ) -> int:
        """The trusted leader given this round's messages (none at round 0)."""
        return int(oracle_output)

    def _destinations(self, leader: int) -> FrozenSet[int]:
        return self._all

    def _commit_guard(self, leader_msg: ConsensusMessage) -> bool:
        return leader_msg.maj_approved

    def _decide3_guard(self, own: ConsensusMessage) -> bool:
        return True

    # ------------------------------------------------------------------
    # procedure initialize(leader_i)  (lines 12-14)
    # ------------------------------------------------------------------
    def initialize(self, oracle_output: Any) -> RoundOutput:
        leader = self._leader(oracle_output, {})
        self.new_leader = leader
        return RoundOutput(self._message(), self._destinations(leader))

    # ------------------------------------------------------------------
    # procedure compute(k_i, M[*][*], leader_i)  (lines 15-30)
    # ------------------------------------------------------------------
    def compute(
        self,
        round_number: int,
        messages: Mapping[int, ConsensusMessage],
        oracle_output: Any,
    ) -> RoundOutput:
        leader = self._leader(oracle_output, messages)
        if self._decision is None:
            # Update variables (lines 18-21).  The process always has its
            # own round-k message, so `messages` is never empty.  The
            # paper's prevLD_i and maxTS_i are written before they are read
            # every round: locals.
            prev_ld, self.new_leader = self.new_leader, leader
            top_ts, top_est = round_maximum(messages)
            self.maj_approved = (
                sum(1 for m in messages.values() if m.leader == self.pid)
                > self.n // 2
            )

            # Round actions (lines 22-29).
            decide_msg = self._first_decide(messages)
            commit_count = sum(
                1 for m in messages.values() if m.msg_type == MsgType.COMMIT
            )
            own = messages.get(self.pid)
            leader_msg = messages.get(prev_ld)
            if decide_msg is not None:
                # decide-1 (lines 23-24)
                self._decide(decide_msg.est, round_number)
            elif (
                commit_count > self.n // 2
                and own is not None
                and own.msg_type == MsgType.COMMIT  # decide-2 (line 25)
                and self._decide3_guard(own)  # decide-3 (line 26)
            ):
                self._decide(self.est, round_number)
            elif leader_msg is not None and self._commit_guard(leader_msg):
                # commit (lines 27-28)
                self.est = leader_msg.est
                self.ts = round_number
                self.msg_type = MsgType.COMMIT
            else:
                # prepare (line 29)
                self.ts = top_ts
                self.est = top_est
                self.msg_type = MsgType.PREPARE

        return RoundOutput(self._message(), self._destinations(leader))
