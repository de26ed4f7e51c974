"""Slot-order invariance: ``compute`` reads its round's messages as a set.

A round's messages reach ``compute`` as a mapping keyed by sender, and
its insertion order is whatever order the execution engine delivered
them in: by sender on the lockstep runner and the stepped grid engine,
by arrival on the event loop.  Every algorithm must give the same output
and end in the same state under every insertion order, which is what lets
the engines share one round step.

The messages are the ones real runs produce (chaotic schedules, leaders
that disagree before they settle or keep rotating, crashes), so every invariant a reachable
state keeps holds: Paxos's one value per ballot (``_next_ballot`` makes a
ballot its proposer's alone), one decided value (agreement), and one
round-``k`` message per sender in every array ◊LM-over-◊WLM forwards.
Three reads rely on one of them: Paxos's ``max(accepted, key=vrnd)`` and
the stable ballot sort in ``_acceptor_step`` (one value per ballot, one
decided value) and the forwarded arrays' ``setdefault`` (one message per
sender).  The leader family's and ◊AFM's reads (maxima, counts, the
lowest-id DECIDE, at most one pair with a majority of COMMITs) hold for
any messages at all, which a test states directly; Paxos's hold for
any messages that keep its two invariants, which another states.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus import AfmConsensus, EsConsensus, LmConsensus, PaxosConsensus
from repro.consensus.base import ConsensusMessage, MsgType
from repro.consensus.paxos import PaxosCmd, PaxosMessage
from repro.core import LmOverWlmSimulation, WlmConsensus
from repro.faults import Crash, FaultPlan
from repro.giraf import (
    EventuallyStableLeaderOracle,
    GirafAlgorithm,
    IIDSchedule,
    LockstepRunner,
    RotatingLeaderOracle,
)
from repro.sync.heartbeat import HeartbeatAlgorithm

FACTORIES = {
    "WLM": lambda pid, n: WlmConsensus(pid, n, proposal=pid),
    "LM": lambda pid, n: LmConsensus(pid, n, proposal=pid),
    "ES": lambda pid, n: EsConsensus(pid, n, proposal=pid),
    "AFM": lambda pid, n: AfmConsensus(pid, n, proposal=pid),
    "PAXOS": lambda pid, n: PaxosConsensus(pid, n, proposal=pid),
    "LM-over-WLM": lambda pid, n: LmOverWlmSimulation(
        pid, n, LmConsensus(pid, n, proposal=pid)
    ),
    "heartbeat": HeartbeatAlgorithm,
}


def state(value):
    """An algorithm's whole state, nested algorithms included, as plain
    values that compare by content (a dict's order is not its content)."""
    if isinstance(value, GirafAlgorithm):
        return {name: state(field) for name, field in vars(value).items()}
    return value


class OrderChecked(GirafAlgorithm):
    """Runs ``inner`` on its messages in sender order and, on a copy of
    its state, in a drawn order; the two must not differ."""

    def __init__(self, inner: GirafAlgorithm, random) -> None:
        self.inner = inner
        self.random = random
        self.checked = 0

    def initialize(self, oracle_output):
        return self.inner.initialize(oracle_output)

    def compute(self, round_number, messages, oracle_output):
        shuffled = list(messages.items())
        self.random.shuffle(shuffled)
        twin = copy.deepcopy(self.inner)
        output = self.inner.compute(
            round_number, dict(sorted(messages.items())), oracle_output
        )
        assert twin.compute(round_number, dict(shuffled), oracle_output) == output
        assert state(twin) == state(self.inner)
        self.checked += 1
        return output

    def decision(self):
        return self.inner.decision()


@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(
    n=st.integers(min_value=2, max_value=6),
    p=st.floats(min_value=0.2, max_value=1.0),
    stable_from=st.integers(min_value=0, max_value=30),
    period=st.integers(min_value=0, max_value=4),
    crash=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    random=st.randoms(use_true_random=False),
)
@settings(max_examples=20, deadline=None)
def test_compute_is_blind_to_insertion_order(
    name, n, p, stable_from, period, crash, seed, random
):
    """A leader that rotates every ``period`` rounds (none: one that
    settles at ``stable_from``) lets proposers' ballots interleave, so a
    Paxos leader collects promises that carry different accepted
    ballots."""
    plan = (
        FaultPlan(n, crashes=(Crash(n - 1, 1 + seed % 10),))
        if crash and n >= 3
        else None
    )
    checked = []

    def factory(pid):
        checked.append(OrderChecked(FACTORIES[name](pid, n), random))
        return checked[-1]

    LockstepRunner(
        n,
        factory,
        RotatingLeaderOracle(n, period)
        if period
        else EventuallyStableLeaderOracle(0, stable_from, n, seed=seed),
        IIDSchedule(n, p=p, seed=seed),
        fault_plan=plan,
    ).run(max_rounds=40, stop_on_global_decision=False)
    assert sum(algorithm.checked for algorithm in checked) > 0


messages_of = st.builds(
    ConsensusMessage,
    msg_type=st.sampled_from(MsgType),
    est=st.integers(min_value=0, max_value=3),
    ts=st.integers(min_value=0, max_value=4),
    leader=st.none() | st.integers(min_value=0, max_value=4),
    maj_approved=st.booleans(),
)


@given(
    name=st.sampled_from(["WLM", "LM", "ES", "AFM"]),
    data=st.data(),
    n=st.integers(min_value=2, max_value=5),
    leader=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_leader_family_and_afm_read_any_messages_as_a_set(name, data, n, leader):
    """No invariant needed: arbitrary messages from any senders (the own
    one always among them, as the framework stores it), any prior
    state the algorithm reached on such messages."""
    pid = data.draw(st.integers(min_value=0, max_value=n - 1))
    algorithm = FACTORIES[name](pid, n)
    algorithm.initialize(leader % n)
    for k in range(1, data.draw(st.integers(min_value=1, max_value=4)) + 1):
        senders = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        messages = {s: data.draw(messages_of) for s in sorted(senders | {pid})}
        order = data.draw(st.permutations(sorted(messages)))
        twin = copy.deepcopy(algorithm)
        output = algorithm.compute(k, messages, leader % n)
        shuffled = {s: messages[s] for s in order}
        assert twin.compute(k, shuffled, leader % n) == output
        assert state(twin) == state(algorithm)


@st.composite
def paxos_rounds(draw, n: int, pid: int):
    """Rounds of Paxos messages that keep the invariants a run keeps: a
    ballot ``t * n + s`` is proposer ``s``'s, carries one value
    (its own, ``value(b)``) in every P2A and acceptor state, and every DECIDE
    carries the one decided value.  Promises of ``pid``'s first ballot
    are drawn often, so a phase 1 it leads completes."""
    ballots = [0] + [t * n + s for t in (1, 2, 3) for s in range(n)]

    def value(ballot):
        return f"value-{ballot}" if ballot else None

    decided = value(draw(st.sampled_from(ballots[1:])))

    def message(sender):
        promised = draw(st.just(n + pid) | st.sampled_from(ballots))
        vrnd = draw(st.sampled_from([b for b in ballots if b <= promised]))
        cmd = draw(st.sampled_from(PaxosCmd))
        ballot = draw(st.integers(min_value=1, max_value=3)) * n + sender
        if cmd == PaxosCmd.DECIDE:
            ballot = draw(st.sampled_from(ballots))
        return PaxosMessage(
            promised=promised,
            vrnd=vrnd,
            vval=value(vrnd),
            cmd=cmd,
            cmd_ballot=0 if cmd == PaxosCmd.NONE else ballot,
            cmd_value={PaxosCmd.P2A: value(ballot), PaxosCmd.DECIDE: decided}.get(cmd),
        )

    rounds = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        senders = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
        messages = {s: message(s) for s in sorted(senders)}
        rounds.append((messages, draw(st.permutations(sorted(messages)))))
    return rounds


@given(data=st.data(), n=st.integers(min_value=2, max_value=5))
@settings(max_examples=400, deadline=None)
def test_paxos_reads_any_invariant_keeping_messages_as_a_set(data, n):
    pid = data.draw(st.integers(min_value=0, max_value=n - 1))
    leaders = st.just(pid) | st.integers(min_value=0, max_value=n - 1)
    algorithm = PaxosConsensus(pid, n, proposal=pid)
    algorithm.initialize(data.draw(leaders))
    for k, (messages, order) in enumerate(data.draw(paxos_rounds(n, pid)), start=1):
        leader = data.draw(leaders)
        twin = copy.deepcopy(algorithm)
        output = algorithm.compute(k, messages, leader)
        shuffled = {s: messages[s] for s in order}
        assert twin.compute(k, shuffled, leader) == output
        assert state(twin) == state(algorithm)
