"""Golden faulted lockstep runs: one fault plan per fault class.

Each world installs one :class:`~repro.faults.FaultPlan` — a recovering
crash, a permanent crash, a loss burst, a partition, leader churn, and a
permanent crash that dies mid-broadcast — on the lockstep runner, for
every consensus algorithm over the same chaos-then-stable schedule.  The
numbers were recorded when the runner still reached a plan through a
separate adapter (a masking schedule, a churned oracle and an extracted
crash list); the runner taking the plan directly must reproduce them to
the message.

The one exception is the mid-broadcast world: the adapter's mask also
swallowed the dying process's last words.  Its expected deliveries are
those of the direct crash-round route, which delivered them, with the
dead process's own row undelivered as in every other plan run.

A slow node is a latency factor, which the lockstep runner has no
latencies to apply: its world is an event run on the round grid whose
wire carries the slow node, replayed on the lockstep runner
(:func:`~repro.check.differential.lockstep_replay`).  The replay takes
the event run's decisions, and its numbers are pinned the same way.
"""

import hashlib

import numpy as np
import pytest

from repro.check.differential import lockstep_replay
from repro.faults import Crash, FaultPlan, LeaderChurn, LossBurst, Partition, SlowNode
from repro.giraf import (
    FixedLeaderOracle,
    IIDSchedule,
    LockstepRunner,
    NullOracle,
    StableAfterSchedule,
)
from repro.net import uniform_wan_profile
from repro.sim import Transport
from repro.sync import SyncRun
from tests.conftest import ALGORITHMS, LIVENESS

N = 5
GSR = 8

WORLDS = {
    "recovering-crash": FaultPlan(N, crashes=(Crash(2, 3, recover_round=7),)),
    "permanent-crash": FaultPlan(N, crashes=(Crash(3, 4),)),
    "burst": FaultPlan(N, loss_bursts=(LossBurst(2, 9, drop_prob=0.5),), seed=5),
    "partition": FaultPlan(N, partitions=(Partition(((0, 1, 2), (3, 4)), 2, 10),)),
    "churn": FaultPlan(N, leader_churn=(LeaderChurn(3, 10),), seed=4),
    "final-sends": FaultPlan(
        N, crashes=(Crash(3, 4, final_sends=frozenset({0, 1})),)
    ),
}

#: (world, algorithm) -> (messages sent, per-round messages, per-process
#: decision rounds, decided values, sent-matrix digest, delivered digest)
GOLDEN = {
    ("recovering-crash", "ES"): (160, [20, 20, 20, 20, 20, 20, 20, 20], [6, 5, 8, 5, 3], ['value-3'], "bc633b3d23c69ae9", "1cd95c11d7e3aa84"),
    ("recovering-crash", "LM"): (160, [20, 20, 20, 20, 20, 20, 20, 20], [3, 3, 8, 4, 3], ['value-3'], "bc633b3d23c69ae9", "479d46b64197c325"),
    ("recovering-crash", "WLM"): (64, [8, 8, 8, 8, 8, 8, 8, 8], [3, 5, 8, 4, 4], ['value-3'], "93cb0860870ed418", "9c3a5cd9e2dcea6c"),
    ("recovering-crash", "AFM"): (160, [20, 20, 20, 20, 20, 20, 20, 20], [4, 3, 8, 5, 3], ['value-4'], "bc633b3d23c69ae9", "894c5a4bd9f4f258"),
    ("recovering-crash", "PAXOS"): (64, [8, 8, 8, 8, 8, 8, 8, 8], [6, 7, 8, 7, 7], ['value-0'], "93cb0860870ed418", "9c3a5cd9e2dcea6c"),
    ("permanent-crash", "ES"): (108, [20, 20, 20, 16, 16, 16], [6, 5, 6, None, 3], ['value-3'], "e67b393e1b24c8bf", "648664429899c0e4"),
    ("permanent-crash", "LM"): (60, [20, 20, 20], [3, 3, 3, None, 3], ['value-3'], "9183e28566c92296", "791a80454ebab063"),
    ("permanent-crash", "WLM"): (59, [8, 8, 8, 7, 7, 7, 7, 7], [3, 5, 8, None, 4], ['value-3'], "8992957230f8aebc", "081fad3e60545b73"),
    ("permanent-crash", "AFM"): (76, [20, 20, 20, 16], [4, 3, 3, None, 3], ['value-4'], "20677481da3093ea", "17cc02fed7f93ac4"),
    ("permanent-crash", "PAXOS"): (73, [8, 8, 8, 7, 7, 7, 7, 7, 7, 7], [9, 10, 10, None, 10], ['value-0'], "f546a955f6a30683", "b5376e173b8f53b7"),
    ("burst", "ES"): (260, [20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20], [13, 13, 13, 13, 13], ['value-3'], "6d7433c9f23a298b", "59e59193835c9d53"),
    ("burst", "LM"): (180, [20, 20, 20, 20, 20, 20, 20, 20, 20], [9, 8, 9, 8, 8], ['value-3'], "8f2a8d0a243ab0c9", "eedbb8215079c5cb"),
    ("burst", "WLM"): (104, [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8], [12, 13, 13, 13, 13], ['value-3'], "647979749f043f4b", "d4512a7c5544a0bf"),
    ("burst", "AFM"): (240, [20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20], [11, 12, 10, 11, 12], ['value-4'], "b4d06b1f27d98185", "dc0eddd95f1b26f2"),
    ("burst", "PAXOS"): (88, [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8], [10, 11, 11, 11, 11], ['value-0'], "fbdc5b07d31002a8", "e40daaa516accc91"),
    ("partition", "ES"): (240, [20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20], [11, 11, 11, 12, 12], ['value-3'], "b4d06b1f27d98185", "6a06bef952687c23"),
    ("partition", "LM"): (240, [20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20], [12, 12, 12, 12, 12], ['value-3'], "b4d06b1f27d98185", "0c282f7a39d85c7b"),
    ("partition", "WLM"): (104, [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8], [12, 13, 13, 13, 13], ['value-3'], "647979749f043f4b", "eb3b3b2ed74e39ff"),
    ("partition", "AFM"): (300, [20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20], [15, 15, 15, 15, 15], ['value-4'], "1f34fef652ddbc15", "13c19a8f09859da8"),
    ("partition", "PAXOS"): (96, [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8], [11, 12, 12, 12, 12], ['value-0'], "d9d1bc602eac3c94", "c44d4b5eaa1ba5f7"),
    ("churn", "ES"): (120, [20, 20, 20, 20, 20, 20], [6, 5, 6, 5, 3], ['value-3'], "b9537a67a5ecb61e", "6fc1ace9555f27a4"),
    ("churn", "LM"): (80, [20, 20, 20, 20], [3, 3, 3, 4, 3], ['value-3'], "1586febde610cab8", "7cd3b14ae281e6f6"),
    ("churn", "WLM"): (96, [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8], [3, 8, 10, 12, 9], ['value-3'], "2c0f7abee518f90d", "3e5fc7bf98378812"),
    ("churn", "AFM"): (100, [20, 20, 20, 20, 20], [4, 3, 3, 5, 3], ['value-4'], "7d2f26b71987e664", "1291aaaa916172bf"),
    ("churn", "PAXOS"): (128, [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8], [15, 16, 16, 16, 16], ['value-0'], "5a3b5d5c7461f4d9", "00909323a1ab607b"),
    ("final-sends", "ES"): (110, [20, 20, 20, 18, 16, 16], [6, 5, 6, None, 3], ['value-3'], "4f5be9632a9acb68", "99767b5e28b6b902"),
    ("final-sends", "LM"): (60, [20, 20, 20], [3, 3, 3, None, 3], ['value-3'], "9183e28566c92296", "791a80454ebab063"),
    ("final-sends", "WLM"): (60, [8, 8, 8, 8, 7, 7, 7, 7], [3, 5, 8, None, 4], ['value-3'], "285ded24d395b650", "96d3014f63ccc59e"),
    ("final-sends", "AFM"): (78, [20, 20, 20, 18], [4, 3, 3, None, 3], ['value-4'], "6566ce87d2d36311", "c54a4a78fad8dcec"),
    ("final-sends", "PAXOS"): (74, [8, 8, 8, 8, 7, 7, 7, 7, 7, 7], [9, 10, 10, None, 10], ['value-0'], "b08fda5dfe05645d", "5bb11cbd34191455"),
}


def digest(matrices):
    return hashlib.sha256(np.packbits(np.stack(matrices)).tobytes()).hexdigest()[:16]


def observed(result):
    """A lockstep run as its golden row reads it."""
    return (
        result.messages_sent,
        result.per_round_messages,
        [result.decision_rounds.get(pid) for pid in range(N)],
        sorted(set(result.decisions.values())),
        digest(result.sent_matrices),
        digest(result.delivered_matrices),
    )


@pytest.mark.parametrize("world, name", sorted(GOLDEN))
def test_golden_faulted_run(world, name):
    plan = WORLDS[world]
    schedule = StableAfterSchedule(
        IIDSchedule(N, p=0.5, seed=3),
        gsr=GSR,
        model=LIVENESS[name][0],
        leader=0,
        seed=4,
        correct=sorted(plan.correct()),
    )
    oracle = NullOracle() if name in ("ES", "AFM") else FixedLeaderOracle(0)
    result = LockstepRunner(
        N,
        lambda pid: ALGORITHMS[name](pid, N, f"value-{pid}"),
        oracle,
        schedule,
        fault_plan=plan,
    ).run(max_rounds=40)
    assert observed(result) == GOLDEN[world, name]


#: The leader, process 0, is slow in rounds 2-9: its links take four
#: times their 20-40 ms latency, so many of its messages miss the 100 ms
#: timeout.
SLOW_NODE = FaultPlan(N, slow_nodes=(SlowNode(0, 2, 9, factor=4.0),))

#: algorithm -> the replay's (messages sent, per-round messages,
#: per-process decision rounds, decided values, sent-matrix digest,
#: delivered digest)
SLOW_GOLDEN = {
    "AFM": (320, [20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20], [4, 3, 3, 3, 3], ['value-4'], "c4612d488c8b730a", "05db78c2527bc1ff"),
    "ES": (320, [20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20], [3, 3, 4, 3, 3], ['value-4'], "c4612d488c8b730a", "05db78c2527bc1ff"),
    "LM": (320, [20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20], [3, 3, 4, 3, 3], ['value-4'], "c4612d488c8b730a", "05db78c2527bc1ff"),
    "PAXOS": (128, [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8], [8, 10, 10, 9, 10], ['value-0'], "4ee1132a33966e3d", "58a79a9cb477afa4"),
    "WLM": (128, [8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8], [11, 12, 12, 12, 12], ['value-4'], "4ee1132a33966e3d", "58a79a9cb477afa4"),
}


def slow_node_replay(name):
    """``name``'s algorithm on the uniform WAN, on the round grid, under
    :data:`SLOW_NODE` — and that run's log replayed on the lockstep
    runner."""
    table = np.full((N, N), 0.03)
    np.fill_diagonal(table, 0.0)

    def factory(pid):
        return ALGORITHMS[name](pid, N, f"value-{pid}")

    def oracle():
        return NullOracle() if name in ("ES", "AFM") else FixedLeaderOracle(0)

    run = SyncRun(
        N, factory, oracle(),
        lambda sim: Transport(sim, uniform_wan_profile(N, seed=0)),
        timeout=0.1, latency_table=table, max_rounds=16, fault_plan=SLOW_NODE,
    )
    event = run.run()
    assert run.executed_mode == "batch", run.fallback_reason
    return event, lockstep_replay(event, factory, oracle(), SLOW_NODE)


@pytest.mark.parametrize("name", sorted(SLOW_GOLDEN))
def test_golden_slow_node_replay(name):
    event, replay = slow_node_replay(name)
    assert replay.decisions == event.decisions
    assert replay.decision_rounds == event.decision_rounds
    # The slow leader's messages miss the timeout in its rounds, late on
    # the wire and absent from the log the replay reads.
    slow = np.array(event.matrices[1:9])
    assert not slow[:, 1:, 0].all() and not slow[:, 0, 1:].all()
    assert observed(replay) == SLOW_GOLDEN[name]
