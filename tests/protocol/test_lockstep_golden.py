"""Golden lockstep runs: the message counts the benchmark ledger pins.

One fixed world per algorithm — the ledger's
``consensus.msgs_per_decision.*`` exact rows — recorded before the
commit/decide rule of ES, ◊LM and ◊WLM was folded into one machine
(:class:`repro.consensus.base.LeaderConsensus`).  Any change to that
machine, to a schedule's repair step or to the runner's accounting that
moves a message moves these numbers.
"""

import pytest

from repro.giraf import (
    FixedLeaderOracle,
    IIDSchedule,
    LockstepRunner,
    NullOracle,
    StableAfterSchedule,
)
from tests.conftest import ALGORITHMS, LIVENESS

N = 8

#: algorithm -> (messages sent, rounds executed, per-process decision rounds)
GOLDEN = {
    "ES": (392, 7, [7] * 8),
    "LM": (336, 6, [6] * 8),
    "WLM": (98, 7, [6] + [7] * 7),
    "AFM": (448, 8, [8] * 8),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run(name):
    messages, rounds, decision_rounds = GOLDEN[name]
    schedule = StableAfterSchedule(
        IIDSchedule(N, p=0.4, seed=7), gsr=5, model=LIVENESS[name][0], leader=0
    )
    oracle = NullOracle() if name in ("ES", "AFM") else FixedLeaderOracle(0)
    result = LockstepRunner(
        N, lambda pid: ALGORITHMS[name](pid, N, f"value-{pid}"), oracle, schedule
    ).run(max_rounds=30)

    assert (result.messages_sent, result.rounds_executed) == (messages, rounds)
    # Θ(n²) per round for the all-to-all algorithms, 2(n-1) for ◊WLM.
    assert result.per_round_messages == [messages // rounds] * rounds
    assert result.decisions == {pid: "value-7" for pid in range(N)}
    assert [result.decision_rounds[pid] for pid in range(N)] == decision_rounds
