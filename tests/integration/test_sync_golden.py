"""Golden round-sync runs: everything a ``SyncRun`` reports, pinned.

Seven 60-round runs built like the benchmark ledger's classes — five
that ride the batched path (clean, instrumented with a
:class:`HeartbeatOmega`, the canonical fault plan, and
:class:`WlmConsensus` under a fixed leader, stepped round by round,
without a plan and under the canonical one) and two that fall back to
the scalar event loop (crash recovery, heterogeneous clocks with
staggered starts).  Each
digest is a sha256 over the result surface (matrices, ``sync_error``,
``round_durations``, jumps, late messages, decisions and their rounds),
the transport totals and the run's counter / histogram snapshot.  The
digests were re-taken once, when the link streams became lanes through
256-round columns of the whole link table (``TRACE_SAMPLER_VERSION =
"batch2"``): every run draws new latencies.  A batch-eligible class must
produce its digest on both engines; any change to either engine, the
collector, the detector feed or the bulk accountants that moves a bit
moves these.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import WlmConsensus
from repro.faults.plan import Crash, FaultPlan, LossBurst, Partition, SlowNode
from repro.giraf.oracle import FixedLeaderOracle
from repro.net import measure_latency_table, planetlab_profile, select_leader
from repro.obs.registry import MetricsRegistry
from repro.sim import Clock, Transport
from repro.sim.rng import derive_seed
from repro.sync import SyncRun, probe_run

NODES = 8
TIMEOUT = 0.21
ROUNDS = 60
SEED = 11

CANONICAL_PLAN = FaultPlan(
    n=NODES,
    crashes=(Crash(pid=5, at_round=41),),
    loss_bursts=(LossBurst(4, 7, drop_prob=0.7),),
    partitions=(
        Partition(groups=((0, 3, 5, 6), (1, 2, 4, 7)), start_round=17,
                  heal_round=20),
    ),
    slow_nodes=(
        SlowNode(pid=2, start_round=29, end_round=32, factor=3.0,
                 drop_prob=0.4),
    ),
    seed=derive_seed(SEED, "golden:fault-plan"),
)
RECOVERY_PLAN = FaultPlan(
    n=NODES,
    crashes=(Crash(pid=3, at_round=9, recover_round=19),),
    seed=derive_seed(SEED, "golden:recovery-plan"),
)


def build(kind: str) -> SyncRun:
    table = measure_latency_table(
        planetlab_profile(seed=derive_seed(SEED, "golden:ping"),
                          slow_run_prob=0.0),
        pings=15,
    )
    profile = planetlab_profile(
        seed=derive_seed(SEED, f"golden:{kind}"), slow_run_prob=0.0
    )
    metrics = None if kind == "clean" else MetricsRegistry()
    if kind.startswith("consensus"):
        return SyncRun(
            NODES,
            lambda pid: WlmConsensus(pid, NODES, proposal=f"value-{pid}"),
            FixedLeaderOracle(select_leader(table)),
            lambda sim: Transport(sim, profile, metrics=metrics),
            timeout=TIMEOUT,
            latency_table=table,
            max_rounds=ROUNDS,
            fault_plan=CANONICAL_PLAN if kind == "consensus-faulted" else None,
            metrics=metrics,
        )
    extras = {
        "faulted": {"plan": CANONICAL_PLAN},
        "recovery": {"plan": RECOVERY_PLAN},
        "hetero": {
            "clocks": [
                Clock(offset=0.2 * i, drift=2e-5 * (i - 4)) for i in range(NODES)
            ],
            "start_times": [0.13 * i for i in range(NODES)],
        },
    }.get(kind, {})
    return probe_run(
        profile, table, TIMEOUT, ROUNDS, metrics=metrics,
        omega=kind in ("instrumented", "faulted"), **extras,
    )


def digest(run: SyncRun, result) -> str:
    snapshot = run.metrics.snapshot()
    # Which engine ran is bookkeeping, not an observation of the run.
    counters = {
        key: value
        for key, value in snapshot["counters"].items()
        if not key.startswith(("sync.executed_mode", "sync.batch_fallback"))
    }
    blob = hashlib.sha256()
    for part in (
        np.asarray(result.matrices, dtype=bool).tobytes(),
        np.asarray(result.sync_error, dtype=float).tobytes(),
        np.asarray(result.round_durations, dtype=float).tobytes(),
        repr((result.jumps, result.late_messages)).encode(),
        repr(sorted(result.decisions.items())).encode(),
        repr(sorted(result.decision_rounds.items())).encode(),
        repr((run.transport.messages_sent, run.transport.messages_lost)).encode(),
        json.dumps([counters, snapshot["histograms"]], sort_keys=True).encode(),
    ):
        blob.update(hashlib.sha256(part).digest())
    return blob.hexdigest()


#: class -> (the engine ``auto`` picks, rounds collected, digest)
GOLDEN = {
    "clean": (
        "batch", 60,
        "accb006000596a842ec0c9a114ff7225532e5691a37f7570f078dec2f312a9d9",
    ),
    "instrumented": (
        "batch", 60,
        "ab362b7f51dd9087a9d9694ac989adb4656875e15279cb9d9a1490548be1a2b7",
    ),
    "faulted": (
        "batch", 60,
        "93176325878aaca87cbcfbccdd5207c67e43c185fcea188b7f1d9ab90161bc11",
    ),
    "recovery": (
        "scalar", 60,
        "a5318bfae241e668f7f1921e69a4458ad7edbef65fccc2149df4b6c97b893ee6",
    ),
    "hetero": (
        "scalar", 60,
        "bb3a5c2e428d64626e6fca1f987df741ebdd6121cacaa3e381d052b0fd978a69",
    ),
    "consensus": (
        "batch", 60,
        "969eb0f9bde8b8a4559106774d5277906433ffbbc83cb76dda07008561a5174b",
    ),
    "consensus-faulted": (
        "batch", 60,
        "b9aef73eacca24f565c4e1f440fa454079610c0b8bd4a7c300506e90f8be5dd0",
    ),
}

CASES = [(kind, "auto") for kind in GOLDEN] + [
    (kind, "scalar") for kind, (engine, _, _) in GOLDEN.items()
    if engine == "batch"
]


@pytest.mark.parametrize("kind,mode", CASES, ids=lambda value: value)
def test_golden_run(kind, mode):
    engine, rounds, expected = GOLDEN[kind]
    run = build(kind)
    result = run.run(mode=mode)
    assert run.executed_mode == (engine if mode == "auto" else "scalar")
    assert len(result.matrices) == rounds
    assert digest(run, result) == expected
