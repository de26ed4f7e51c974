"""The array collector against a brute-force reference.

``SyncRun._collect`` condenses the run's :class:`~repro.sync.RoundLog`
into matrices, ``sync_error`` and ``round_durations`` with whole-array
operations.  The reference below is the collector it replaced — one
Python step per (round, node), sets and dicts — kept here as the
statement of what those arrays must mean, on runs chosen to leave the
common round grid: drifting clocks, staggered boots, latencies around
the timeout (late messages, hence jumps over rounds) and a node that
crashes and rejoins.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import Crash, FaultPlan
from repro.giraf.oracle import NullOracle
from repro.obs.registry import MetricsRegistry
from repro.sim import Clock, Transport
from repro.sync import HeartbeatAlgorithm, SyncRun

N = 4
TIMEOUT = 0.2


class NoisyLatency:
    """Latencies uniform in ``[0, spread]``: with ``spread`` past the
    timeout, messages outlive their round and pull slower nodes forward."""

    def __init__(self, spread, seed):
        self.spread = spread
        self.rng = np.random.default_rng(seed)

    def sample_latency(self, src, dst, now):
        return self.spread * self.rng.random()


def reference_collect(run):
    """(matrices, sync_error, round_durations), the per-round way."""
    log = run.log
    rounds = range(1, log.rounds + 1)
    started = [
        {k: log.starts[k, pid] for k in rounds if not np.isnan(log.starts[k, pid])}
        for pid in range(run.n)
    ]
    ended = [
        {k: log.ends[k, pid] for k in rounds if not np.isnan(log.ends[k, pid])}
        for pid in range(run.n)
    ]
    receipts = [
        {k: set(np.flatnonzero(log.timely[k, pid]).tolist()) for k in rounds}
        for pid in range(run.n)
    ]
    participants = [
        pid for pid, node in enumerate(run.nodes) if not node.crashed_permanently
    ] or list(range(run.n))
    last_round = min(max(ended[pid], default=0) for pid in participants)
    matrices, sync_error = [], []
    for k in range(1, last_round + 1):
        matrix = np.zeros((run.n, run.n), dtype=bool)
        for dst in range(run.n):
            if k in ended[dst]:  # executed (not skipped) round k
                for src in receipts[dst][k]:
                    matrix[dst, src] = True
        matrices.append(matrix)
        starts = [started[pid][k] for pid in range(run.n) if k in started[pid]]
        sync_error.append(
            max(starts) - min(starts) if len(starts) == run.n else float("nan")
        )
    durations = []
    for pid in range(run.n):
        spent = [ended[pid][k] - started[pid][k] for k in ended[pid] if k in started[pid]]
        durations.append(float(np.mean(spent)) if spent else 0.0)
    return matrices, sync_error, durations


@given(
    drifts=st.lists(st.floats(-0.2, 0.2), min_size=N, max_size=N),
    stagger=st.lists(st.floats(0.0, 3 * TIMEOUT), min_size=N, max_size=N),
    spread=st.floats(0.05 * TIMEOUT, 2.5 * TIMEOUT),
    crash=st.one_of(
        st.none(),
        st.tuples(st.integers(0, N - 1), st.integers(1, 8), st.integers(1, 6)),
    ),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_array_collector_equals_the_per_round_reference(
    drifts, stagger, spread, crash, seed
):
    plan = None
    if crash is not None:
        pid, at_round, down_for = crash
        plan = FaultPlan(
            n=N, crashes=(Crash(pid, at_round, recover_round=at_round + down_for),)
        )
    metrics = MetricsRegistry()
    run = SyncRun(
        N,
        lambda pid: HeartbeatAlgorithm(pid, N),
        NullOracle(),
        lambda sim: Transport(sim, NoisyLatency(spread, seed)),
        timeout=TIMEOUT,
        latency_table=np.full((N, N), spread / 2),
        clocks=[Clock(drift=drift) for drift in drifts],
        start_times=stagger,
        max_rounds=14,
        fault_plan=plan,
        metrics=metrics,
    )
    result = run.run(mode="scalar")

    matrices, sync_error, durations = reference_collect(run)
    assert len(result.matrices) == len(matrices)
    for k, (got, expected) in enumerate(zip(result.matrices, matrices), start=1):
        assert np.array_equal(got, expected), k
    # Bit-for-bit, nan placement included: a skipped round stays nan at
    # its own index and an all-False row in its own matrix.
    assert np.array_equal(result.sync_error, sync_error, equal_nan=True)
    assert result.round_durations == durations
    finite = [spread for spread in sync_error if spread == spread]
    summary = metrics.snapshot()["histograms"].get("sync.round_sync_error")
    if finite:
        assert (summary["count"], summary["total"]) == (len(finite), sum(finite))
    else:
        assert summary is None
