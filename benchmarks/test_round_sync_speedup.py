"""Speedup guards for the batched round-sync hot path.

Times the paper's WAN measurement scenario (8 nodes, 1500 heartbeat
rounds on the static PlanetLab profile) on the scalar event loop versus
the batched structure-of-arrays path (:mod:`repro.sync.batch`), and
asserts the batch path is at least 10x faster *while producing the
bit-identical* :class:`~repro.sync.round_sync.SyncRunResult` — speed
bought by changing the answer would be no speedup at all.

A second guard holds the widened fast path to the same floor: the same
scenario under a round-granular :class:`~repro.faults.plan.FaultPlan`
(permanent crash, loss burst, partition, slow node), with live
``repro.obs`` metrics and the
:class:`~repro.oracles.omega.HeartbeatOmega` detector — the four
configurations that used to force the scalar fallback — bit-identical
results and equal metric totals asserted.  The detector reads the round
log in one array pass; a per-round oracle loop in the batch engine
(7.8x when it had one) fails this guard.

A third guard times consensus, which the batched engine steps one grid
round at a time rather than computing whole: Algorithm 2
(:class:`~repro.core.wlm.WlmConsensus`) under a fixed leader, 1500
rounds on the same network, at least 1.3x the scalar loop with the
identity contract held.

Measured ratios go to ``benchmarks/results/round_sync_speedup.txt``,
``benchmarks/results/round_sync_faulted_speedup.txt`` and
``benchmarks/results/round_sync_consensus_speedup.txt``.
"""

import time

import numpy as np

from repro.core import WlmConsensus
from repro.faults.plan import Crash, FaultPlan, LossBurst, Partition, SlowNode
from repro.giraf.oracle import FixedLeaderOracle
from repro.net import measure_latency_table, planetlab_profile, select_leader
from repro.obs.registry import MetricsRegistry
from repro.sim import Transport
from repro.sync import SyncRun, probe_run
from repro.sync.batch import run_divergences

NODES = 8
ROUNDS = 1500
TIMEOUT = 0.21
MIN_SPEEDUP = 10.0
#: The stepped path still runs every end-of-round of the algorithm.
MIN_STEPPED_SPEEDUP = 1.3


def best_of(fn, reps, builder=None):
    """Minimum wall time of ``run.run(...)`` over ``reps`` fresh runs.

    A run cannot be replayed (a started run is ineligible for the batch
    path), so each rep builds its own; only the ``run()`` call — the
    code the batch path replaces — is inside the timed region.
    """
    builder = builder or build_run
    best = float("inf")
    run = result = None
    for _ in range(reps):
        run = builder()
        start = time.perf_counter()
        result = fn(run)
        best = min(best, time.perf_counter() - start)
    return best, run, result


def build_run(**extras):
    profile = planetlab_profile(seed=7, slow_run_prob=0.0)
    table = measure_latency_table(
        planetlab_profile(seed=8, slow_run_prob=0.0), pings=15
    )
    return probe_run(profile, table, TIMEOUT, ROUNDS, **extras)


def faulted_plan():
    """Round-granular faults spanning the run: every vectorized fault
    pass (crash epochs, burst replay, partition masks, slow factors)
    stays exercised inside the timed region."""
    return FaultPlan(
        n=NODES,
        crashes=(Crash(pid=2, at_round=ROUNDS // 2),),
        loss_bursts=(
            LossBurst(
                start_round=ROUNDS // 5,
                end_round=ROUNDS // 5 + 60,
                drop_prob=0.7,
            ),
        ),
        partitions=(
            Partition(
                groups=(tuple(range(4)), tuple(range(4, NODES))),
                start_round=2 * ROUNDS // 5,
                heal_round=2 * ROUNDS // 5 + 40,
            ),
        ),
        slow_nodes=(
            SlowNode(
                pid=NODES - 1,
                start_round=3 * ROUNDS // 5,
                end_round=3 * ROUNDS // 5 + 80,
                factor=3.0,
                drop_prob=0.4,
            ),
        ),
        seed=21,
    )


def build_consensus_run():
    profile = planetlab_profile(seed=7, slow_run_prob=0.0)
    table = measure_latency_table(
        planetlab_profile(seed=8, slow_run_prob=0.0), pings=15
    )
    return SyncRun(
        NODES,
        lambda pid: WlmConsensus(pid, NODES, proposal=f"value-{pid}"),
        FixedLeaderOracle(select_leader(table)),
        lambda sim: Transport(sim, profile),
        timeout=TIMEOUT,
        latency_table=table,
        max_rounds=ROUNDS,
    )


def build_faulted_run():
    return build_run(plan=faulted_plan(), metrics=MetricsRegistry(), omega=True)


def test_batched_round_sync_speedup(save_result):
    scalar_s, scalar_run, scalar_result = best_of(
        lambda run: run.run(mode="scalar"), reps=3
    )
    batch_s, batch_run, batch_result = best_of(lambda run: run.run(), reps=10)
    assert batch_run.executed_mode == "batch", batch_run.fallback_reason
    speedup = scalar_s / batch_s

    # The fast path must not buy speed with a different answer.
    assert (
        run_divergences(scalar_run, scalar_result, batch_run, batch_result)
        == []
    )
    assert np.isfinite(batch_result.sync_error).any()

    lines = [
        f"Round sync: scalar event loop vs batched hot path "
        f"({NODES} nodes x {ROUNDS} rounds, static PlanetLab WAN, "
        f"timeout {TIMEOUT:g}s)",
        "",
        f"{'path':<8} {'wall':>12}",
        f"{'scalar':<8} {scalar_s * 1e3:>10.1f}ms",
        f"{'batch':<8} {batch_s * 1e3:>10.2f}ms",
        "",
        f"speedup: {speedup:.1f}x  (floor: {MIN_SPEEDUP:.0f}x, "
        "bit-identical results asserted)",
    ]
    save_result("round_sync_speedup", "\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"batched round-sync speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x floor (scalar {scalar_s:.3f}s, "
        f"batch {batch_s:.3f}s)"
    )


def test_batched_faulted_instrumented_speedup(save_result):
    scalar_s, scalar_run, scalar_result = best_of(
        lambda run: run.run(mode="scalar"), reps=3, builder=build_faulted_run
    )
    batch_s, batch_run, batch_result = best_of(
        lambda run: run.run(), reps=10, builder=build_faulted_run
    )
    assert batch_run.executed_mode == "batch", batch_run.fallback_reason
    speedup = scalar_s / batch_s

    # Identity under faults, live metrics and the Omega detector: the
    # runs' registries are live, so counter totals and histograms are
    # part of the comparison.
    assert (
        run_divergences(scalar_run, scalar_result, batch_run, batch_result)
        == []
    )
    assert scalar_run.metrics.enabled
    assert scalar_run.nodes[2].crashed_permanently
    assert np.isfinite(batch_result.sync_error).any()

    lines = [
        f"Round sync under faults + instrumentation: scalar event loop "
        f"vs batched hot path ({NODES} nodes x {ROUNDS} rounds, static "
        f"PlanetLab WAN, timeout {TIMEOUT:g}s)",
        "",
        "faults: permanent crash, loss burst, partition, slow node;",
        "telemetry: live metrics registry; oracle: HeartbeatOmega",
        "",
        f"{'path':<8} {'wall':>12}",
        f"{'scalar':<8} {scalar_s * 1e3:>10.1f}ms",
        f"{'batch':<8} {batch_s * 1e3:>10.2f}ms",
        "",
        f"speedup: {speedup:.1f}x  (floor: {MIN_SPEEDUP:.0f}x, "
        "bit-identical results and equal metric totals asserted)",
    ]
    save_result("round_sync_faulted_speedup", "\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"faulted+instrumented batched speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x floor (scalar {scalar_s:.3f}s, "
        f"batch {batch_s:.3f}s)"
    )


def test_stepped_consensus_speedup(save_result):
    scalar_s, scalar_run, scalar_result = best_of(
        lambda run: run.run(mode="scalar"), reps=5, builder=build_consensus_run
    )
    batch_s, batch_run, batch_result = best_of(
        lambda run: run.run(), reps=5, builder=build_consensus_run
    )
    assert batch_run.executed_mode == "batch", batch_run.fallback_reason
    speedup = scalar_s / batch_s

    assert (
        run_divergences(scalar_run, scalar_result, batch_run, batch_result)
        == []
    )
    assert len(set(batch_result.decisions.values())) == 1
    assert len(batch_result.decisions) == NODES

    lines = [
        f"Round sync, consensus: scalar event loop vs stepped batched path "
        f"({NODES} nodes x {ROUNDS} rounds, static PlanetLab WAN, "
        f"timeout {TIMEOUT:g}s)",
        "",
        "algorithm: WlmConsensus (Algorithm 2); oracle: FixedLeaderOracle",
        "",
        f"{'path':<8} {'wall':>12}",
        f"{'scalar':<8} {scalar_s * 1e3:>10.1f}ms",
        f"{'batch':<8} {batch_s * 1e3:>10.2f}ms",
        "",
        f"speedup: {speedup:.1f}x  (floor: {MIN_STEPPED_SPEEDUP:.1f}x, "
        "bit-identical results asserted)",
    ]
    save_result("round_sync_consensus_speedup", "\n".join(lines))

    assert speedup >= MIN_STEPPED_SPEEDUP, (
        f"stepped consensus speedup {speedup:.2f}x below the "
        f"{MIN_STEPPED_SPEEDUP:.1f}x floor (scalar {scalar_s:.3f}s, "
        f"batch {batch_s:.3f}s)"
    )
