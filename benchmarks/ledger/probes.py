"""Per-layer probes: fixed kernels timed around one public call each.

Runs in the traced child.  Every probe belongs to the one workload named
as its *home* in :mod:`benchmarks.ledger.spec` — the workload whose
end-to-end numbers it is predicted to move — and runs only in that
workload's traced pass.  A row is ``{"value", "q1", "q3", "n"}`` (a
ratio also carries its ``base`` values) or ``{"value": None,
"reason"}`` when the machine cannot measure it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from benchmarks.ledger.stats import quartiles

#: (seconds one sample should last, samples) by size.
EFFORT = {"full": (0.02, 7), "tiny": (0.002, 3)}


def row(samples: list[float], scale: float = 1.0, base: Optional[dict] = None) -> dict:
    values = [s * scale for s in samples]
    q1, q3 = quartiles(values)
    out = {"value": statistics.median(values), "q1": q1, "q3": q3,
           "n": len(values)}
    if base is not None:
        out["base"] = base
    return out


def exact(value: float, base: Optional[dict] = None) -> dict:
    return row([float(value)], base=base)


def skipped(reason: str) -> dict:
    return {"value": None, "reason": reason}


def per_call(fn: Callable[[], object], size: str) -> list[float]:
    """Seconds per call of ``fn``: calls are batched until one sample
    lasts long enough for the clock, then sampled several times."""
    target, samples = EFFORT[size]
    number = 1
    while True:
        begin = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - begin
        if elapsed >= target or number >= 1 << 20:
            break
        number = max(number * 2, int(number * target / max(elapsed, 1e-9)))
    out = []
    for _ in range(samples):
        begin = time.perf_counter()
        for _ in range(number):
            fn()
        out.append((time.perf_counter() - begin) / number)
    return out


def once(fn: Callable[[], object], repeats: int) -> list[float]:
    """Seconds of ``repeats`` single calls (for calls too slow to batch)."""
    out = []
    for _ in range(repeats):
        begin = time.perf_counter()
        fn()
        out.append(time.perf_counter() - begin)
    return out


def paired(first: Callable[[], object], second: Callable[[], object],
           pairs: int) -> tuple[list[float], list[float]]:
    """Seconds of ``pairs`` single calls of each, alternating which of the
    two runs first, so neither always inherits the other's warm state."""
    seconds: tuple[list[float], list[float]] = ([], [])
    for index in range(pairs):
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            seconds[side].extend(once((first, second)[side], 1))
    return seconds


class _Seeds:
    """Fresh seeds per call, so module-level stream caches stay cold the
    way they are for a sweep cell."""

    def __init__(self, seed: int) -> None:
        self._next = seed * 1_000_003

    def __call__(self) -> int:
        self._next += 1
        return self._next


# ----------------------------------------------------------------------
# home: sweep_cold — latency sampling and cache stores.
# ----------------------------------------------------------------------
def sweep_cold_probes(seed: int, size: str, work: Path) -> dict:
    from repro.experiments import cache as trace_cache
    from repro.experiments.config import PAPER, QUICK
    from repro.experiments.measurement import sample_lan_trace, sample_wan_trace
    from repro.experiments.parallel import run_wan_sweep_parallel
    from repro.net import measure_latency_table, planetlab_profile

    fresh = _Seeds(seed)
    rows = {}
    rows["net.wan_trace_ms"] = row(
        per_call(lambda: sample_wan_trace(300, 0.21, fresh()), size), 1e3)
    rows["net.lan_trace_ms"] = row(
        per_call(lambda: sample_lan_trace(100, 0.0005, fresh()), size), 1e3)
    profile = planetlab_profile(seed=fresh())
    clock = iter(range(1 << 30))
    rows["net.scalar_round_us"] = row(
        per_call(lambda: profile.sample_round_latencies(0.21 * next(clock)),
                 size), 1e6)
    rows["net.ping_table_ms"] = row(
        per_call(lambda: measure_latency_table(
            planetlab_profile(seed=fresh(), slow_run_prob=0.0), pings=15),
            size), 1e3)

    store = trace_cache.TraceCache(work / "probe-cache")
    trace = sample_wan_trace(300, 0.21, fresh())
    rows["cache.store_ms"] = row(
        per_call(lambda: store.store("wan", f"{fresh():032x}", trace), size),
        1e3)

    cores = os.cpu_count() or 1
    if cores < 2:
        rows["parallel.jobs2_speedup"] = skipped(
            f"needs 2 cores, os.cpu_count() is {cores}")
    else:
        trace_cache.deactivate()
        base = PAPER if size == "full" else QUICK

        def sweep(jobs: int) -> float:
            config = dataclasses.replace(base, seed=fresh())
            return once(lambda: run_wan_sweep_parallel(config, jobs=jobs), 1)[0]

        serial, pooled = sweep(1), sweep(2)
        rows["parallel.jobs2_speedup"] = exact(
            serial / pooled,
            base={"jobs1_s": serial, "jobs2_s": pooled,
                  "cells": len(base.timeouts) * base.runs, "cache": "off"})
    return rows


# ----------------------------------------------------------------------
# home: sweep_warm — start-up, cache loads, predicates, decision stats.
# ----------------------------------------------------------------------
def _spawn_seconds(code: str, repeats: int, inner: bool) -> list[float]:
    """Wall of ``python -c code`` (or the seconds the code itself prints)."""
    out = []
    for _ in range(repeats):
        begin = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        wall = time.perf_counter() - begin
        out.append(float(done.stdout.strip()) if inner else wall)
    return out


_TIMED_IMPORT = (
    "import time; t = time.perf_counter(); import {module}; "
    "print(time.perf_counter() - t)"
)


def sweep_warm_probes(seed: int, size: str, work: Path, cache_dir: Path) -> dict:
    from repro.analysis import expected_decision_rounds, find_crossover
    from repro.experiments import cache as trace_cache
    from repro.experiments.config import PAPER, QUICK
    from repro.experiments.decision import decision_stats
    from repro.experiments.figures import figure_1b, run_wan_sweep
    from repro.experiments.measurement import (
        sample_wan_trace,
        satisfaction_vector,
        timely_matrices,
    )
    from repro.experiments.parallel import run_wan_sweep_parallel
    from repro.experiments.report import render_series
    from repro.experiments.selection import choose_timing_model
    from repro.net import planetlab_profile
    from repro.net.planetlab import LEADER_NODE

    spawns = 3 if size == "full" else 2
    rows = {}
    rows["startup.python_s"] = row(_spawn_seconds("pass", spawns, inner=False))
    rows["startup.import_s"] = row(_spawn_seconds(
        _TIMED_IMPORT.format(module="repro.experiments.run_all"), spawns, True))
    rows["startup.import_scipy_s"] = row(_spawn_seconds(
        _TIMED_IMPORT.format(module="scipy.stats"), spawns, True))

    fresh = _Seeds(seed)
    rows["cache.key_us"] = row(per_call(
        lambda: trace_cache.trace_key("wan", 8, 300, 0.21, fresh()), size), 1e6)
    store = trace_cache.TraceCache(work / "probe-cache")
    trace = sample_wan_trace(300, 0.21, fresh())
    store.store("wan", "probe", trace)
    rows["cache.load_ms"] = row(
        per_call(lambda: store.load("wan", "probe"), size), 1e3)

    rows["models.timely_matrices_us"] = row(
        per_call(lambda: timely_matrices(trace, 0.21), size), 1e6)
    matrices = timely_matrices(trace, 0.21)
    for model in ("ES", "AFM", "LM", "WLM", "GS"):
        leader = LEADER_NODE if model in ("LM", "WLM") else None
        rows[f"models.satisfaction_us.{model}"] = row(per_call(
            lambda: satisfaction_vector(matrices, model, leader), size), 1e6)

    def stats(mats, model, timeout):
        return decision_stats(
            mats, model, round_length=timeout, start_points=15,
            leader=LEADER_NODE if model == "WLM" else None,
            rng=np.random.default_rng(seed),
        )

    rows["decision.stats_us"] = row(
        per_call(lambda: stats(matrices, "WLM", 0.21), size), 1e6)
    short = timely_matrices(trace, 0.14)
    rows["decision.stats_censored_us"] = row(
        per_call(lambda: stats(short, "ES", 0.14), size), 1e6)

    series = figure_1b()
    rows["report.render_series_ms"] = row(
        per_call(lambda: render_series(series), size), 1e3)
    rows["selection.choose_ms"] = row(once(
        lambda: choose_timing_model(
            planetlab_profile, (0.17, 0.21, 0.26), rounds_per_run=60, runs=2,
            start_points=4, seed=fresh()),
        3), 1e3)

    grid = np.linspace(0.9, 0.999, 200)
    rows["analysis.closed_forms_ms"] = row(per_call(
        lambda: [expected_decision_rounds(grid, 8, m)
                 for m in ("ES", "LM", "WLM", "WLM_SIM", "AFM")], size), 1e3)
    rows["analysis.crossover_ms"] = row(per_call(
        lambda: find_crossover("LM", "AFM", 8, p_low=0.7), size), 1e3)

    # The parallel engine's per-cell cost over the serial loop, on the
    # warm cache this workload was set up with.
    config = PAPER if size == "full" else QUICK
    cells = len(config.timeouts) * config.runs
    trace_cache.activate(cache_dir)
    serial, engine = paired(
        lambda: run_wan_sweep(config),
        lambda: run_wan_sweep_parallel(config, jobs=1), pairs=4)
    trace_cache.deactivate()
    overhead = [(e - s) / cells for s, e in zip(serial, engine)]
    rows["parallel.engine_overhead_us_per_cell"] = row(
        overhead, 1e6,
        base={"serial_s": statistics.median(serial),
              "engine_jobs1_s": statistics.median(engine), "cells": cells})
    return rows


# ----------------------------------------------------------------------
# home: phases_full — lockstep consensus, faults, adaptive, SMR.
# ----------------------------------------------------------------------
def _lockstep_setups():
    from repro.consensus import (
        AfmConsensus,
        EsConsensus,
        LmConsensus,
        PaxosConsensus,
    )
    from repro.core import LmOverWlmSimulation, WlmConsensus

    def simulated(pid, n, proposal):
        return LmOverWlmSimulation(pid, n, LmConsensus(pid, n, proposal))

    # algorithm -> (factory, model the schedule stabilizes to, needs leader)
    return {
        "ES": (EsConsensus, "ES", False),
        "LM": (LmConsensus, "LM", True),
        "WLM": (WlmConsensus, "WLM", True),
        "AFM": (AfmConsensus, "AFM", False),
        "PAXOS": (PaxosConsensus, "WLM", True),
        "WLM_SIM": (simulated, "WLM", True),
    }


def phases_full_probes(seed: int, size: str) -> dict:
    from repro.adaptive import AdaptivePolicy, TimelinessExtractor
    from repro.analysis.montecarlo import estimate_p_model
    from repro.experiments.measurement import sample_wan_trace, timely_matrices
    from repro.experiments.robustness import canonical_plans
    from repro.faults.adversary import StabilityWindowAdversary
    from repro.giraf import (
        FixedLeaderOracle,
        IIDSchedule,
        LockstepRunner,
        NullOracle,
        StableAfterSchedule,
    )
    from repro.smr import Command, KVStore, ReplicaGroup

    n = 8
    rows = {}

    def lockstep(factory, model, needs_leader):
        # A fixed schedule, like the fixed-input workload this probe
        # belongs to: the message counts below are exact rows.
        schedule = StableAfterSchedule(
            IIDSchedule(n, p=0.4, seed=7), gsr=5, model=model, leader=0)
        runner = LockstepRunner(
            n, lambda pid: factory(pid, n, f"value-{pid}"),
            FixedLeaderOracle(0) if needs_leader else NullOracle(), schedule)
        return runner.run(max_rounds=30)

    for name, setup in _lockstep_setups().items():
        result = lockstep(*setup)
        rows[f"giraf.lockstep_run_ms.{name}"] = row(
            per_call(lambda: lockstep(*setup), size), 1e3)
        rows[f"consensus.msgs_per_decision.{name}"] = exact(
            result.messages_sent,
            base={"rounds": result.rounds_executed,
                  "decided": result.all_correct_decided})

    trace = sample_wan_trace(300, 0.21, seed)
    matrices = timely_matrices(trace, 0.21)
    plan = canonical_plans(n, 300, seed)["partition"]
    rows["faults.apply_to_matrices_ms"] = row(
        per_call(lambda: plan.apply_to_matrices(matrices), size), 1e3)
    rows["faults.adversary_compile_ms"] = row(per_call(
        lambda: StabilityWindowAdversary(n=n, gsr_round=26).to_plan(), size),
        1e3)

    timeouts = (0.16, 0.21, 0.30)
    extractor = TimelinessExtractor(n, timeouts)
    rounds = iter(range(1 << 30))

    def observe():
        k = next(rounds)
        extractor.observe_latencies(k, trace[k % len(trace)])

    rows["adaptive.extractor_observe_us"] = row(per_call(observe, size), 1e6)
    policy = AdaptivePolicy(extractor, model="WLM", timeout=0.21)
    slots = iter(range(1 << 30))
    rows["adaptive.policy_decide_us"] = row(
        per_call(lambda: policy.begin_slot(next(slots)), size), 1e6)

    def slot():
        group = ReplicaGroup(
            n, _lockstep_setups()["WLM"][0], FixedLeaderOracle(0),
            lambda s: StableAfterSchedule(
                IIDSchedule(n, p=1.0, seed=s), gsr=1, model="WLM", leader=0),
            KVStore)
        group.submit(0, Command(1, 0, ("set", "k", "v")))
        return group.run_slot()

    rows["smr.slot_ms"] = row(per_call(slot, size), 1e3)
    rows["analysis.montecarlo_ms"] = row(once(
        lambda: estimate_p_model("WLM", 0.9, n, samples=2000, seed=seed), 3),
        1e3)
    return rows


# ----------------------------------------------------------------------
# home: sync_batch — oracle and telemetry primitives the batch path calls.
# ----------------------------------------------------------------------
def sync_batch_probes(seed: int, size: str) -> dict:
    from repro.obs.registry import MetricsRegistry
    from repro.oracles.omega import HeartbeatOmega

    rng = np.random.default_rng(seed)
    rows = {}
    omega = HeartbeatOmega(8)
    delivered = rng.random((8, 8)) < 0.9
    rounds = iter(range(1, 1 << 30))
    rows["oracles.omega_observe_rows_us"] = row(per_call(
        lambda: omega.observe_rows(next(rounds), delivered), size), 1e6)
    live = MetricsRegistry().counter("ledger.probe")
    rows["obs.counter_inc_ns"] = row(per_call(live.inc, size), 1e9)
    null = MetricsRegistry(enabled=False).counter("ledger.probe")
    rows["obs.null_counter_inc_ns"] = row(per_call(null.inc, size), 1e9)
    histogram = MetricsRegistry().histogram("ledger.probe")
    values = rng.random(1000)
    rows["obs.histogram_observe_many_us_per_k"] = row(
        per_call(lambda: histogram.observe_many(values), size), 1e6)
    return rows


# ----------------------------------------------------------------------
# home: sync_fallback — the event queue and the transport.
# ----------------------------------------------------------------------
def sync_fallback_probes(seed: int, size: str) -> dict:
    from repro.net import planetlab_profile
    from repro.sim import Transport
    from repro.sim.events import EventQueue, Simulator

    rows = {}
    queue = EventQueue()
    times = np.random.default_rng(seed).random(256).tolist()

    def push_pop():
        for t in times:
            queue.push(t, None)
        while queue.pop() is not None:
            pass

    rows["sim.eventqueue_push_pop_us"] = row(
        [s / len(times) for s in per_call(push_pop, size)], 1e6)

    def sender(batch_streams: bool):
        simulator = Simulator()
        transport = Transport(
            simulator, planetlab_profile(seed=seed, slow_run_prob=0.0),
            batch_streams=batch_streams)
        for node in range(8):
            transport.register(node, lambda src, payload: None)

        def send_round():
            for src in range(8):
                for dst in range(8):
                    transport.send(src, dst, None)
            simulator.drain()

        return send_round

    for name, streams in (("stream", True), ("scalar", False)):
        rows[f"sim.transport_send_{name}_us"] = row(
            [s / 64 for s in per_call(sender(streams), size)], 1e6)
    return rows


# ----------------------------------------------------------------------
# home: served_mixed — dispatch cost, dedup, and the rate ladder.
# ----------------------------------------------------------------------
LADDER_QPS = (25, 50, 100, 200)
LADDER_SECONDS = 2
LADDER_P95_LIMIT_MS = 100.0


def served_mixed_probes(seed: int, size: str, work: Path) -> dict:
    from repro.experiments import cache as trace_cache
    from repro.experiments.config import QUICK
    from repro.experiments.figures import run_wan_sweep
    from repro.obs.registry import MetricsRegistry
    from repro.service import (
        SerialCellExecutor,
        ThreadCellExecutor,
        WanSweepJob,
        run_jobs,
    )

    from benchmarks.ledger import scenarios
    from benchmarks.ledger.stats import percentile
    from benchmarks.ledger.tracer import Tracer
    from benchmarks.ledger.workloads import SERVED_STATE

    rows = {}
    # Dispatch: the same warm sweep through the service on the serial
    # executor minus the direct engine call, per cell.
    config = dataclasses.replace(QUICK, seed=seed)
    cells = len(config.timeouts) * config.runs
    trace_cache.activate(work / "dispatch-cache")
    run_wan_sweep(config)  # populate
    direct, served = paired(
        lambda: run_wan_sweep(config),
        lambda: run_jobs(
            [WanSweepJob(config=config)], executor=SerialCellExecutor()),
        pairs=6 if size == "full" else 2)
    trace_cache.deactivate()
    rows["service.dispatch_overhead_us_per_cell"] = row(
        [(s - d) / cells for d, s in zip(direct, served)], 1e6,
        base={"direct_s": statistics.median(direct),
              "served_s": statistics.median(served), "cells": cells})

    # Dedup: three identical concurrent sweeps are one computation.
    metrics = MetricsRegistry()
    clients = 3
    run_jobs([WanSweepJob(config=config)] * clients,
             executor=ThreadCellExecutor(2), metrics=metrics)
    hits = metrics.value("service.dedup_hits", **{"class": "batch"}) or 0
    rows["service.dedup_hit_ratio"] = exact(
        hits / clients, base={"clients": clients, "dedup_hits": hits})

    # The ladder: the workload's open loop at each fixed rate — one sweep
    # as background load, LADDER_SECONDS of arrivals — stopping at the
    # first rate that fails (higher ones are not tried).
    inputs = scenarios.served_inputs(seed, size)
    reference = json.loads((work / SERVED_STATE).read_text())
    background = inputs.sweeps[inputs.sampled_sweep]
    best, steps = 0, {}
    for qps in LADDER_QPS:
        count = max(10, min(len(inputs.queries), int(qps * LADDER_SECONDS)))
        step = dataclasses.replace(
            inputs, sweeps=[background], sampled_sweep=0,
            queries=inputs.queries[:count],
            sampled_queries=[i for i in inputs.sampled_queries if i < count])
        seen = scenarios.served_section(
            step, reference, Tracer("ladder", enabled=False), rate=float(qps))
        p95 = percentile(seen.latencies_ms, 95) if seen.latencies_ms else 0.0
        ok = seen.failed == 0 and p95 <= LADDER_P95_LIMIT_MS
        steps[str(qps)] = {"p95_ms": p95, "rejected": seen.rejected,
                           "failed": seen.failed, "queries": count}
        if not ok:
            break
        best = qps
    rows["service.max_rate_ok_qps"] = exact(
        best, base={"p95_limit_ms": LADDER_P95_LIMIT_MS, "steps": steps})
    return rows
