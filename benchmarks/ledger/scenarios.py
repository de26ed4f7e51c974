"""Seeded inputs and timed sections of the three non-CLI workloads.

Runs in the child process (imports :mod:`repro`).  Every generated input
— profile seeds, fault-plan seeds and window positions, query order and
cells, batch-sweep seeds — derives from the workload seed through
:func:`repro.sim.rng.derive_seed`, so one seed is one workload.

Each ``*_section`` function is the workload's timed section: it takes a
:class:`~benchmarks.ledger.tracer.Tracer` (disabled in untraced runs),
returns the observations the parent turns into metrics, and counts its
own failed operations (identity-check miss, invariant violation,
rejected or failed query).
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.core import WlmConsensus
from repro.experiments import cache as trace_cache
from repro.experiments.cache import cached_trace
from repro.experiments.config import PAPER, WAN_TIMEOUTS, SweepConfig
from repro.experiments.decision import decision_stats
from repro.experiments.figures import WanSweep, run_wan_sweep
from repro.experiments.measurement import timely_matrices
from repro.faults.plan import (
    ClockStep,
    Crash,
    FaultPlan,
    LossBurst,
    Partition,
    SlowNode,
)
from repro.giraf.oracle import FixedLeaderOracle, NullOracle
from repro.net import measure_latency_table, planetlab_profile, select_leader
from repro.net.planetlab import LEADER_NODE
from repro.obs.registry import MetricsRegistry
from repro.oracles.omega import HeartbeatOmega
from repro.service import (
    AdmissionRejected,
    DecisionQuery,
    Priority,
    SweepService,
    ThreadCellExecutor,
    WanSweepJob,
)
from repro.sim import Clock, Transport
from repro.sim.rng import derive_seed
from repro.sync import HeartbeatAlgorithm, SyncRun
from repro.sync.batch import result_divergences

from benchmarks.ledger.tracer import Tracer

NODES = 8
TIMEOUT = 0.21

#: Rounds and runs per class, by size.  ``tiny`` is the self-test.
SYNC_SIZES = {
    "full": {"rounds": 1500, "runs": 8, "short_runs": 20, "short_rounds": 40},
    "tiny": {"rounds": 60, "runs": 1, "short_runs": 2, "short_rounds": 40},
}
#: Rounds of the set-up's divergence / smoke runs.
SETUP_ROUNDS = 100

SERVED_SIZES = {
    "full": {"sweeps": 4, "queries": 300, "rate": 50.0, "config": PAPER,
             "sampled_queries": 20},
    "tiny": {
        "sweeps": 2, "queries": 20, "rate": 50.0, "sampled_queries": 5,
        "config": SweepConfig(rounds_per_run=60, runs=3, start_points=4,
                              timeouts=WAN_TIMEOUTS),
    },
}
QUERY_MODELS = ("ES", "AFM", "LM", "WLM")


# ----------------------------------------------------------------------
# Round-sync scenarios.
# ----------------------------------------------------------------------
@dataclass
class SyncScenario:
    """One ``SyncRun`` to build and run: its class and a builder."""

    kind: str
    build: Callable[[], SyncRun]


def _ping_table(seed: int) -> np.ndarray:
    return measure_latency_table(
        planetlab_profile(
            seed=derive_seed(seed, "ledger:ping"), slow_run_prob=0.0
        ),
        pings=15,
    )


def _heartbeat_run(
    table: np.ndarray,
    profile_seed: int,
    rounds: int,
    *,
    plan: Optional[FaultPlan] = None,
    instrumented: bool = False,
    clocks=None,
    start_times=None,
) -> SyncRun:
    profile = planetlab_profile(seed=profile_seed, slow_run_prob=0.0)
    metrics = MetricsRegistry() if instrumented else None
    oracle = HeartbeatOmega(NODES, metrics=metrics) if instrumented else NullOracle()
    return SyncRun(
        NODES,
        lambda pid: HeartbeatAlgorithm(pid, NODES),
        oracle,
        lambda sim: Transport(sim, profile, metrics=metrics),
        timeout=TIMEOUT,
        latency_table=table,
        max_rounds=rounds,
        fault_plan=plan,
        metrics=metrics,
        clocks=clocks,
        start_times=start_times,
    )


def _consensus_run(table: np.ndarray, profile_seed: int, rounds: int) -> SyncRun:
    profile = planetlab_profile(seed=profile_seed, slow_run_prob=0.0)
    return SyncRun(
        NODES,
        lambda pid: WlmConsensus(pid, NODES, proposal=f"value-{pid}"),
        FixedLeaderOracle(select_leader(table)),
        lambda sim: Transport(sim, profile),
        timeout=TIMEOUT,
        latency_table=table,
        max_rounds=rounds,
    )


def canonical_fault_plan(seed: int, rounds: int) -> FaultPlan:
    """Permanent crash, loss burst, partition and slow node — the classes
    the batched path executes — with seeded victims and window positions,
    one window per fifth of the run so they never overlap."""
    rng = np.random.default_rng(derive_seed(seed, "ledger:fault-windows"))
    fifth = max(4, rounds // 5)
    span = max(2, fifth // 4)

    def start(slot: int) -> int:
        return slot * fifth + 1 + int(rng.integers(0, fifth - span))

    burst, split, slow, crash = start(0), start(1), start(2), start(3)
    half = tuple(int(p) for p in rng.permutation(NODES))
    return FaultPlan(
        n=NODES,
        crashes=(Crash(pid=int(rng.integers(0, NODES)), at_round=crash),),
        loss_bursts=(LossBurst(burst, burst + span, drop_prob=0.7),),
        partitions=(
            Partition(
                groups=(half[: NODES // 2], half[NODES // 2:]),
                start_round=split,
                heal_round=split + span,
            ),
        ),
        slow_nodes=(
            SlowNode(
                pid=int(rng.integers(0, NODES)),
                start_round=slow,
                end_round=slow + span,
                factor=3.0,
                drop_prob=0.4,
            ),
        ),
        seed=derive_seed(seed, "ledger:fault-plan"),
    )


def sync_batch_scenarios(seed: int, rounds: int, runs: int) -> list[SyncScenario]:
    """Classes that ride the batched path today, ``runs`` seeded runs each."""
    table = _ping_table(seed)
    plan = canonical_fault_plan(seed, rounds)
    scenarios = []
    for index in range(runs):
        def profile_seed(kind: str, index: int = index) -> int:
            return derive_seed(seed, f"ledger:sync_batch:{kind}:{index}")

        scenarios += [
            SyncScenario("batch_clean", lambda s=profile_seed("clean"):
                         _heartbeat_run(table, s, rounds)),
            SyncScenario("batch_instrumented",
                         lambda s=profile_seed("instrumented"):
                         _heartbeat_run(table, s, rounds, instrumented=True)),
            SyncScenario("batch_faulted",
                         lambda s=profile_seed("faulted"):
                         _heartbeat_run(table, s, rounds, plan=plan,
                                        instrumented=True)),
        ]
    return scenarios


def sync_fallback_scenarios(
    seed: int, rounds: int, short_runs: int, short_rounds: int
) -> list[SyncScenario]:
    """Classes that execute on the scalar event loop today."""
    table = _ping_table(seed)
    rng = np.random.default_rng(derive_seed(seed, "ledger:fallback-windows"))
    third = max(4, rounds // 3)
    down = 1 + int(rng.integers(1, third))
    recovery = FaultPlan(
        n=NODES,
        crashes=(Crash(pid=int(rng.integers(0, NODES)), at_round=down,
                       recover_round=down + third // 2),),
        seed=derive_seed(seed, "ledger:recovery-plan"),
    )
    steps = FaultPlan(
        n=NODES,
        clock_steps=(
            ClockStep(pid=int(rng.integers(0, NODES)),
                      at_round=1 + int(rng.integers(1, third)), offset=0.05),
            ClockStep(pid=int(rng.integers(0, NODES)),
                      at_round=third + int(rng.integers(1, third)),
                      offset=-0.03),
        ),
        seed=derive_seed(seed, "ledger:clockstep-plan"),
    )
    clocks = [Clock(offset=0.2 * i, drift=2e-5 * (i - 4)) for i in range(NODES)]
    starts = [0.13 * i for i in range(NODES)]

    def profile_seed(kind: str) -> int:
        return derive_seed(seed, f"ledger:sync_fallback:{kind}")

    scenarios = [
        SyncScenario("scalar_recovery", lambda: _heartbeat_run(
            table, profile_seed("recovery"), rounds, plan=recovery)),
        SyncScenario("scalar_clockstep", lambda: _heartbeat_run(
            table, profile_seed("clockstep"), rounds, plan=steps)),
        SyncScenario("scalar_hetero", lambda: _heartbeat_run(
            table, profile_seed("hetero"), rounds, clocks=clocks,
            start_times=starts)),
        SyncScenario("scalar_consensus", lambda: _consensus_run(
            table, profile_seed("consensus"), rounds)),
    ]
    for index in range(short_runs):
        scenarios.append(SyncScenario(
            "consensus_to_decision",
            lambda s=profile_seed(f"decision:{index}"):
            _consensus_run(table, s, short_rounds)))
    return scenarios


def sync_result_digest(run: SyncRun, result) -> str:
    """What must not move when only the simulator gets faster."""
    blob = hashlib.sha256()
    blob.update(np.asarray(result.matrices, dtype=bool).tobytes())
    blob.update(np.asarray(result.sync_error, dtype=float).tobytes())
    blob.update(repr(sorted(result.decisions.items())).encode())
    blob.update(repr(sorted(result.decision_rounds.items())).encode())
    blob.update(
        f"{run.transport.messages_sent}:{run.transport.messages_lost}".encode()
    )
    return blob.hexdigest()


@dataclass
class SyncObservations:
    node_rounds: int = 0
    #: Milliseconds inside ``run()``, one entry per run.
    op_ms: list[float] = field(default_factory=list)
    #: Running hash over every run's result digest, in order.
    digest: Any = field(default_factory=hashlib.sha256)
    modes: list[str] = field(default_factory=list)
    #: Events, rounds and run() seconds of the runs the scalar loop executed.
    events: int = 0
    event_rounds: int = 0
    event_seconds: float = 0.0
    failed: int = 0
    #: kind -> list of (seconds inside run(), rounds)
    by_kind: dict[str, list[tuple[float, int]]] = field(default_factory=dict)


def sync_section(
    scenarios: list[SyncScenario], tracer: Tracer, expect_batch: bool
) -> SyncObservations:
    """Build and run every scenario; only ``run()`` counts as work time."""
    seen = SyncObservations()
    for scenario in scenarios:
        with tracer.span("sync.build", "sync"):
            run = scenario.build()
        with tracer.span(f"sync.run.{scenario.kind}", "sync"):
            begin = time.perf_counter()
            result = run.run()
            elapsed = time.perf_counter() - begin
        seen.op_ms.append(elapsed * 1e3)
        rounds = len(result.matrices)
        seen.node_rounds += NODES * rounds
        seen.by_kind.setdefault(scenario.kind, []).append((elapsed, rounds))
        seen.modes.append(run.executed_mode)
        if run.executed_mode == "scalar":
            seen.events += run.simulator.events_processed
            seen.event_rounds += rounds
            seen.event_seconds += elapsed
        seen.digest.update(sync_result_digest(run, result).encode())
        seen.failed += _sync_run_failed(scenario, run, result, expect_batch)
    return seen


def _sync_run_failed(scenario, run, result, expect_batch: bool) -> int:
    if len(result.matrices) == 0:
        return 1
    if expect_batch and run.executed_mode != "batch":
        return 1  # the workload would no longer measure the batched path
    if scenario.kind in ("scalar_consensus", "consensus_to_decision"):
        decided = set(result.decisions.values())
        if len(result.decisions) != NODES or len(decided) != 1:
            return 1  # termination or agreement violated
    return 0


def sync_batch_setup(seed: int) -> tuple[int, int]:
    """Scenario generation plus, for each batched class, one short run
    checked ``result_divergences(scalar, batch) == []``."""
    attempted = failed = 0
    scenarios = sync_batch_scenarios(seed, SETUP_ROUNDS, runs=1)
    for scenario in scenarios:
        auto_run, scalar_run = scenario.build(), scenario.build()
        auto = auto_run.run()
        scalar = scalar_run.run(mode="scalar")
        attempted += 1
        if auto_run.executed_mode != "batch" or result_divergences(scalar, auto):
            failed += 1
    return attempted, failed


def sync_fallback_setup(seed: int) -> tuple[int, int]:
    """Scenario generation plus one short smoke run per class."""
    seen = sync_section(
        sync_fallback_scenarios(seed, SETUP_ROUNDS, short_runs=1,
                                short_rounds=40),
        Tracer("setup", enabled=False),
        expect_batch=False,
    )
    return len(seen.modes), seen.failed


# ----------------------------------------------------------------------
# The served mixed workload.
# ----------------------------------------------------------------------
@dataclass
class ServedInputs:
    sweeps: list[SweepConfig]
    queries: list[DecisionQuery]
    rate: float
    #: Index of the sweep whose artifact is checked against the engine.
    sampled_sweep: int
    #: Indices of the queries checked against the engine.
    sampled_queries: list[int]


def served_inputs(seed: int, size: str) -> ServedInputs:
    params = SERVED_SIZES[size]
    base: SweepConfig = params["config"]
    rng = np.random.default_rng(derive_seed(seed, "ledger:served"))
    sweeps = [
        dataclasses.replace(base, seed=derive_seed(seed, f"ledger:sweep:{i}"))
        for i in range(params["sweeps"])
    ]
    query_config = dataclasses.replace(
        base, seed=derive_seed(seed, "ledger:queries")
    )
    cells = [
        (t, r)
        for t in range(len(base.timeouts))
        for r in range(base.runs)
    ]
    if params["queries"] > len(cells):
        raise ValueError("more queries than distinct cells")
    # Distinct cells in seeded order, models cycling: no two queries
    # share a key, so in-flight dedup never answers one for free.
    order = rng.permutation(len(cells))[: params["queries"]]
    queries = [
        DecisionQuery(
            config=query_config,
            t_index=cells[cell][0],
            r_index=cells[cell][1],
            model=QUERY_MODELS[i % len(QUERY_MODELS)],
        )
        for i, cell in enumerate(order)
    ]
    sampled = sorted(
        int(i) for i in rng.choice(
            len(queries), size=params["sampled_queries"], replace=False
        )
    )
    return ServedInputs(
        sweeps=sweeps,
        queries=queries,
        rate=params["rate"],
        sampled_sweep=int(rng.integers(0, len(sweeps))),
        sampled_queries=sampled,
    )


def sweep_digest(sweep: WanSweep) -> str:
    blob = hashlib.sha256()
    for timeout in sweep.runs:
        for run in sweep.runs[timeout]:
            blob.update(repr((timeout, run.p)).encode())
            blob.update(run.matrices.tobytes())
    return blob.hexdigest()


def stats_digest(stats: Any) -> str:
    return hashlib.sha256(repr(stats).encode()).hexdigest()


def direct_decision(query: DecisionQuery):
    """The figure pipeline's own call sequence for one decision cell."""
    config = query.config
    timeout = config.timeouts[query.t_index]
    trace = cached_trace(
        "wan", config.n, config.rounds_per_run, timeout,
        config.run_seed(query.t_index, query.r_index),
    )
    rng = np.random.default_rng(
        config.run_seed(query.t_index, query.r_index, purpose="decision")
    )
    return decision_stats(
        timely_matrices(trace, timeout),
        query.model,
        round_length=timeout,
        start_points=config.start_points,
        leader=LEADER_NODE if query.model in ("LM", "WLM") else None,
        rng=rng,
    )


def served_reference(inputs: ServedInputs) -> dict:
    """Direct-engine digests the served artifacts must equal."""
    trace_cache.deactivate()
    return {
        "sweep": sweep_digest(run_wan_sweep(inputs.sweeps[inputs.sampled_sweep])),
        "queries": {
            str(i): stats_digest(direct_decision(inputs.queries[i]))
            for i in inputs.sampled_queries
        },
    }


@dataclass
class ServedObservations:
    wall_s: float
    batch_done_s: float
    batch_cells: int
    latencies_ms: list[float]
    late_ms: list[float]
    attempted: int
    failed: int
    rejected: int
    digest: str
    queue_wait_ms_p50: float


def served_section(
    inputs: ServedInputs,
    reference: dict,
    tracer: Tracer,
    *,
    rate: Optional[float] = None,
    max_depth: Optional[dict] = None,
) -> ServedObservations:
    """Open loop: every sweep at t=0, then one query per ``1/rate``
    seconds, each timed from when it was *due*.  No trace cache."""
    trace_cache.deactivate()
    return asyncio.run(
        _served(inputs, reference, tracer, rate or inputs.rate, max_depth)
    )


async def _served(inputs, reference, tracer, rate, max_depth):
    metrics = MetricsRegistry()
    latencies: list[float] = []
    late: list[float] = []
    answers: dict[int, Any] = {}
    failed = rejected = 0

    async with SweepService(
        executor=ThreadCellExecutor(2), metrics=metrics, max_depth=max_depth
    ) as service:
        begin = time.perf_counter()
        with tracer.span("service.submit_batch", "service"):
            batch = [service.submit(WanSweepJob(config=c)) for c in inputs.sweeps]
        batch_done = [0.0] * len(batch)

        async def await_sweep(index: int):
            sweep = await batch[index].result()
            batch_done[index] = time.perf_counter() - begin
            return sweep

        async def await_query(index: int, handle, due: float) -> None:
            answers[index] = await handle.result()
            latencies.append((time.perf_counter() - due) * 1e3)

        sweep_tasks = [
            asyncio.ensure_future(await_sweep(i)) for i in range(len(batch))
        ]
        query_tasks = []
        for index, query in enumerate(inputs.queries):
            due = begin + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                with tracer.span("service.loop_wait", "service"):
                    await asyncio.sleep(delay)
            late.append((time.perf_counter() - due) * 1e3)
            try:
                with tracer.span("service.submit", "service"):
                    handle = service.submit(query)
            except AdmissionRejected:
                rejected += 1
                continue
            query_tasks.append(
                asyncio.ensure_future(await_query(index, handle, due))
            )
        with tracer.span("service.loop_wait", "service"):
            outcomes = await asyncio.gather(*query_tasks, return_exceptions=True)
            sweeps = await asyncio.gather(*sweep_tasks, return_exceptions=True)
        wall = time.perf_counter() - begin

    failed += rejected
    failed += sum(isinstance(o, BaseException) for o in outcomes)
    failed += sum(isinstance(s, BaseException) for s in sweeps)
    attempted = len(inputs.queries) + len(inputs.sweeps)

    # Identity: the served bytes equal the direct engine's.
    digest = hashlib.sha256()
    sampled = sweeps[inputs.sampled_sweep]
    attempted += 1
    if isinstance(sampled, BaseException) or (
        sweep_digest(sampled) != reference["sweep"]
    ):
        failed += 1
    else:
        digest.update(reference["sweep"].encode())
    for index in inputs.sampled_queries:
        attempted += 1
        if index not in answers or (
            stats_digest(answers[index]) != reference["queries"][str(index)]
        ):
            failed += 1
        else:
            digest.update(reference["queries"][str(index)].encode())

    wait = metrics.histogram(
        "service.wait_seconds", **{"class": Priority.INTERACTIVE.value}
    )
    cells = sum(len(c.timeouts) * c.runs for c in inputs.sweeps)
    return ServedObservations(
        wall_s=wall,
        batch_done_s=max(batch_done),
        batch_cells=cells,
        latencies_ms=latencies,
        late_ms=late,
        attempted=attempted,
        failed=failed,
        rejected=rejected,
        digest=digest.hexdigest(),
        queue_wait_ms_p50=wait.percentile(50) * 1e3 if latencies else 0.0,
    )
