"""The ledger's one table: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` is :func:`benchmark_json` written to disk
(``python -m benchmarks.ledger spec``); the self-test fails when the two
drift apart.  Every name a later issue may cite lives here.

Conventions
-----------

- Every end-to-end metric is defined on every workload (the driver's
  contract); what the generic names mean on each workload is the
  ``work``/``op`` text of the :class:`Workload`.
- A per-layer metric has a *home*: the one workload whose traced pass
  measures it.  ``"*"`` means it is derived from that workload's own
  spans and exists on all of them.  In a single-workload traced run
  (driver mode) a metric whose home is elsewhere, or whose span the
  workload never enters, reads 0 — "not exercised here".
- The driver runs the workloads marked ``driver`` (four of the six) and
  sees the per-layer rows one of them can measure
  (:data:`DRIVER_PER_LAYER`); the full ledger run measures everything.
- ``moves`` is the prediction written down before measuring: which
  end-to-end metric the layer metric should move, on which workload, and
  (after "x") where the prediction is *no change*.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Measuring time of one driver run (``--seconds``): a workload repeats
#: until this much measured time has passed, and at least twice.  At 10 s
#: a run held two or three repetitions and the driver saw the middle half
#: of ten such runs 27 % apart on ``sync_fallback``; 22 s holds five to
#: ten, and is as long as four workloads let a run be inside the driver's
#: time limit for all its runs (README, "Measured spread").
RUN_SECONDS = 22

#: What ``stats.gauge_ms`` reads on this box in a calm minute.  Durations
#: are divided by (gauge around them / this), so the constant only fixes
#: the unit: a reported second is a second on a machine whose gauge reads
#: this value.  Never re-tune it: that would rescale every baseline.
GAUGE_CALM_MS = 42.0

#: Default seed of the ledger run (the issue number that defined it).
DEFAULT_SEED = 11


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: False for the CLI workloads: ``PAPER.seed = 2007`` has no CLI flag,
    #: so their inputs are fixed by the program's design.
    seeded: bool
    #: Repetitions in a full ledger run (the first is the warm-up).
    reps: int
    #: What ``work_per_s`` counts and what one ``op`` is, on this workload.
    work: str
    op: str
    #: Whether ``BENCHMARK.json`` lists it, so that the driver runs it.
    #: The driver's time limit pays for four workloads at a steady run
    #: length, not six: the two contrast pairs (cache used / bypassed,
    #: batched / scalar engine) stay; the two workloads whose one
    #: repetition takes 8-10 s are measured by the full ledger run only.
    driver: bool = True


WORKLOADS = (
    Workload(
        "sweep_cold",
        "CLI paper sweep on an empty trace cache: net latency sampling and "
        "cache stores dominate, the event stack does nothing",
        seeded=False,
        reps=7,
        work="693 sweep cells per second of CLI wall (spawn to exit)",
        op="one CLI invocation",
    ),
    Workload(
        "sweep_warm",
        "same CLI on a populated cache: bypasses net sampling, so import, "
        "cache loads, predicates, decision stats and figures dominate",
        seeded=False,
        reps=7,
        work="693 sweep cells per second of CLI wall (spawn to exit)",
        op="one CLI invocation",
    ),
    Workload(
        "phases_full",
        "warm CLI with --faults --check --adaptive --new-models: the mixed "
        "user run over event stack, lockstep, Monte-Carlo, SMR, GS, adversary",
        seeded=False,
        reps=5,
        work="693 sweep cells per second of CLI wall (all phases included)",
        op="one CLI invocation",
        driver=False,
    ),
    Workload(
        "sync_batch",
        "direct SyncRun.run() on classes that ride the batched NumPy path: "
        "event queue and transport idle; a batch change must move only this",
        seeded=True,
        reps=5,
        work="simulated node-rounds per host second inside SyncRun.run()",
        op="one SyncRun.run() call (24 per repetition)",
    ),
    Workload(
        "sync_fallback",
        "same engine on classes that fall back to the scalar event loop "
        "(recovery, clock steps, hetero clocks, consensus): sim layer bound",
        seeded=True,
        reps=5,
        work="simulated node-rounds per host second inside SyncRun.run()",
        op="one SyncRun.run() call (24 per repetition)",
    ),
    Workload(
        "served_mixed",
        "open loop on SweepService: 4 paper sweeps then 300 decision queries "
        "at 50/s timed from due time; only place dispatch and queueing matter",
        seeded=True,
        reps=5,
        work="batch sweep cells completed per second until the last sweep",
        op="one interactive DecisionQuery, timed from when it was due",
        driver=False,
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
DRIVER_WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS if w.driver)
CLI_WORKLOADS = ("sweep_cold", "sweep_warm", "phases_full")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    doc: str


#: Bounds were meant to start at 10 % (wall, CPU, work), 15 % and 20 %
#: (latencies).  This 2-core shared VM runs 20-50 % slow for minutes at a
#: time; every duration is therefore corrected by the speed gauge read
#: around it (``measure.Gauge``), which brings the spread of ten driver
#: runs from 4-9 % (raw, a calm hour; 17-31 % in a bad one) to 1-5 %
#: (README, "Measured spread").  The timings keep the widest bound the
#: driver allows all the same: the check that refuses a benchmark runs
#: on a host nobody chose.  Peak RSS repeats to 0.1 % on one seed; across
#: seeds ``sync_fallback`` spreads 0.9-2.7 % (its fault plans differ), so
#: the bound is 10 %, three times that.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "median set-up time: warm-up run / cache population / scenario "
           "generation, ping tables, divergence checks, reference digests"),
    Metric("wall_s", "s", "lower", 0.25,
           "spawn to exit for CLI workloads, the timed section otherwise; "
           "like every duration here, corrected for host speed"),
    Metric("cpu_s", "s", "lower", 0.25,
           "user+sys CPU of the repetition's child process (os.wait4)"),
    Metric("peak_rss_mb", "MiB", "lower", 0.10,
           "peak resident set of the repetition's child (os.wait4)"),
    Metric("work_per_s", "1/s", "higher", 0.25,
           "work units per host second; the unit is the workload's `work`"),
    Metric("op_p50_ms", "ms", "lower", 0.25,
           "median latency of the workload's `op` within a repetition"),
)
# No tail latency here: the interactive p95 on served_mixed (n = 300, two
# threads under the GIL) spreads 17 % between repetitions of one seed and
# 11-22 % between driver runs, too close to the 25 % cap to gate on; it is
# the per-layer row ``service.interactive_p95_ms`` instead.


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    home: str
    moves: str


def _m(name, unit, better, home, moves):
    return LayerMetric(name, unit, better, home, moves)


#: Layers whose span self-times are reported per workload
#: (``layer.<name>.self_s``); a layer is ``repro.<name>``.
LAYERS = (
    "net",
    "experiments.cache",
    "experiments.measurement",
    "models",
    "experiments.decision",
    "experiments.figures",
    "experiments.report",
    "experiments.robustness",
    "analysis",
    "check",
    "adaptive",
    "giraf",
    "sync",
    "service",
)

#: Layers that a single workload enters, and no other.
_LAYER_HOME = {
    "experiments.robustness": "phases_full",
    "check": "phases_full",
    "adaptive": "phases_full",
    "giraf": "phases_full",
    "service": "served_mixed",
}

_STARTUP = "wall_s on sweep_warm (about half), sweep_cold (a third), " \
    "phases_full (<10%); x sync_*, served_mixed (timed after import)"
_NET = "wall_s on sweep_cold (x693 cells), op_p50_ms on served_mixed; " \
    "x sweep_warm"
_MODELS = "wall_s on sweep_warm, phases_full; op_p50_ms on served_mixed"
_FIGS = "wall_s on sweep_warm (figures are its largest phase), phases_full"
_SIM = "work_per_s on sync_fallback, wall_s on phases_full; x sync_batch"
_SYNC_B = "work_per_s on sync_batch; x sync_fallback"
_SYNC_S = "work_per_s on sync_fallback, wall_s on phases_full; x sync_batch"
_FULL = "wall_s on phases_full; x every other workload"
_SVC = "op_p50_ms, work_per_s on served_mixed; x everywhere else"

PER_LAYER = (
    # -- spans of the workload itself ---------------------------------
    _m("traced_wall_s", "s", "lower", "*",
       "the traced pass's timed section"),
    _m("glue_s", "s", "lower", "*",
       "traced wall no layer span covers (harness, file writes)"),
    _m("trace_overhead_ratio", "ratio", "lower", "*",
       "traced wall / untraced wall of the same section, fresh child each"),
    *(
        _m(f"layer.{layer}.self_s", "s", "lower", _LAYER_HOME.get(layer, "*"),
           f"self time of repro.{layer} spans (span minus children)")
        for layer in LAYERS
    ),
    # -- startup ------------------------------------------------------
    _m("startup.python_s", "s", "lower", "sweep_warm", _STARTUP),
    _m("startup.import_s", "s", "lower", "sweep_warm", _STARTUP),
    _m("startup.import_scipy_s", "s", "lower", "sweep_warm", _STARTUP),
    # -- net ----------------------------------------------------------
    _m("net.wan_trace_ms", "ms", "lower", "sweep_cold", _NET),
    _m("net.lan_trace_ms", "ms", "lower", "sweep_cold", _NET),
    _m("net.scalar_round_us", "us", "lower", "sweep_cold", _NET),
    _m("net.ping_table_ms", "ms", "lower", "sweep_cold",
       "setup_s on sync_*; " + _NET),
    # -- experiments.cache --------------------------------------------
    _m("cache.key_us", "us", "lower", "sweep_warm",
       "wall_s on sweep_warm, phases_full"),
    _m("cache.store_ms", "ms", "lower", "sweep_cold",
       "wall_s on sweep_cold; x sweep_warm"),
    _m("cache.load_ms", "ms", "lower", "sweep_warm",
       "wall_s on sweep_warm, phases_full; x sweep_cold"),
    _m("cache.hits", "count", "higher", "*",
       "exact, from the CLI's own summary line"),
    _m("cache.misses", "count", "lower", "*",
       "exact, from the CLI's own summary line"),
    # -- models / decision --------------------------------------------
    _m("models.timely_matrices_us", "us", "lower", "sweep_warm", _MODELS),
    _m("models.satisfaction_us.ES", "us", "lower", "sweep_warm", _MODELS),
    _m("models.satisfaction_us.AFM", "us", "lower", "sweep_warm", _MODELS),
    _m("models.satisfaction_us.LM", "us", "lower", "sweep_warm", _MODELS),
    _m("models.satisfaction_us.WLM", "us", "lower", "sweep_warm", _MODELS),
    _m("models.satisfaction_us.GS", "us", "lower", "sweep_warm", _MODELS),
    _m("decision.stats_us", "us", "lower", "sweep_warm",
       "wall_s on sweep_warm via figure_1g/1h; op_p50_ms on served_mixed"),
    _m("decision.stats_censored_us", "us", "lower", "sweep_warm",
       "wall_s on sweep_warm via figure_1g/1h (ES at 0.14 s: worst case)"),
    # -- figures / report / selection ---------------------------------
    _m("figures.analysis_s", "s", "lower", "*", _FIGS),
    _m("figures.fig1c_lan_s", "s", "lower", "*", _FIGS),
    _m("figures.wan_cell_cold_ms", "ms", "lower", "*",
       "wall_s on sweep_cold; x sweep_warm"),
    _m("figures.wan_cell_warm_ms", "ms", "lower", "*",
       "wall_s on sweep_warm, phases_full; x sweep_cold"),
    _m("figures.wan_figures_s", "s", "lower", "*", _FIGS),
    _m("figures.fig1k_s", "s", "lower", "phases_full", _FULL),
    _m("report.render_series_ms", "ms", "lower", "sweep_warm", _FIGS),
    _m("selection.choose_ms", "ms", "lower", "sweep_warm",
       "none of the six workloads (examples/ only); recorded for the seam"),
    # -- parallel -----------------------------------------------------
    _m("parallel.engine_overhead_us_per_cell", "us/cell", "lower",
       "sweep_warm", "none of the --jobs 1 workloads; judges the seam"),
    _m("parallel.jobs2_speedup", "ratio", "higher", "sweep_cold",
       "none of the --jobs 1 workloads; null below 2 cores"),
    # -- sim ----------------------------------------------------------
    _m("sim.eventqueue_push_pop_us", "us", "lower", "sync_fallback", _SIM),
    _m("sim.transport_send_stream_us", "us", "lower", "sync_fallback", _SIM),
    _m("sim.transport_send_scalar_us", "us", "lower", "sync_fallback", _SIM),
    _m("sim.events_per_s", "1/s", "higher", "sync_fallback", _SIM),
    _m("sim.events_per_round", "count", "lower", "sync_fallback",
       "exact; " + _SIM),
    # -- sync ---------------------------------------------------------
    _m("sync.batch_clean_ms_per_kround", "ms/kround", "lower", "sync_batch",
       _SYNC_B),
    _m("sync.batch_instrumented_ms_per_kround", "ms/kround", "lower",
       "sync_batch", _SYNC_B),
    _m("sync.batch_faulted_ms_per_kround", "ms/kround", "lower",
       "sync_batch", _SYNC_B),
    _m("sync.scalar_clean_ms_per_kround", "ms/kround", "lower",
       "sync_fallback", _SYNC_S),
    _m("sync.scalar_recovery_ms_per_kround", "ms/kround", "lower",
       "sync_fallback", _SYNC_S),
    _m("sync.scalar_clockstep_ms_per_kround", "ms/kround", "lower",
       "sync_fallback", _SYNC_S),
    _m("sync.scalar_hetero_ms_per_kround", "ms/kround", "lower",
       "sync_fallback", _SYNC_S),
    _m("sync.scalar_consensus_ms_per_kround", "ms/kround", "lower",
       "sync_fallback", _SYNC_S),
    _m("sync.run_build_ms", "ms", "lower", "*",
       "wall_s on sync_batch, sync_fallback"),
    _m("sync.batch_share", "ratio", "higher", "*",
       "exact: runs with executed_mode == batch / runs; " + _SYNC_S),
    _m("sync.fallback_runs", "count", "lower", "*", "exact; " + _SYNC_S),
    # -- oracles / obs ------------------------------------------------
    _m("oracles.omega_observe_rows_us", "us", "lower", "sync_batch", _SYNC_B),
    _m("obs.counter_inc_ns", "ns", "lower", "sync_batch", _SYNC_B),
    _m("obs.null_counter_inc_ns", "ns", "lower", "sync_batch",
       "every workload's uninstrumented path"),
    _m("obs.histogram_observe_many_us_per_k", "us/k", "lower", "sync_batch",
       _SYNC_B),
    _m("obs.sync_batch_overhead_ratio", "ratio", "lower", "sync_batch",
       "instrumented / clean batch run; " + _SYNC_B),
    _m("obs.sync_scalar_overhead_ratio", "ratio", "lower", "sync_fallback",
       "instrumented / clean scalar run; " + _SYNC_S),
    # -- giraf / consensus / core -------------------------------------
    *(
        _m(f"giraf.lockstep_run_ms.{alg}", "ms", "lower", "phases_full",
           _FULL + " (differential lockstep side, SMR slots)")
        for alg in ("ES", "LM", "WLM", "AFM", "PAXOS", "WLM_SIM")
    ),
    *(
        _m(f"consensus.msgs_per_decision.{alg}", "count", "lower",
           "phases_full", "exact; message economy, not time")
        for alg in ("ES", "LM", "WLM", "AFM", "PAXOS", "WLM_SIM")
    ),
    # -- faults -------------------------------------------------------
    _m("faults.apply_to_matrices_ms", "ms", "lower", "phases_full", _FULL),
    _m("faults.measure_robustness_s", "s", "lower", "phases_full", _FULL),
    _m("faults.event_crosscheck_s", "s", "lower", "phases_full", _FULL),
    _m("faults.adversary_compile_ms", "ms", "lower", "phases_full", _FULL),
    # -- check --------------------------------------------------------
    _m("check.differential_run_s", "s", "lower", "phases_full", _FULL),
    _m("check.batched_differential_s", "s", "lower", "phases_full", _FULL),
    _m("check.montecarlo_s", "s", "lower", "phases_full", _FULL),
    _m("check.conformance_s", "s", "lower", "phases_full",
       _FULL + " (largest single phase)"),
    # -- adaptive / smr -----------------------------------------------
    _m("adaptive.scenario_s", "s", "lower", "phases_full", _FULL),
    _m("adaptive.live_extraction_ms", "ms", "lower", "phases_full", _FULL),
    _m("adaptive.extractor_observe_us", "us", "lower", "phases_full", _FULL),
    _m("adaptive.policy_decide_us", "us", "lower", "phases_full", _FULL),
    _m("smr.slot_ms", "ms", "lower", "phases_full", _FULL),
    # -- analysis -----------------------------------------------------
    _m("analysis.closed_forms_ms", "ms", "lower", "sweep_warm",
       "wall_s on sweep_* (analysis phase)"),
    _m("analysis.montecarlo_ms", "ms", "lower", "phases_full",
       "wall_s on phases_full via check"),
    _m("analysis.crossover_ms", "ms", "lower", "sweep_warm",
       "wall_s on sweep_* (headline numbers)"),
    # -- service ------------------------------------------------------
    _m("service.submit_us", "us", "lower", "served_mixed", _SVC),
    _m("service.dispatch_overhead_us_per_cell", "us/cell", "lower",
       "served_mixed", _SVC),
    _m("service.queue_wait_ms_p50", "ms", "lower", "served_mixed", _SVC),
    _m("service.dedup_hit_ratio", "ratio", "higher", "served_mixed",
       "exact: 3 identical concurrent sweeps -> 2 hits"),
    _m("service.rejected", "count", "lower", "served_mixed", _SVC),
    _m("service.interactive_p95_ms", "ms", "lower", "served_mixed",
       "the tail of op_p50_ms's latencies (15 samples beyond); " + _SVC),
    _m("service.generator_late_ms_p99", "ms", "lower", "served_mixed",
       "how late the open-loop generator ran; bounds trust in op_p*_ms"),
    _m("service.max_rate_ok_qps", "1/s", "higher", "served_mixed",
       "highest of 25/50/100/200 per s with no rejection and p95 <= 100 ms"),
)

PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)

#: The rows a driver run can measure: those whose home the driver runs.
DRIVER_PER_LAYER = tuple(
    m for m in PER_LAYER if m.home == "*" or m.home in DRIVER_WORKLOAD_NAMES)

#: Per-layer rows that are counts made by the program and must repeat
#: exactly between two run sets of one commit.
EXACT_ROWS = (
    "cache.hits",
    "cache.misses",
    "sync.batch_share",
    "sync.fallback_runs",
    "sim.events_per_round",
    "service.dedup_hit_ratio",
    *(f"consensus.msgs_per_decision.{alg}"
      for alg in ("ES", "LM", "WLM", "AFM", "PAXOS", "WLM_SIM")),
)


def benchmark_json() -> dict:
    """The contents of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS if w.driver
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in DRIVER_PER_LAYER
        ],
    }
