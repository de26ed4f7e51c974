"""The traced pass of the CLI workloads: ``run_all.main`` run in-process.

The real CLI is one opaque process, so to see *where* its time goes the
traced pass calls the program's own ``run_all.main(argv)`` — the CLI's
entry point, with the CLI's arguments — after wrapping, where ``main``
and its callees look them up, the phase-level functions (``figure_1a``..
``figure_1k``, ``run_wan_sweep``, ``robustness_report``,
``run_conformance``, ``run_adaptive_scenario``, ``run_live_extraction``)
and the layer functions those phases call.  Sequencing, constants and
the cell grid are therefore the program's own code, not a copy of it.

The pass writes the CLI's artifacts; the caller checks their digests
against the real CLI's.
"""

from __future__ import annotations

import contextlib
import io

import repro.analysis.stabilization as stabilization
import repro.check.differential as differential
import repro.experiments.cache as trace_cache
import repro.experiments.figures as figures
import repro.experiments.measurement as measurement
import repro.experiments.robustness as robustness
import repro.experiments.run_all as run_all
from repro.giraf.runner import LockstepRunner
from repro.models.registry import TimingModel
from repro.sync.round_sync import SyncRun

from benchmarks.ledger.tracer import Tracer

FIGURES = "experiments.figures"


#: Phase span -> (layer, the names ``run_all.main`` calls in that phase).
PHASES = {
    "figures.analysis": (FIGURES, ("figure_1a", "figure_1b", "headline_numbers")),
    "figures.fig1c_lan": (FIGURES, ("figure_1c",)),
    "figures.wan_sweep": (FIGURES, ("run_wan_sweep",)),
    "figures.wan_figures": (FIGURES, tuple(f"figure_1{x}" for x in "defghi")),
    "faults.report": ("experiments.robustness", ("robustness_report",)),
    "check.conformance": ("check", ("run_conformance", "conformance_report")),
    "adaptive.scenario": ("adaptive", ("run_adaptive_scenario",)),
    "adaptive.live_extraction": ("adaptive", ("run_live_extraction",)),
    "figures.fig1j": (FIGURES, ("figure_1j",)),
    "figures.fig1k": (FIGURES, ("figure_1k",)),
}


def instrument(tracer: Tracer) -> None:
    """Wrap the phases ``main`` calls and the layer functions they call,
    each where its caller looks it up."""
    for name, (layer, attrs) in PHASES.items():
        for attr in attrs:
            tracer.wrap(run_all, attr, name, layer)
    cache_layer = "experiments.cache"
    measure = "experiments.measurement"
    for owner, attr, name, layer in (
        # One sweep cell: cached_trace -> key, load | (sample, store).
        (figures, "cached_trace", "cache.cached_trace", cache_layer),
        (trace_cache, "trace_key", "cache.key", cache_layer),
        (trace_cache.TraceCache, "load", "cache.load", cache_layer),
        (trace_cache.TraceCache, "store", "cache.store", cache_layer),
        (measurement, "sample_wan_trace", "net.wan_trace", "net"),
        (measurement, "sample_lan_trace", "net.lan_trace", "net"),
        (figures, "measured_p", "measurement.measured_p", measure),
        (figures, "timely_matrices", "measurement.timely_matrices", measure),
        # Figures: satisfaction, decision statistics, summaries.
        (figures, "model_satisfaction", "measurement.model_satisfaction",
         measure),
        (TimingModel, "satisfied_batch", "models.satisfied_batch", "models"),
        (figures, "decision_stats", "decision.decision_stats",
         "experiments.decision"),
        (figures, "summarize", "analysis.summarize", "analysis"),
        (figures, "expected_decision_rounds", "analysis.closed_form",
         "analysis"),
        (run_all, "expected_decision_rounds", "analysis.closed_form",
         "analysis"),
        (run_all, "find_crossover", "analysis.crossover", "analysis"),
        (run_all, "render_series", "report.render_series",
         "experiments.report"),
        # Optional phases.
        (robustness, "measure_robustness", "faults.measure_robustness",
         "experiments.robustness"),
        (robustness, "event_stack_crosscheck", "faults.event_crosscheck",
         "experiments.robustness"),
        (differential, "differential_run", "check.differential_run", "check"),
        (differential, "batched_differential_run",
         "check.batched_differential", "check"),
        (differential, "montecarlo_vs_equations", "check.montecarlo", "check"),
        (stabilization, "simulate_adversary_decision_rounds",
         "analysis.adversary_rounds", "analysis"),
        (LockstepRunner, "run", "giraf.lockstep_run", "giraf"),
    ):
        tracer.wrap(owner, attr, name, layer)
    # SyncRun.run spans carry the path the run actually executed.
    tracer.wrap(
        SyncRun, "run", "sync.run", "sync",
        rename=lambda result, args: f"sync.run.{args[0].executed_mode}",
    )


def run_main(argv: list[str]) -> str:
    """``run_all.main(argv)``; returns what it printed."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            run_all.main(argv)
    finally:
        trace_cache.deactivate()  # main leaves its cache active
    return printed.getvalue()
