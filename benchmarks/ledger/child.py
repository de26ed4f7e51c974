"""The fresh child process of one repetition (or one traced pass).

``python -m benchmarks.ledger.child --workload W --phase setup|section``
does its imports, then times *only* its stated section and prints one
JSON object as its last line.  ``--traced 1`` records spans around the
section, derives the workload's span metrics, and runs the per-layer
probes whose home is this workload.

For the CLI workloads the untraced repetition is the real CLI, not this
module; their ``section`` here is the CLI's own ``run_all.main`` called
in-process, which the traced pass needs
(:mod:`benchmarks.ledger.reenact`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from benchmarks.ledger import probes
from benchmarks.ledger.probes import exact, row
from benchmarks.ledger.spec import CLI_WORKLOADS, LAYERS, WORKLOAD_NAMES
from benchmarks.ledger.stats import percentile
from benchmarks.ledger.tracer import GLUE, Tracer
from benchmarks.ledger.workloads import (
    CLI_CELLS,
    SERVED_STATE,
    SPANS_FILE,
    WORKLOADS,
    artifact_digests,
    cache_counts,
    cli_argv,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger.child")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--phase", required=True, choices=("setup", "section"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir", type=Path, default=None)
    parser.add_argument("--inject", choices=("none", "reject"), default="none")
    args = parser.parse_args(argv)

    if args.phase == "setup":
        result = _setup(args)
    else:
        tracer = Tracer(args.workload, enabled=bool(args.traced))
        try:
            result = _SECTIONS[args.workload](args, tracer)
        finally:
            tracer.stop()
        if tracer.enabled:
            # Spans live in memory during the pass and are written once,
            # here, when the benchmark's work is over.
            (args.work / SPANS_FILE).write_text(json.dumps(tracer.spans()))
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Set-up phases (the CLI workloads' set-up is a CLI run, in the parent).
# ----------------------------------------------------------------------
def _setup(args) -> dict:
    from benchmarks.ledger import scenarios

    if args.workload == "sync_batch":
        attempted, failed = scenarios.sync_batch_setup(args.seed)
    elif args.workload == "sync_fallback":
        attempted, failed = scenarios.sync_fallback_setup(args.seed)
    elif args.workload == "served_mixed":
        inputs = scenarios.served_inputs(args.seed, args.size)
        reference = scenarios.served_reference(inputs)
        (args.work / SERVED_STATE).write_text(json.dumps(reference))
        attempted, failed = 1 + len(reference["queries"]), 0
    else:
        raise SystemExit(f"{args.workload} is set up by the parent")
    return {"attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
# Sections.
# ----------------------------------------------------------------------
def _finish(tracer: Tracer, root_seconds: float, result: dict, rows: dict) -> dict:
    """Attach the rows and the span accounting of a traced section."""
    layers = tracer.layer_self_seconds()
    rows["traced_wall_s"] = exact(root_seconds)
    rows["glue_s"] = exact(layers.get(GLUE, 0.0))
    for layer in LAYERS:
        rows[f"layer.{layer}.self_s"] = exact(layers.get(layer, 0.0))
    result["rows"] = rows
    return result


def _cli_section(args, tracer: Tracer) -> dict:
    from benchmarks.ledger import reenact

    scale = "paper" if args.size == "full" else "quick"
    out = args.work / "reenacted"
    cache_dir = args.cache_dir or (out / ".trace-cache")
    argv = cli_argv(out, scale, cache_dir, WORKLOADS[args.workload].flags)
    if tracer.enabled:
        reenact.instrument(tracer)
    begin = time.perf_counter()
    with tracer.span(args.workload, GLUE):
        printed = reenact.run_main(argv)
    wall = time.perf_counter() - begin
    tracer.stop()
    hits, misses = cache_counts(printed)
    result = {
        "wall_s": wall,
        "artifacts": artifact_digests(out),
        "attempted": 1,
        "failed": 0,
    }
    if not tracer.enabled:
        return result

    rows = {
        "cache.hits": exact(hits),
        "cache.misses": exact(misses),
    }
    # Phase rows: the total of the span of the same name (minus unit).
    for name in (
        "figures.analysis_s", "figures.fig1c_lan_s", "figures.wan_figures_s",
        "figures.fig1k_s", "faults.measure_robustness_s",
        "faults.event_crosscheck_s", "check.differential_run_s",
        "check.batched_differential_s", "check.montecarlo_s",
        "check.conformance_s", "adaptive.scenario_s",
        "adaptive.live_extraction_ms",
    ):
        span, unit = name.rsplit("_", 1)
        if tracer.durations(span):
            rows[name] = exact(tracer.total(span) * (1e3 if unit == "ms" else 1))
    which = "cold" if misses else "warm"
    rows[f"figures.wan_cell_{which}_ms"] = exact(
        tracer.total("figures.wan_sweep") * 1e3 / CLI_CELLS[scale][1])
    batch = len(tracer.durations("sync.run.batch"))
    scalar = len(tracer.durations("sync.run.scalar"))
    if batch + scalar:
        rows["sync.batch_share"] = exact(
            batch / (batch + scalar), base={"batch": batch, "scalar": scalar})
        rows["sync.fallback_runs"] = exact(scalar)

    if args.workload == "sweep_cold":
        rows.update(probes.sweep_cold_probes(args.seed, args.size, args.work))
    elif args.workload == "sweep_warm":
        rows.update(probes.sweep_warm_probes(
            args.seed, args.size, args.work, cache_dir))
    else:
        rows.update(probes.phases_full_probes(args.seed, args.size))
    return _finish(tracer, wall, result, rows)


def _kind_rows(seen) -> dict:
    """``sync.<kind>_ms_per_kround`` from the section's own runs."""
    return {
        f"sync.{kind}_ms_per_kround": row(
            [seconds / rounds for seconds, rounds in runs], 1e6)
        for kind, runs in seen.by_kind.items()
        if kind != "consensus_to_decision"  # 40-round runs: not a rate
    }


def _sync_section(args, tracer: Tracer) -> dict:
    from benchmarks.ledger import scenarios

    size = scenarios.SYNC_SIZES[args.size]
    batch = args.workload == "sync_batch"
    begin = time.perf_counter()
    with tracer.span(args.workload, GLUE):
        with tracer.span("net.ping_table", "net"):  # plus plan generation
            if batch:
                todo = scenarios.sync_batch_scenarios(
                    args.seed, size["rounds"], size["runs"])
            else:
                todo = scenarios.sync_fallback_scenarios(
                    args.seed, size["rounds"], size["short_runs"],
                    size["short_rounds"])
        seen = scenarios.sync_section(todo, tracer, expect_batch=batch)
    wall = time.perf_counter() - begin
    runs = len(seen.modes)
    batched = seen.modes.count("batch")
    result = {
        "wall_s": wall,
        "work": seen.node_rounds,
        "work_seconds": sum(seen.op_ms) / 1e3,
        "op_ms": seen.op_ms,
        "digest": seen.digest.hexdigest(),
        "attempted": runs,
        "failed": seen.failed,
        "exact": {"batch_runs": batched, "fallback_runs": runs - batched},
    }
    if not tracer.enabled:
        return result

    rows = _kind_rows(seen)
    rows["sync.run_build_ms"] = row(tracer.durations("sync.build"), 1e3)
    rows["sync.batch_share"] = exact(
        batched / runs, base={"batch": batched, "runs": runs})
    rows["sync.fallback_runs"] = exact(runs - batched)
    if batch:
        clean = statistics.median(
            s / r for s, r in seen.by_kind["batch_clean"])
        live = statistics.median(
            s / r for s, r in seen.by_kind["batch_instrumented"])
        rows["obs.sync_batch_overhead_ratio"] = exact(
            live / clean,
            base={"clean_ms_per_kround": clean * 1e6,
                  "instrumented_ms_per_kround": live * 1e6})
        rows.update(probes.sync_batch_probes(args.seed, args.size))
    else:
        if seen.event_rounds:
            rows["sim.events_per_round"] = exact(
                seen.events / seen.event_rounds,
                base={"events": seen.events, "rounds": seen.event_rounds})
            rows["sim.events_per_s"] = exact(
                seen.events / seen.event_seconds,
                base={"events": seen.events, "run_s": seen.event_seconds})
        rows.update(_scalar_reference_rows(args, scenarios))
        rows.update(probes.sync_fallback_probes(args.seed, args.size))
    return _finish(tracer, wall, result, rows)


def _scalar_reference_rows(args, scenarios) -> dict:
    """The scalar loop on the *clean* class, bare and instrumented: the
    base of the batch speed-up and the real cost of telemetry where it
    fires per event."""
    rounds = scenarios.SYNC_SIZES[args.size]["rounds"]
    clean, live, _ = scenarios.sync_batch_scenarios(args.seed, rounds, runs=1)

    def scalar_seconds(scenario) -> float:
        run = scenario.build()
        begin = time.perf_counter()
        run.run(mode="scalar")
        return time.perf_counter() - begin

    bare, instrumented = scalar_seconds(clean), scalar_seconds(live)
    per_kround = 1e6 / rounds
    return {
        "sync.scalar_clean_ms_per_kround": exact(bare * per_kround),
        "obs.sync_scalar_overhead_ratio": exact(
            instrumented / bare,
            base={"clean_ms_per_kround": bare * per_kround,
                  "instrumented_ms_per_kround": instrumented * per_kround}),
    }


def _served_section(args, tracer: Tracer) -> dict:
    from repro.service import Priority

    from benchmarks.ledger import scenarios

    inputs = scenarios.served_inputs(args.seed, args.size)
    reference = json.loads((args.work / SERVED_STATE).read_text())
    # The self-test's forced AdmissionRejected: no interactive job is
    # admitted at all.
    max_depth = {Priority.INTERACTIVE: 0} if args.inject == "reject" else None
    begin = time.perf_counter()
    with tracer.span(args.workload, GLUE):
        seen = scenarios.served_section(
            inputs, reference, tracer, max_depth=max_depth)
    wall = time.perf_counter() - begin
    result = {
        "wall_s": seen.wall_s,
        "work": seen.batch_cells,
        "work_seconds": seen.batch_done_s,
        "op_ms": seen.latencies_ms,
        "digest": seen.digest,
        "attempted": seen.attempted,
        "failed": seen.failed,
        "exact": {"rejected": seen.rejected},
    }
    if not tracer.enabled:
        return result
    rows = {
        "service.submit_us": row(tracer.durations("service.submit"), 1e6),
        "service.queue_wait_ms_p50": exact(seen.queue_wait_ms_p50),
        "service.rejected": exact(seen.rejected),
        "service.interactive_p95_ms": exact(percentile(seen.latencies_ms, 95)),
        "service.generator_late_ms_p99": exact(percentile(seen.late_ms, 99)),
    }
    rows.update(probes.served_mixed_probes(args.seed, args.size, args.work))
    return _finish(tracer, wall, result, rows)


_SECTIONS = {
    **{name: _cli_section for name in CLI_WORKLOADS},
    "sync_batch": _sync_section,
    "sync_fallback": _sync_section,
    "served_mixed": _served_section,
}


if __name__ == "__main__":
    sys.exit(main())
