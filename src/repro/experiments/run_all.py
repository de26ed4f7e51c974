"""Regenerate the paper's whole evaluation with one command.

::

    python -m repro.experiments                 # quick scale, ./results
    python -m repro.experiments --scale paper   # the 33x300 protocol
    python -m repro.experiments --out /tmp/figs --charts
    python -m repro.experiments --jobs 0        # one worker per CPU

Writes one text table (and optionally an ASCII chart) per figure, plus a
summary of the Section 4.2 headline numbers.

Sampled traces are cached on disk (default ``<out>/.trace-cache``; see
:mod:`repro.experiments.cache`), so a repeat run — with ``--charts``, a
new figure, or a different downstream analysis — re-simulates nothing.
``--no-cache`` disables this; ``--jobs N`` fans the sweeps out over N
worker processes (0 = one per CPU).

The pipeline is the :data:`PHASES` table below.  The optional phases
(``--faults``, ``--check``, ``--adaptive``, ``--new-models``) are rows
of it; each row's help text says what it runs and which artifact it
writes.

``--metrics DIR`` profiles the pipeline: per-phase and per-cell timing,
cache hit/miss rates and worker utilization land in ``DIR`` as a run
manifest (``manifest.json``), a JSONL event timeline
(``timeline.jsonl``), the raw instrument snapshot (``metrics.json``) and
a rendered table (``metrics.txt``; see
:mod:`repro.experiments.obs_report`).

Progress output is line-flushed (``flush=True``): these prints exist to
show liveness during the slow WAN sweep, and block buffering under a
pipe (CI logs, ``tee``) held them all back until the end.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

from repro.adaptive import (
    ScenarioConfig,
    adaptive_report,
    render_live_extraction,
    run_adaptive_scenario,
    run_live_extraction,
)
from repro.analysis import expected_decision_rounds, find_crossover
from repro.check import conformance_report, run_conformance
from repro.experiments import cache as trace_cache
from repro.experiments.ascii_chart import chart_figure
from repro.experiments.config import (
    PAPER,
    PAPER_LAN,
    QUICK,
    QUICK_LAN,
    SweepConfig,
)
from repro.experiments.figures import (
    WanSweep,
    figure_1a,
    figure_1b,
    figure_1c,
    figure_1d,
    figure_1e,
    figure_1f,
    figure_1g,
    figure_1h,
    figure_1i,
    figure_1j,
    figure_1k,
    run_wan_sweep,
)
from repro.experiments.parallel import (
    default_jobs,
    figure_1c_parallel,
    run_wan_sweep_parallel,
)
from repro.experiments.report import render_comparison, render_series
from repro.experiments.robustness import robustness_report
from repro.obs.recorder import RunRecorder, build_manifest, write_manifest
from repro.obs.registry import MetricsRegistry


def headline_numbers() -> str:
    n = 8
    rows = [
        ("E(D_ES) at p=0.97", 349,
         float(expected_decision_rounds(0.97, n, "ES"))),
        ("E(D_WLM direct) at p=0.92", 18,
         float(expected_decision_rounds(0.92, n, "WLM"))),
        ("E(D_WLM simulated) at p=0.92", 114,
         float(expected_decision_rounds(0.92, n, "WLM_SIM"))),
        ("E(D_AFM) at p=0.85", 10,
         float(expected_decision_rounds(0.85, n, "AFM"))),
        ("E(D_LM) at p=0.85", 69,
         float(expected_decision_rounds(0.85, n, "LM"))),
        ("LM overtakes AFM at p", 0.96,
         find_crossover("LM", "AFM", n, p_low=0.7)),
        ("WLM overtakes AFM at p", 0.97,
         find_crossover("WLM", "AFM", n, p_low=0.7)),
    ]
    return render_comparison("Section 4.2 headline numbers", rows)


class _PhaseProgress:
    """Prints coarse per-phase progress plus a final throughput line.

    Timed with ``time.perf_counter``, never ``time.time``: the fault
    subsystem deliberately steps the wall clock in this process, and a
    stepped (or NTP-slewed) clock would corrupt the reported elapsed
    time and throughput.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.start = time.perf_counter()
        self._last_quarter = 0

    def __call__(self, done: int, total: int) -> None:
        quarter = (4 * done) // total
        if quarter > self._last_quarter and done < total:
            self._last_quarter = quarter
            print(f"    ... {done}/{total} cells", flush=True)

    def finish(self, cells: int) -> None:
        elapsed = time.perf_counter() - self.start
        rate = cells / elapsed if elapsed > 0 else float("inf")
        print(
            f"  {self.label}: {cells} cells in {elapsed:.2f}s "
            f"({rate:.1f} cells/s)",
            flush=True,
        )


class _RunProfile:
    """Phase-level profiling for one pipeline run.

    A thin wrapper tying the registry and the recorder together: each
    :meth:`phase` context records a ``phase.start``/``phase.end`` event
    pair on the timeline and sets the ``run.phase_seconds`` gauge for
    the phase.  With no ``--metrics`` directory both sides are the
    shared no-op singletons.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.recorder = RunRecorder(enabled=enabled)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        begin = time.perf_counter()
        self.recorder.record("phase.start", phase=name)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - begin
            self.recorder.record("phase.end", phase=name, seconds=elapsed)
            self.metrics.gauge("run.phase_seconds", phase=name).set(elapsed)


@dataclass
class RunContext:
    """What one pipeline run hands each phase runner."""

    args: argparse.Namespace
    wan_config: SweepConfig
    lan_config: SweepConfig
    jobs: int
    profile: _RunProfile
    #: The shared WAN sweep: set by the ``wan`` phase, reused by every
    #: later phase that works on its matrices.
    sweep: Optional[WanSweep] = None

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        return self.profile.metrics if self.profile.enabled else None

    def write(self, filename: str, text: str, note: str = "") -> None:
        (self.args.out / filename).write_text(text)
        print(f"  wrote {self.args.out / filename}{note}", flush=True)

    def emit(self, name: str, result, y_log: bool = False) -> None:
        if self.args.charts:
            (self.args.out / f"{name}.chart.txt").write_text(
                chart_figure(result, y_log=y_log) + "\n"
            )
        self.write(f"{name}.txt", render_series(result) + "\n")


def _cells(config: SweepConfig) -> int:
    return len(config.timeouts) * config.runs


# ----------------------------------------------------------------------
# Phase runners: plain functions that look up ``figure_1a`` ..
# ``run_live_extraction`` in this module's globals when called, because
# that is where the tests and the benchmark ledger's tracer patch them.
# ----------------------------------------------------------------------
def _run_analysis(ctx: RunContext) -> None:
    ctx.emit("fig1a", figure_1a(), y_log=True)
    ctx.emit("fig1b", figure_1b(), y_log=True)
    ctx.write("headline.txt", headline_numbers() + "\n")


def _sweep(ctx: RunContext, label: str, config: SweepConfig, engine, direct):
    """One measurement sweep, on the parallel engine or directly."""
    progress = _PhaseProgress(label)
    # With profiling on, even jobs=1 routes through the parallel engine
    # (in-process, bit-identical to the serial path) so per-cell timing
    # and cache statistics flow through its aggregation.
    if ctx.jobs > 1 or ctx.profile.enabled:
        result = engine(
            config, jobs=ctx.jobs, progress=progress, metrics=ctx.metrics
        )
    else:
        result = direct(config)
    progress.finish(_cells(config))
    return result


def _run_lan(ctx: RunContext) -> None:
    fig1c = _sweep(
        ctx, "LAN sweep", ctx.lan_config, figure_1c_parallel, figure_1c
    )
    ctx.emit("fig1c", fig1c)


def _run_wan(ctx: RunContext) -> None:
    ctx.sweep = _sweep(
        ctx, "WAN sweep", ctx.wan_config, run_wan_sweep_parallel, run_wan_sweep
    )


def _run_wan_figures(ctx: RunContext) -> None:
    ctx.emit("fig1d", figure_1d(sweep=ctx.sweep))
    ctx.emit("fig1e", figure_1e(sweep=ctx.sweep))
    ctx.emit("fig1f", figure_1f(sweep=ctx.sweep))
    ctx.emit("fig1g", figure_1g(sweep=ctx.sweep))
    ctx.emit("fig1h", figure_1h(sweep=ctx.sweep))
    ctx.emit("fig1i", figure_1i(sweep=ctx.sweep))


def _run_faults(ctx: RunContext) -> None:
    # Reuses the sweep already in memory (and therefore the trace
    # cache): the fault masks are applied to the cached matrices, so
    # this phase simulates nothing new.
    report = robustness_report(sweep=ctx.sweep, seed=ctx.wan_config.seed)
    ctx.write("faults.txt", report + "\n")


def _run_check(ctx: RunContext) -> None:
    conformance = run_conformance(
        seed=ctx.wan_config.seed,
        mc_samples=2000 if ctx.args.scale == "quick" else 4000,
        metrics=ctx.metrics,
    )
    ctx.write(
        "conformance.txt",
        conformance_report(conformance),
        note=f" ({'PASS' if conformance.ok else 'FAIL'})",
    )


def _run_adaptive(ctx: RunContext) -> None:
    # Independent of the sweep: the scenario samples its own base
    # trace and derives all randomness from its own config seed, so
    # the artifact is identical whatever phases ran before it.
    comparison = run_adaptive_scenario(ScenarioConfig(), metrics=ctx.metrics)
    live = run_live_extraction(ScenarioConfig(), metrics=ctx.metrics)
    ctx.write(
        "adaptive.txt",
        f"{adaptive_report(comparison)}\n\n{render_live_extraction(live)}\n",
        note=f" (regret {comparison.regret_seconds:+.2f}s, "
        f"{comparison.total_violations} violations, live extraction "
        f"mode={live.executed_mode})",
    )


def _run_new_models(ctx: RunContext) -> None:
    # Analytic on one side, a small simulation on the other: 1(j) is
    # closed-form only, 1(k) replays the stability-window adversary
    # on the event stack and overlays the composed prediction.
    ctx.emit("fig1j", figure_1j(), y_log=True)
    runs = 40 if ctx.args.scale == "quick" else 120
    ctx.emit("fig1k", figure_1k(runs=runs, seed=ctx.wan_config.seed))


class Phase(NamedTuple):
    """One row of the pipeline: everything the CLI knows about a phase."""

    #: The ``profile.phase`` span; for an optional row also its CLI switch
    #: (``--<name>``) and its manifest key.
    name: str
    #: The ``[i/N]`` progress header printed before the phase runs.
    title: str
    runner: Callable[[RunContext], None]
    #: Help text of the row's switch; ``None`` marks an always-on row.
    help: Optional[str] = None

    @property
    def flag(self) -> Optional[str]:
        return None if self.help is None else f"--{self.name}"

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


#: The pipeline, in execution order.  The argparse switches, the
#: ``[i/N]`` numbering, the phase spans and the manifest's per-flag fields
#: are all read off this table: a new scenario is one row plus its runner.
PHASES = (
    Phase("analysis", "analysis figures (Section 4.2)", _run_analysis),
    Phase("lan", "LAN measurement (Section 5.2)", _run_lan),
    Phase("wan", "WAN sweep (Section 5.3) — this is the slow part", _run_wan),
    Phase("wan-figures", "WAN figures", _run_wan_figures),
    Phase(
        "faults",
        "fault robustness",
        _run_faults,
        help="also run the fault-robustness phase (P_M and decision "
        "latency under crash/loss/partition/slow-node/churn plans)",
    ),
    Phase(
        "check",
        "conformance check (differential validation)",
        _run_check,
        help="also run the conformance phase: differential validation of "
        "the lockstep and event-driven stacks (with runtime invariant "
        "checkers attached), the Monte-Carlo-vs-closed-form cross-check "
        "and the mutation self-test; writes conformance.txt",
    ),
    Phase(
        "adaptive",
        "adaptive model selection under churn",
        _run_adaptive,
        help="also run the adaptive model-selection scenario: the online "
        "timeliness extractor and switching policy under churn (slow "
        "nodes, partition, heal) against every fixed (model, timeout) "
        "pair; writes adaptive.txt",
    ),
    Phase(
        "new-models",
        "post-paper scenarios (granular synchrony, stabilizing adversary)",
        _run_new_models,
        help="also run the new-scenario phase: Granular Synchrony analytic "
        "curves (Figure 1(j)) and the eventually-stabilizing message "
        "adversary's decision-round figure (Figure 1(k), simulated mean "
        "vs closed-form prediction); writes fig1j.txt and fig1k.txt",
    ),
)


def selected_phases(args: argparse.Namespace) -> list[Phase]:
    """The rows this invocation runs, in table order."""
    return [
        phase
        for phase in PHASES
        if phase.flag is None or getattr(args, phase.dest)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate every figure of 'How to Choose a Timing Model?'",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "paper"),
        default="quick",
        help="quick: seconds; paper: the full 33-runs-by-300-rounds protocol",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("results"), help="output directory"
    )
    parser.add_argument(
        "--charts", action="store_true", help="also write ASCII charts"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweeps (0 = one per CPU; default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="trace cache directory (default: <out>/.trace-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk trace cache",
    )
    for phase in PHASES:
        if phase.flag is not None:
            parser.add_argument(
                phase.flag, action="store_true", help=phase.help
            )
    parser.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="DIR",
        help="profile the run: write a manifest, a JSONL event timeline "
        "and a metrics table (phase/cell timing, cache hit rates, worker "
        "utilization) into DIR",
    )
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(
        args=args,
        wan_config=PAPER if args.scale == "paper" else QUICK,
        lan_config=PAPER_LAN if args.scale == "paper" else QUICK_LAN,
        jobs=args.jobs if args.jobs > 0 else default_jobs(),
        profile=_RunProfile(enabled=args.metrics is not None),
    )
    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or (args.out / ".trace-cache")
        cache = trace_cache.activate(cache_dir)
        print(
            f"trace cache: {cache_dir} ({cache.entries()} entries), "
            f"jobs: {ctx.jobs}",
            flush=True,
        )

    start = time.perf_counter()
    phases = selected_phases(args)
    for step, phase in enumerate(phases, start=1):
        print(f"[{step}/{len(phases)}] {phase.title}", flush=True)
        with ctx.profile.phase(phase.name):
            phase.runner(ctx)

    if cache is not None:
        print(
            f"trace cache: {cache.hits} hits, {cache.misses} misses, "
            f"{cache.entries()} entries on disk",
            flush=True,
        )
    elapsed = time.perf_counter() - start

    if ctx.profile.enabled:
        if cache is not None:
            ctx.profile.metrics.counter("cache.hits").inc(cache.hits)
            ctx.profile.metrics.counter("cache.misses").inc(cache.misses)
        ctx.profile.metrics.gauge("run.total_seconds").set(elapsed)
        _write_metrics_dir(ctx)

    print(f"done in {elapsed:.1f}s -> {args.out}/", flush=True)
    return 0


def _write_metrics_dir(ctx: RunContext) -> None:
    """Write the profiling artifacts: manifest, timeline, raw + rendered
    metrics."""
    # Imported here, not at module top: obs_report imports this module's
    # sibling renderers and keeping the dependency one-way at import time
    # avoids a cycle.
    from repro.experiments.obs_report import render_metrics

    args, metrics_dir = ctx.args, ctx.args.metrics
    metrics_dir.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(
        command="python -m repro.experiments",
        scale=args.scale,
        jobs=args.jobs,
        charts=args.charts,
        out=args.out,
        cache=not args.no_cache,
        wan_config=ctx.wan_config,
        lan_config=ctx.lan_config,
        seeds={"wan": ctx.wan_config.seed, "lan": ctx.lan_config.seed},
        **{
            phase.dest: getattr(args, phase.dest)
            for phase in PHASES
            if phase.flag is not None
        },
    )
    write_manifest(metrics_dir / "manifest.json", manifest)
    ctx.profile.recorder.write_jsonl(metrics_dir / "timeline.jsonl")
    snapshot = ctx.profile.metrics.snapshot()
    (metrics_dir / "metrics.json").write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )
    (metrics_dir / "metrics.txt").write_text(render_metrics(snapshot) + "\n")
    print(f"metrics -> {metrics_dir}/", flush=True)


if __name__ == "__main__":
    sys.exit(main())
