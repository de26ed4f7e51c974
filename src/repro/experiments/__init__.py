"""The figure-by-figure evaluation harness (Section 4.2 and Section 5).

Each ``figure_1x`` function regenerates the data behind one panel of the
paper's Figure 1; DESIGN.md maps panels to benchmarks.  Two scales are
provided: ``QUICK`` (seconds, used by default in the benchmark suite) and
``PAPER`` (the paper's 33-runs-by-300-rounds protocol; minutes).

- :mod:`config` — sweep configurations.
- :mod:`measurement` — trace generation and per-model satisfaction.
- :mod:`decision` — rounds/time-to-global-decision from random starts.
- :mod:`figures` — ``figure_1a`` ... ``figure_1i``.
- :mod:`parallel` — multi-process sweep engine (bit-identical to serial).
- :mod:`cache` — on-disk cache of the cells' timely graphs, shared by both engines.
- :mod:`report` — plain-text rendering of results.
- :mod:`selection` — the paper's question as an API
  (:func:`~repro.experiments.selection.choose_timing_model`).

The package re-exports only what the plain CLI loads anyway; the engine
and the selector are imported from their modules.
"""

from repro.experiments.config import SweepConfig, QUICK, PAPER
from repro.experiments.measurement import (
    TRACE_SAMPLER_VERSION,
    sample_latency_trace,
    sample_latency_trace_scalar,
    sample_wan_trace,
    sample_lan_trace,
    measured_p,
    model_satisfaction,
)
from repro.experiments.decision import decision_stats, DecisionStats
from repro.experiments.figures import (
    run_wan_sweep,
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
    FigureSeries,
)
from repro.experiments.cache import TraceCache, cached_timely
from repro.experiments.report import render_series, render_comparison

__all__ = [
    "SweepConfig",
    "QUICK",
    "PAPER",
    "TRACE_SAMPLER_VERSION",
    "sample_latency_trace",
    "sample_latency_trace_scalar",
    "sample_wan_trace",
    "sample_lan_trace",
    "measured_p",
    "model_satisfaction",
    "decision_stats",
    "DecisionStats",
    "figure_1a",
    "figure_1b",
    "figure_1c",
    "figure_1d",
    "figure_1e",
    "figure_1f",
    "figure_1g",
    "figure_1h",
    "figure_1i",
    "FigureSeries",
    "run_wan_sweep",
    "TraceCache",
    "cached_timely",
    "WanSweep",
    "render_series",
    "render_comparison",
]
