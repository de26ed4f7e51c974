"""repro.obs — run telemetry for the event stack and the experiment pipeline.

The paper's argument is a *measurement* argument: which links were timely,
what each model's rounds cost (Section 5, Figure 1).  This package makes
that measurement a first-class object for the reproduction itself:

- :class:`MetricsRegistry` — named counters / gauges / histograms with a
  cheap no-op path when telemetry is off (:data:`NULL_METRICS`).  The
  event-driven transport, the round-synchronization protocol, the Ω
  implementation and the fault injectors are instrumented against it.
- :class:`RunRecorder` — the experiments CLI's phase timeline, a
  structured JSONL event log, plus a run manifest (config, seeds,
  package version), so any run can be replayed and diffed.

Instrument families, by prefix: ``transport.*`` (sends, deliveries,
latency, drops by cause), ``sync.*`` (round starts, jumps, timeouts,
sync error), ``omega.*`` (suspicions, leader changes), ``faults.*``
(activations), ``check.*`` (invariant violations), ``sweep.*`` and
``run.*`` (per-cell/per-phase timing, cache hit rates, worker
utilization), and ``service.*`` (the sweep service,
:mod:`repro.service`: submissions, per-class queue depths,
wait/service-time histograms, dedup hits, admission rejections by
reason, cells executed, worker utilization), and ``adaptive.*`` (online
model selection, :mod:`repro.adaptive`: window size, rounds observed,
per-model decision-time estimates, switches, the running timeout, and
regret versus the best fixed configuration).

Everything here is stdlib-only; no instrumented module pays more than a
method call on a singleton when telemetry is disabled.
"""

from repro.obs.recorder import (
    RunRecorder,
    build_manifest,
    read_jsonl,
    read_manifest,
    write_manifest,
)
from repro.obs.registry import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry_or_null,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "RunRecorder",
    "build_manifest",
    "read_jsonl",
    "read_manifest",
    "registry_or_null",
    "write_manifest",
]
