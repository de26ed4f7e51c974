"""repro.service — the sweep engine as a long-lived, multi-client service.

The paper's question (*which timing model should you assume?*) is
answered operationally by running many sweeps, decision queries and
robustness studies; this package turns the engine that runs them
(:mod:`repro.experiments.parallel`) into a shared service instead of a
library every caller drives alone:

- **Jobs** (:mod:`repro.service.jobs`): typed requests —
  :class:`WanSweepJob`, :class:`DecisionQuery` — each a set of pure
  cell tasks plus an assembly step, keyed by a content hash (the trace
  cache's discipline), in one of two priority classes
  (:attr:`Priority.INTERACTIVE` / :attr:`Priority.BATCH`).
- **Scheduler** (:mod:`repro.service.scheduler`):
  :class:`SweepService`, an asyncio job queue with admission control
  (bounded per-class queue depth, :class:`AdmissionRejected` with a
  reason when saturated), in-flight dedup (identical concurrent
  requests collapse to one computation; every client gets the same
  bit-identical artifact), and cell-granular priority dispatch with
  per-class concurrency budgets (an interactive query never waits
  behind more than one in-flight cell per worker).
- **Executors**: the engine's own cell backends
  (:mod:`repro.experiments.parallel`), re-exported here — serial,
  threads (the service default: shares the trace cache without
  pickling, keeps the event loop responsive) and processes.

Telemetry: the ``service.*`` instrument family (submissions, queue
depths, wait/service-time histograms per class, dedup hits, admission
rejections, per-cell timing, worker utilization) on any
:class:`repro.obs.MetricsRegistry` you pass in.

Synchronous clients use :func:`run_jobs`.
"""

from repro.experiments.parallel import (
    CellExecutor,
    ProcessCellExecutor,
    SerialCellExecutor,
    ThreadCellExecutor,
    make_cell_executor,
)
from repro.service.jobs import (
    DecisionQuery,
    JobSpec,
    Priority,
    WanSweepJob,
)
from repro.service.scheduler import (
    DEFAULT_MAX_DEPTH,
    AdmissionRejected,
    JobHandle,
    SweepService,
    run_jobs,
)

__all__ = [
    "AdmissionRejected",
    "CellExecutor",
    "DEFAULT_MAX_DEPTH",
    "DecisionQuery",
    "JobHandle",
    "JobSpec",
    "Priority",
    "ProcessCellExecutor",
    "SerialCellExecutor",
    "SweepService",
    "ThreadCellExecutor",
    "WanSweepJob",
    "make_cell_executor",
    "run_jobs",
]
