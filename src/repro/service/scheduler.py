"""The asyncio job queue: admission control, dedup, priority dispatch.

:class:`SweepService` is a long-lived scheduler wrapping the sweep
engine.  Clients :meth:`~SweepService.submit` typed jobs
(:mod:`repro.service.jobs`) and await their results; the service

- **admits or rejects**: each priority class has a bounded queue depth
  (unfinished jobs); past it, submission raises
  :class:`AdmissionRejected` with the reason, instead of letting the
  backlog grow without bound;
- **dedupes in flight**: a job whose content key equals an unfinished
  job's joins that job's future instead of recomputing — two identical
  concurrent sweeps are one computation, and both clients receive the
  same bit-identical artifact;
- **schedules cells, not jobs**: a job is dispatched one cell at a
  time, interactive class first, subject to per-class concurrency
  budgets — so a short interactive query overtakes a paper-scale batch
  sweep at the next free worker slot instead of queueing behind the
  whole sweep (worst-case head-of-line wait: one cell per worker);
- **executes on the engine's executors**: cells run on a
  :class:`~repro.experiments.parallel.CellExecutor` (in-process
  threads by default; inline or a process pool equally);
- **emits telemetry**: the ``service.*`` instrument family on a
  :class:`~repro.obs.registry.MetricsRegistry` — per-class queue
  depths, wait/service-time histograms, dedup hits, admission
  rejections, per-cell timing and worker utilization.

Threading model: every piece of scheduler state (including the metrics
registry, which is deliberately not thread-safe) is touched only from
the event-loop thread; worker results re-enter the loop through
``asyncio.wrap_future``.  All timing uses ``time.perf_counter`` — the
service must keep honest latency accounting even while
:mod:`repro.faults` steps the wall clock in the same process.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Callable, Dict, Optional, Sequence

from repro.experiments.parallel import (
    CellExecutor,
    CellOutcome,
    ThreadCellExecutor,
)
from repro.obs.registry import MetricsRegistry, registry_or_null
from repro.service.jobs import JobSpec, Priority

#: Default bound on unfinished jobs per class; past it, submissions are
#: rejected with reason ``queue_full``.
DEFAULT_MAX_DEPTH = {Priority.INTERACTIVE: 64, Priority.BATCH: 8}


class AdmissionRejected(RuntimeError):
    """A submission the service refused, with a machine-readable reason."""

    def __init__(self, reason: str, priority: Priority, detail: str = "") -> None:
        message = f"admission rejected ({priority.value}): {reason}"
        if detail:
            message += f" — {detail}"
        super().__init__(message)
        self.reason = reason
        self.priority = priority


class _JobRecord:
    """Scheduler-internal state of one admitted (possibly shared) job."""

    __slots__ = (
        "spec",
        "key",
        "priority",
        "cells",
        "results",
        "next_cell",
        "done_cells",
        "submitted",
        "started",
        "failed",
        "retired",
        "future",
        "clients",
    )

    def __init__(
        self,
        spec: JobSpec,
        key: str,
        cells: Sequence,
        submitted: float,
        future: "asyncio.Future[Any]",
    ) -> None:
        self.spec = spec
        self.key = key
        self.priority = spec.priority
        self.cells = list(cells)
        self.results: list[Any] = [None] * len(self.cells)
        self.next_cell = 0
        self.done_cells = 0
        self.submitted = submitted
        self.started: Optional[float] = None
        self.failed = False
        self.retired = False
        self.future = future
        self.clients = 1

    @property
    def dispatchable(self) -> bool:
        return not self.failed and self.next_cell < len(self.cells)


class JobHandle:
    """A client's view of one submitted (possibly deduplicated) job."""

    def __init__(self, record: _JobRecord, deduped: bool) -> None:
        self._record = record
        #: True when this submission joined an identical in-flight job.
        self.deduped = deduped

    @property
    def key(self) -> str:
        """The job's content-hash dedup key."""
        return self._record.key

    @property
    def priority(self) -> Priority:
        return self._record.priority

    def done(self) -> bool:
        return self._record.future.done()

    async def result(self) -> Any:
        """Await the job's artifact (shared across deduped handles)."""
        return await asyncio.shield(self._record.future)


class SweepService:
    """The long-lived job queue; see the module docstring.

    Args:
        executor: cell backend; defaults to an in-process
            :class:`ThreadCellExecutor` with ``workers`` threads.  The
            service owns whichever executor it uses: it is entered on
            ``__aenter__`` and shut down on :meth:`close`.
        workers: thread count for the default executor (ignored when
            ``executor`` is given).
        max_depth: per-class admission bound on unfinished jobs
            (:data:`DEFAULT_MAX_DEPTH`).
        priorities: when ``False``, dispatch is a single FIFO over
            arrival order with no class budgets — the no-priority
            baseline the service benchmark compares against.
        metrics: optional registry receiving the ``service.*`` family.

    The per-class cap on concurrently executing cells reserves one
    worker slot from the batch class (``{INTERACTIVE: W, BATCH: max(1,
    W - 1)}``), trading a sliver of batch throughput for an always-free
    slot under a sustained interactive stream.

    All methods must be called from the event-loop thread.
    """

    def __init__(
        self,
        executor: Optional[CellExecutor] = None,
        *,
        workers: Optional[int] = None,
        max_depth: Optional[Dict[Priority, int]] = None,
        priorities: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if executor is None:
            executor = ThreadCellExecutor(workers if workers else 2)
        self._executor = executor
        slots = executor.workers
        self._budgets = {
            Priority.INTERACTIVE: slots,
            Priority.BATCH: max(1, slots - 1),
        }
        self._max_depth = dict(DEFAULT_MAX_DEPTH)
        if max_depth:
            self._max_depth.update(max_depth)
        self._priorities = priorities
        self._metrics = registry_or_null(metrics)

        self._inflight: Dict[str, _JobRecord] = {}
        self._queues: Dict[Priority, deque] = {
            Priority.INTERACTIVE: deque(),
            Priority.BATCH: deque(),
        }
        self._arrival: deque = deque()  # FIFO order, for priorities=False
        self._depth = {Priority.INTERACTIVE: 0, Priority.BATCH: 0}
        self._cells_in_flight = {Priority.INTERACTIVE: 0, Priority.BATCH: 0}
        self._total_in_flight = 0
        self._busy_seconds = 0.0
        self._first_submit: Optional[float] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Client surface.
    # ------------------------------------------------------------------
    def submit(self, job: JobSpec) -> JobHandle:
        """Admit ``job`` (or join an identical in-flight one).

        Returns a :class:`JobHandle`; raises :class:`AdmissionRejected`
        when the service is closed or the class's queue is at depth.
        """
        priority = job.priority
        self._metrics.counter(
            "service.submitted", **{"class": priority.value}
        ).inc()
        if self._closed:
            self._reject("closed", priority, "service is shut down")
        key = job.key()
        existing = self._inflight.get(key)
        if existing is not None:
            existing.clients += 1
            self._metrics.counter(
                "service.dedup_hits", **{"class": priority.value}
            ).inc()
            return JobHandle(existing, deduped=True)
        depth = self._depth[priority]
        limit = self._max_depth[priority]
        if depth >= limit:
            self._reject(
                "queue_full",
                priority,
                f"{depth} unfinished {priority.value} jobs at limit {limit}",
            )

        now = time.perf_counter()
        if self._first_submit is None:
            self._first_submit = now
        future: asyncio.Future[Any] = (
            asyncio.get_running_loop().create_future()
        )
        record = _JobRecord(job, key, job.cells(), now, future)
        self._inflight[key] = record
        self._depth[priority] += 1
        self._set_depth_gauges()
        if not record.cells:
            # Nothing to execute: assemble immediately (still a real
            # job for dedup/metrics purposes).
            record.started = now
            self._observe_wait(record)
            self._finish(record)
        else:
            # Only the structure the active mode scans is populated —
            # the other would never be popped and grow without bound in
            # a long-lived service.
            if self._priorities:
                self._queues[priority].append(record)
            else:
                self._arrival.append(record)
            self._dispatch()
        return JobHandle(record, deduped=False)

    async def drain(self) -> None:
        """Wait until every admitted job has finished (or failed)."""
        while self._inflight:
            futures = [
                record.future for record in list(self._inflight.values())
            ]
            await asyncio.gather(*futures, return_exceptions=True)

    async def close(self) -> None:
        """Stop admitting, drain, record utilization, release the executor."""
        self._closed = True
        await self.drain()
        if self._first_submit is not None:
            elapsed = time.perf_counter() - self._first_submit
            if elapsed > 0:
                self._metrics.gauge("service.worker_utilization").set(
                    min(
                        1.0,
                        self._busy_seconds
                        / (elapsed * self._executor.workers),
                    )
                )
        self._executor.__exit__(None, None, None)

    async def __aenter__(self) -> "SweepService":
        self._executor.__enter__()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Scheduling internals.
    # ------------------------------------------------------------------
    def _reject(self, reason: str, priority: Priority, detail: str) -> None:
        self._metrics.counter(
            "service.admission_rejections",
            **{"class": priority.value, "reason": reason},
        ).inc()
        raise AdmissionRejected(reason, priority, detail)

    def _set_depth_gauges(self) -> None:
        for priority, depth in self._depth.items():
            self._metrics.gauge(
                "service.queue_depth", **{"class": priority.value}
            ).set(depth)

    def _scan_order(self):
        if self._priorities:
            yield from (
                (self._budgets[cls], self._queues[cls])
                for cls in (Priority.INTERACTIVE, Priority.BATCH)
            )
        else:
            yield self._executor.workers, self._arrival

    def _next_record(self) -> Optional[_JobRecord]:
        """The highest-priority record with a runnable cell, or ``None``."""
        for budget, queue in self._scan_order():
            while queue and not queue[0].dispatchable:
                queue.popleft()
            if not queue:
                continue
            record = queue[0]
            if (
                self._priorities
                and self._cells_in_flight[record.priority] >= budget
            ):
                continue
            return record
        return None

    def _dispatch(self) -> None:
        loop = asyncio.get_running_loop()
        while self._total_in_flight < self._executor.workers:
            record = self._next_record()
            if record is None:
                break
            index = record.next_cell
            record.next_cell += 1
            if record.started is None:
                record.started = time.perf_counter()
                self._observe_wait(record)
            self._cells_in_flight[record.priority] += 1
            self._total_in_flight += 1
            task, arg = record.cells[index]
            loop.create_task(self._run_cell(record, index, task, arg))

    async def _run_cell(
        self, record: _JobRecord, index: int, task: Callable, arg: Any
    ) -> None:
        label = {"class": record.priority.value}
        error: Optional[BaseException] = None
        outcome: Optional[CellOutcome] = None
        try:
            outcome = await asyncio.wrap_future(
                self._executor.submit(task, arg)
            )
        except BaseException as exc:  # a failed cell fails its job
            error = exc
        self._cells_in_flight[record.priority] -= 1
        self._total_in_flight -= 1
        if error is not None:
            self._fail(record, error)
        elif not record.retired:
            record.results[index] = outcome.result
            self._busy_seconds += outcome.seconds
            self._metrics.histogram(
                "service.cell_seconds", **label
            ).observe(outcome.seconds)
            self._metrics.counter("service.cache_hits", **label).inc(
                outcome.cache_hits
            )
            self._metrics.counter("service.cache_misses", **label).inc(
                outcome.cache_misses
            )
            self._metrics.counter("service.cells_executed", **label).inc()
            record.done_cells += 1
            if record.done_cells == len(record.cells):
                self._finish(record)
        self._dispatch()

    def _finish(self, record: _JobRecord) -> None:
        try:
            value = record.spec.assemble(record.results)
        except BaseException as exc:
            self._fail(record, exc)
            return
        started = record.started if record.started is not None else record.submitted
        self._metrics.histogram(
            "service.service_seconds", **{"class": record.priority.value}
        ).observe(time.perf_counter() - started)
        self._metrics.counter(
            "service.jobs",
            **{"class": record.priority.value, "state": "completed"},
        ).inc()
        self._retire(record)
        if not record.future.done():
            record.future.set_result(value)

    def _fail(self, record: _JobRecord, exc: BaseException) -> None:
        if record.retired:
            return
        record.failed = True
        self._metrics.counter(
            "service.jobs",
            **{"class": record.priority.value, "state": "failed"},
        ).inc()
        self._retire(record)
        if not record.future.done():
            record.future.set_exception(exc)

    def _retire(self, record: _JobRecord) -> None:
        if record.retired:
            return
        record.retired = True
        self._inflight.pop(record.key, None)
        self._depth[record.priority] -= 1
        self._set_depth_gauges()

    def _observe_wait(self, record: _JobRecord) -> None:
        self._metrics.histogram(
            "service.wait_seconds", **{"class": record.priority.value}
        ).observe(record.started - record.submitted)


def run_jobs(
    jobs: Sequence[JobSpec],
    *,
    executor: Optional[CellExecutor] = None,
    workers: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> list[Any]:
    """Synchronous client: run ``jobs`` through a fresh service.

    Submits everything up front (so dedup and priorities apply across
    the set), awaits all results in submission order, and closes the
    service.
    """

    async def _go() -> list[Any]:
        async with SweepService(
            executor=executor, workers=workers, metrics=metrics
        ) as service:
            handles = [service.submit(job) for job in jobs]
            return [await handle.result() for handle in handles]

    return asyncio.run(_go())
