"""Parallel sweep execution engine.

The measurement sweeps are embarrassingly parallel: every (timeout, run)
cell derives its own seed (:meth:`SweepConfig.run_seed`) and samples its
own trace, so cells can execute in any order on any worker without
changing a single bit of the result.  This module fans the WAN sweep and
the LAN figure out over a pluggable :class:`CellExecutor` with one task
per cell and reassembles the results in the serial order —
``run_wan_sweep_parallel(config, jobs=k)`` equals ``run_wan_sweep(config)``
exactly, for any ``k``.

Executors and cells-as-tasks
----------------------------

Execution is factored into two layers so other schedulers (notably the
sweep service, :mod:`repro.service`) can reuse the engine's work unit:

- **Cells as tasks**: :func:`cell_grid` enumerates the ``(config,
  t_index, r_index)`` arguments, :func:`wan_task`/:func:`lan_task` are
  the picklable per-cell functions returning a :class:`CellOutcome`
  (result + worker-side profile), and :func:`assemble_wan_sweep` /
  :func:`assemble_lan_figure` rebuild the serial-order artifacts.
- **Executors**: :class:`SerialCellExecutor` (in-process, inline),
  :class:`ThreadCellExecutor` (in-process, concurrent) and
  :class:`ProcessCellExecutor` (one process per worker) share the
  ``submit(task, arg) -> Future`` surface.  All of them use the
  process-wide active trace cache (:mod:`repro.experiments.cache`): the
  in-process executors as it is, process workers by re-activating its
  root in a pool initializer.  Cache writes are atomic, so racing
  workers are safe.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, NamedTuple, Optional, Sequence, TypeVar

from repro.experiments import cache as trace_cache
from repro.experiments.config import QUICK, QUICK_LAN, SweepConfig
from repro.experiments.figures import (
    FigureSeries,
    LanCell,
    WanRun,
    WanSweep,
    figure_1c,
    lan_cell,
    wan_cell,
)
from repro.net.planetlab import LEADER_NODE
from repro.obs.registry import MetricsRegistry, registry_or_null

_CellResult = TypeVar("_CellResult")

#: ``progress(done_cells, total_cells)``, invoked after every finished cell.
ProgressCallback = Callable[[int, int], None]

#: One cell's picklable argument tuple: ``(config, t_index, r_index)``.
CellArgs = tuple[SweepConfig, int, int]


class CellOutcome(NamedTuple):
    """One cell's result plus its worker-side profile.

    The profile rides back with the result so the parent can aggregate
    per-cell timing and cache behaviour without touching the result
    itself — the unwrapped results stay bit-identical to the serial
    engine's.
    """

    result: Any
    seconds: float
    cache_hits: int
    cache_misses: int


def _profiled(compute: Callable[[], _CellResult]) -> "CellOutcome":
    """Run one cell, measuring wall time and trace-cache hits/misses."""
    active = trace_cache.active_cache()
    hits0 = active.hits if active is not None else 0
    misses0 = active.misses if active is not None else 0
    begin = time.perf_counter()
    result = compute()
    seconds = time.perf_counter() - begin
    active = trace_cache.active_cache()
    hits = (active.hits - hits0) if active is not None else 0
    misses = (active.misses - misses0) if active is not None else 0
    return CellOutcome(result, seconds, hits, misses)


def default_jobs() -> int:
    """Worker count when the caller asks for "auto" (one per CPU)."""
    return max(1, os.cpu_count() or 1)


def _init_worker(root: Optional[str]) -> None:
    """Pool initializer: re-activate the parent's trace cache."""
    if root is not None:
        trace_cache.activate(root)


def wan_task(args: CellArgs) -> CellOutcome:
    """Compute one WAN sweep cell (picklable; see :func:`wan_cell`)."""
    config, t_index, r_index = args
    return _profiled(lambda: wan_cell(config, t_index, r_index))


def lan_task(args: CellArgs) -> CellOutcome:
    """Compute one LAN figure cell (picklable; see :func:`lan_cell`)."""
    config, t_index, r_index = args
    return _profiled(lambda: lan_cell(config, t_index, r_index))


# ----------------------------------------------------------------------
# Cells as tasks.
# ----------------------------------------------------------------------
def cell_grid(config: SweepConfig) -> list[CellArgs]:
    """Every ``(config, t_index, r_index)`` cell, in serial order."""
    return [
        (config, t_index, r_index)
        for t_index in range(len(config.timeouts))
        for r_index in range(config.runs)
    ]


def wan_cell_tasks(
    config: SweepConfig,
) -> list[tuple[Callable[[CellArgs], CellOutcome], CellArgs]]:
    """The WAN sweep as independent ``(task, args)`` pairs."""
    return [(wan_task, cell) for cell in cell_grid(config)]


def rows_from_flat(flat: Sequence[Any], config: SweepConfig) -> list[list[Any]]:
    """Reshape serial-order flat cell results to ``rows[t_index][r_index]``."""
    return [
        list(flat[t_index * config.runs : (t_index + 1) * config.runs])
        for t_index in range(len(config.timeouts))
    ]


def assemble_wan_sweep(
    config: SweepConfig, leader: int, rows: Sequence[Sequence[WanRun]]
) -> WanSweep:
    """Rebuild a :class:`WanSweep` from per-cell results in serial order."""
    sweep = WanSweep(config=config, leader=leader)
    for t_index, timeout in enumerate(config.timeouts):
        sweep.runs[timeout] = list(rows[t_index])
    return sweep


def assemble_lan_figure(
    config: SweepConfig, rows: Sequence[Sequence[LanCell]]
) -> FigureSeries:
    """Rebuild figure 1(c) from per-cell results in serial order."""
    return figure_1c(config, cells=rows)


# ----------------------------------------------------------------------
# Executors.
# ----------------------------------------------------------------------
class CellExecutor:
    """Pluggable backend executing cell tasks.

    The contract: ``submit(task, arg)`` returns a
    :class:`concurrent.futures.Future` resolving to ``task(arg)``; the
    executor is a context manager whose exit releases its resources.
    ``workers`` is the concurrency the scheduler may assume; ``inline``
    marks executors whose ``submit`` computes synchronously (so callers
    can interleave submission with consumption for streaming progress).
    """

    workers: int = 1
    inline: bool = False

    def submit(self, task: Callable[[Any], Any], arg: Any) -> Future:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release resources (idempotent)."""

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


class SerialCellExecutor(CellExecutor):
    """In-process executor: ``submit`` runs the task inline.

    This is the ``jobs=1`` path — no pool, no threads, useful for
    spying/debugging.
    """

    workers = 1
    inline = True

    def submit(self, task: Callable[[Any], Any], arg: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(task(arg))
        except BaseException as exc:  # the future carries the failure
            future.set_exception(exc)
        return future


class ThreadCellExecutor(CellExecutor):
    """In-process concurrent executor over a thread pool.

    Cells are pure functions, so threads preserve bit-identical results;
    NumPy releases the GIL across the heavy sampling kernels.  This is
    the sweep service's default backend: it shares the process-wide
    trace cache without pickling and keeps the event loop responsive.
    (Per-cell cache hit/miss attribution is approximate under threads —
    the counters are shared — but totals are exact on the cache object
    itself: it counts under the lock that guards its index.)
    """

    inline = False

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(1, int(workers))
        self._pool: Optional[ThreadPoolExecutor] = None

    def submit(self, task: Callable[[Any], Any], arg: Any) -> Future:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool.submit(task, arg)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessCellExecutor(CellExecutor):
    """One worker process per slot; workers inherit the trace cache.

    The pool initializer re-activates, in every worker, the root of the
    cache that is active when the pool opens, so a warm cache is shared
    across processes.
    """

    inline = False

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._pool: Optional[ProcessPoolExecutor] = None

    def submit(self, task: Callable[[Any], Any], arg: Any) -> Future:
        try:
            return self._open_pool().submit(task, arg)
        except BrokenProcessPool:
            # A worker died.  The cells it took down have already failed
            # with this error, but a broken pool refuses every later
            # submit too: discard it so the executor outlives the fault.
            self.shutdown()
            return self._open_pool().submit(task, arg)

    def _open_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            active = trace_cache.active_cache()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(str(active.root) if active is not None else None,),
            )
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_cell_executor(jobs: Optional[int]) -> CellExecutor:
    """The engine's executor choice for a ``--jobs`` value.

    ``None``/``<=0`` means one process per CPU; ``1`` runs in-process
    (no pool).
    """
    if jobs is None or jobs <= 0:
        jobs = default_jobs()
    if jobs == 1:
        return SerialCellExecutor()
    return ProcessCellExecutor(jobs)


def _map_cells(
    task: Callable[[CellArgs], CellOutcome],
    config: SweepConfig,
    jobs: Optional[int],
    progress: Optional[ProgressCallback],
    metrics: Optional[MetricsRegistry] = None,
    phase: str = "sweep",
) -> list[list[Any]]:
    """Evaluate every (timeout, run) cell on the executor for ``jobs``.

    Returns ``results[t_index][r_index]`` in the serial iteration order
    regardless of completion order.  When ``metrics`` is given, per-cell
    wall time, trace-cache hit/miss counts and worker utilization are
    aggregated under the ``phase`` label; the results themselves are
    untouched.
    """
    executor = make_cell_executor(jobs)
    metrics = registry_or_null(metrics)
    cell_seconds = metrics.histogram("sweep.cell_seconds", phase=phase)
    cache_hits = metrics.counter("sweep.cache_hits", phase=phase)
    cache_misses = metrics.counter("sweep.cache_misses", phase=phase)
    cells = cell_grid(config)
    total = len(cells)
    busy = 0.0
    begin = time.perf_counter()
    flat: list[Any] = []

    # Cells run in worker processes count on the workers' copies of the
    # trace cache; their profiles credit this process's, which is the
    # one the run reports from.
    remote = isinstance(executor, ProcessCellExecutor)
    active = trace_cache.active_cache()

    def consume(outcome: CellOutcome) -> None:
        nonlocal busy
        flat.append(outcome.result)
        busy += outcome.seconds
        cell_seconds.observe(outcome.seconds)
        cache_hits.inc(outcome.cache_hits)
        cache_misses.inc(outcome.cache_misses)
        if remote and active is not None:
            active.hits += outcome.cache_hits
            active.misses += outcome.cache_misses

    with executor:
        if executor.inline:
            # Inline submit computes immediately: interleave so progress
            # streams during the sweep instead of arriving at the end.
            for done, cell in enumerate(cells, start=1):
                consume(executor.submit(task, cell).result())
                if progress is not None:
                    progress(done, total)
        else:
            futures = [executor.submit(task, cell) for cell in cells]
            for done, future in enumerate(futures, start=1):
                consume(future.result())
                if progress is not None:
                    progress(done, total)
    elapsed = time.perf_counter() - begin
    if elapsed > 0:
        # Fraction of the pool's capacity spent inside cells: ~1.0 means
        # the workers were saturated, low values mean dispatch overhead
        # or stragglers dominated.
        metrics.gauge("sweep.worker_utilization", phase=phase).set(
            min(1.0, busy / (elapsed * executor.workers))
        )
    metrics.gauge("sweep.elapsed_seconds", phase=phase).set(elapsed)
    return rows_from_flat(flat, config)


def run_wan_sweep_parallel(
    config: SweepConfig = QUICK,
    leader: int = LEADER_NODE,
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> WanSweep:
    """:func:`~repro.experiments.figures.run_wan_sweep`, one process per
    cell batch; bit-identical to the serial engine.

    Args:
        jobs: worker processes; ``None``/``0`` means one per CPU, ``1``
            runs in-process (no pool) — useful for spying/debugging.
        progress: ``progress(done, total)`` called per finished cell.
        metrics: optional registry receiving per-cell timing, cache
            hit/miss counts and worker utilization (``phase=wan``).
    """
    rows = _map_cells(
        wan_task, config, jobs, progress, metrics, phase="wan"
    )
    return assemble_wan_sweep(config, leader, rows)


def figure_1c_parallel(
    config: SweepConfig = QUICK_LAN,
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> FigureSeries:
    """:func:`~repro.experiments.figures.figure_1c` with parallel cells;
    bit-identical to the serial figure."""
    rows = _map_cells(
        lan_task, config, jobs, progress, metrics, phase="lan"
    )
    return assemble_lan_figure(config, rows)
