"""Integration tests for the sweep service over real executors.

The contract under test: a service-returned artifact is **bit-identical**
to the direct engine call for every job type, on the in-process thread
executor (the service default) and through the synchronous
:func:`repro.service.run_jobs` client — including with a shared trace
cache in the loop.
"""

import asyncio
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
import pytest

from repro.experiments import cache as cache_module
from repro.experiments.config import SweepConfig
from repro.experiments.figures import run_wan_sweep
from repro.experiments.parallel import ProcessCellExecutor
from repro.obs.registry import MetricsRegistry
from repro.service import (
    DecisionQuery,
    SweepService,
    ThreadCellExecutor,
    WanSweepJob,
    run_jobs,
)
from repro.service.jobs import JobSpec, Priority, _decision_cell

TINY = SweepConfig(
    rounds_per_run=30, runs=2, start_points=3, timeouts=(0.16, 0.21), seed=11
)


@pytest.fixture(autouse=True)
def no_global_cache():
    cache_module.deactivate()
    yield
    cache_module.deactivate()


def assert_stats_identical(a, b):
    """DecisionStats equality that treats NaN == NaN (censored cells)."""
    assert a.samples == b.samples
    assert a.censored == b.censored
    assert np.array_equal(a.mean_rounds, b.mean_rounds, equal_nan=True)
    assert np.array_equal(a.mean_time, b.mean_time, equal_nan=True)


def assert_sweeps_identical(a, b):
    assert a.leader == b.leader
    assert list(a.runs) == list(b.runs)
    for timeout in a.runs:
        for run_a, run_b in zip(a.runs[timeout], b.runs[timeout]):
            assert run_a.p == run_b.p
            assert run_a.matrices.dtype == run_b.matrices.dtype
            assert np.array_equal(run_a.matrices, run_b.matrices)


class TestServiceResultsMatchDirectEngine:
    def test_all_job_types_bit_identical_over_threads(self):
        metrics = MetricsRegistry()
        sweep, stats = run_jobs(
            [
                WanSweepJob(config=TINY),
                DecisionQuery(config=TINY, t_index=0, r_index=1, model="WLM"),
            ],
            workers=2,
            metrics=metrics,
        )
        assert_sweeps_identical(run_wan_sweep(TINY), sweep)
        assert_stats_identical(stats, _decision_cell(TINY, 0, 1, "WLM"))

        # The telemetry saw both jobs complete.
        assert metrics.value(
            "service.jobs", **{"class": "batch", "state": "completed"}
        ) == 1
        assert metrics.value(
            "service.jobs", **{"class": "interactive", "state": "completed"}
        ) == 1

    def test_service_shares_the_trace_cache(self, tmp_path):
        """A service run warms the cache; a second run (and the direct
        engine) resimulate nothing."""
        cache = cache_module.activate(tmp_path)
        run_jobs([WanSweepJob(config=TINY)], workers=2)
        misses_after_cold = cache.misses
        assert misses_after_cold == len(TINY.timeouts) * TINY.runs
        run_jobs([WanSweepJob(config=TINY)], workers=2)
        assert cache.misses == misses_after_cold  # warm: hits only
        assert cache.hits >= len(TINY.timeouts) * TINY.runs

    def test_concurrent_distinct_jobs_over_threads(self):
        """Many distinct jobs in flight at once, all correct."""

        async def go():
            async with SweepService(
                executor=ThreadCellExecutor(4)
            ) as service:
                handles = [
                    service.submit(
                        DecisionQuery(
                            config=TINY, t_index=t, r_index=r, model=model
                        )
                    )
                    for t in range(2)
                    for r in range(2)
                    for model in ("AFM", "WLM")
                ]
                return [await handle.result() for handle in handles]

        results = asyncio.run(go())
        expected = [
            _decision_cell(TINY, t, r, model)
            for t in range(2)
            for r in range(2)
            for model in ("AFM", "WLM")
        ]
        for got, want in zip(results, expected):
            assert_stats_identical(got, want)


def _kill_own_worker(arg):
    os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class _WorkerKillingJob(JobSpec):
    """One cell that SIGKILLs the pool worker executing it."""

    priority: Priority = Priority.BATCH

    def key(self) -> str:
        return "test:worker-killing-job"

    def cells(self):
        return [(_kill_own_worker, None)]

    def assemble(self, results):
        return results


class TestDeadPoolWorker:
    def test_service_outlives_a_killed_worker(self):
        """The job whose worker dies fails loudly; the next job on the
        same long-lived service completes, bit-identical to the serial
        engine (a broken pool used to fail every later job forever)."""

        async def go():
            async with SweepService(
                executor=ProcessCellExecutor(2)
            ) as service:
                with pytest.raises(BrokenProcessPool):
                    await service.submit(_WorkerKillingJob()).result()
                return await service.submit(WanSweepJob(config=TINY)).result()

        assert_sweeps_identical(run_wan_sweep(TINY), asyncio.run(go()))

    def test_executor_opens_a_fresh_pool_after_a_dead_worker(self):
        with ProcessCellExecutor(1) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.submit(_kill_own_worker, None).result()
            assert executor.submit(abs, -3).result() == 3
