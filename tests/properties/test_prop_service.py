"""Concurrency properties of the sweep service.

Everything here runs against the manually driven
:class:`~tests.stub_executor.StubCellExecutor`, which parks dispatched cells until the test resolves them — so
dispatch order, dedup and admission behaviour are observed
deterministically, with no real thread or process concurrency, under
Hypothesis-driven client counts and completion orders.

The three ISSUE-level properties:

1. N identical concurrent jobs → exactly one computation (and every
   client's result is the shared, bit-identical artifact);
2. the interactive class is never starved: once submitted, an
   interactive job completes within a bounded number of cell
   completions (one in-flight batch cell per worker, no more);
3. service results equal the direct engine's regardless of the order
   in which workers happen to finish cells.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import SweepConfig
from repro.experiments.figures import run_wan_sweep
from repro.obs.registry import MetricsRegistry
from repro.service import (
    AdmissionRejected,
    DecisionQuery,
    Priority,
    SweepService,
    WanSweepJob,
)

from tests.conftest import assert_sweeps_identical
from tests.stub_executor import StubCellExecutor

TINY = SweepConfig(
    rounds_per_run=20, runs=2, start_points=3, timeouts=(0.16, 0.21), seed=9
)
TINY_CELLS = len(TINY.timeouts) * TINY.runs

#: Safety valve for drive loops: no scenario here needs more steps.
MAX_STEPS = 500


async def _settle(stub):
    """Let the scheduler react to whatever the stub just resolved."""
    for _ in range(10):
        await asyncio.sleep(0)


class TestInFlightDedup:
    @settings(max_examples=10, deadline=None)
    @given(clients=st.integers(min_value=2, max_value=6))
    def test_identical_concurrent_jobs_compute_exactly_once(self, clients):
        async def go():
            stub = StubCellExecutor(workers=2)
            metrics = MetricsRegistry()
            async with SweepService(executor=stub, metrics=metrics) as svc:
                handles = [
                    svc.submit(WanSweepJob(config=TINY))
                    for _ in range(clients)
                ]
                assert sum(h.deduped for h in handles) == clients - 1
                assert len({h.key for h in handles}) == 1
                steps = 0
                while not all(h.done() for h in handles):
                    await _settle(stub)
                    stub.run_all()
                    steps += 1
                    assert steps < MAX_STEPS
                results = [await h.result() for h in handles]
            # Exactly one computation: one submission per cell, ever.
            assert stub.submitted == TINY_CELLS
            assert metrics.value(
                "service.dedup_hits", **{"class": "batch"}
            ) == clients - 1
            direct = run_wan_sweep(TINY)
            for result in results:
                assert result is results[0]  # the shared artifact
                assert_sweeps_identical(direct, result)

        asyncio.run(go())

    def test_distinct_jobs_do_not_dedup(self):
        async def go():
            stub = StubCellExecutor(workers=2)
            async with SweepService(executor=stub) as svc:
                one = svc.submit(WanSweepJob(config=TINY))
                other = svc.submit(
                    WanSweepJob(
                        config=SweepConfig(
                            rounds_per_run=20, runs=2, start_points=3,
                            timeouts=(0.16, 0.21), seed=10,
                        )
                    )
                )
                assert not other.deduped
                assert one.key != other.key
                steps = 0
                while not (one.done() and other.done()):
                    await _settle(stub)
                    stub.run_all()
                    steps += 1
                    assert steps < MAX_STEPS
                await one.result(), await other.result()
            assert stub.submitted == 2 * TINY_CELLS

        asyncio.run(go())


class TestPriorityDispatch:
    @settings(max_examples=10, deadline=None)
    @given(workers=st.integers(min_value=1, max_value=4))
    def test_interactive_never_starves_behind_batch(self, workers):
        """An interactive job completes within ``workers + 1`` cell
        completions of its submission, no matter how much batch work is
        queued ahead of it."""

        async def go():
            stub = StubCellExecutor(workers=workers)
            async with SweepService(executor=stub) as svc:
                batch = svc.submit(WanSweepJob(config=TINY))
                await _settle(stub)
                interactive = svc.submit(
                    DecisionQuery(config=TINY, t_index=0, r_index=0)
                )
                await _settle(stub)
                completions = 0
                while not interactive.done():
                    assert stub.pending, "scheduler stalled"
                    stub.run_next()
                    await _settle(stub)
                    completions += 1
                    # Worst case: every worker slot held a batch cell at
                    # submission time, plus the interactive cell itself.
                    assert completions <= workers + 1
                steps = 0
                while not batch.done():
                    stub.run_all()
                    await _settle(stub)
                    steps += 1
                    assert steps < MAX_STEPS
                await interactive.result()
                await batch.result()

        asyncio.run(go())

    def test_interactive_cell_dispatched_before_queued_batch_cells(self):
        async def go():
            stub = StubCellExecutor(workers=2)
            async with SweepService(executor=stub) as svc:
                batch = svc.submit(WanSweepJob(config=TINY))
                await _settle(stub)
                # Budget reserves one slot from batch: with 2 workers
                # only one batch cell may be in flight.
                assert len(stub.pending) == 1
                interactive = svc.submit(
                    DecisionQuery(config=TINY, t_index=0, r_index=0)
                )
                await _settle(stub)
                # The free slot went to the interactive cell, ahead of
                # the batch job's remaining cells.
                from repro.service.jobs import decision_task

                assert [task for task, _arg, _f in stub.pending][-1] is (
                    decision_task
                )
                steps = 0
                while not (batch.done() and interactive.done()):
                    stub.run_all()
                    await _settle(stub)
                    steps += 1
                    assert steps < MAX_STEPS
                await batch.result()
                await interactive.result()

        asyncio.run(go())


class TestAdmissionControl:
    def test_rejects_with_reason_when_class_queue_is_full(self):
        async def go():
            stub = StubCellExecutor(workers=1)
            metrics = MetricsRegistry()
            async with SweepService(
                executor=stub,
                metrics=metrics,
                max_depth={Priority.BATCH: 2},
            ) as svc:
                seeds = iter(range(100, 200))
                jobs = [
                    svc.submit(
                        WanSweepJob(
                            config=SweepConfig(
                                rounds_per_run=20, runs=1, start_points=3,
                                timeouts=(0.16,), seed=next(seeds),
                            )
                        )
                    )
                    for _ in range(2)
                ]
                with pytest.raises(AdmissionRejected) as excinfo:
                    svc.submit(
                        WanSweepJob(
                            config=SweepConfig(
                                rounds_per_run=20, runs=1, start_points=3,
                                timeouts=(0.16,), seed=next(seeds),
                            )
                        )
                    )
                assert excinfo.value.reason == "queue_full"
                assert excinfo.value.priority is Priority.BATCH
                assert metrics.value(
                    "service.admission_rejections",
                    **{"class": "batch", "reason": "queue_full"},
                ) == 1
                # A duplicate of an admitted job still joins it: dedup
                # does not consume queue depth.
                dup = svc.submit(
                    WanSweepJob(
                        config=SweepConfig(
                            rounds_per_run=20, runs=1, start_points=3,
                            timeouts=(0.16,), seed=100,
                        )
                    )
                )
                assert dup.deduped
                steps = 0
                while not all(j.done() for j in jobs):
                    stub.run_all()
                    await _settle(stub)
                    steps += 1
                    assert steps < MAX_STEPS
                for j in jobs:
                    await j.result()

        asyncio.run(go())

    def test_closed_service_rejects(self):
        async def go():
            svc = SweepService(executor=StubCellExecutor(workers=1))
            await svc.close()
            with pytest.raises(AdmissionRejected) as excinfo:
                svc.submit(WanSweepJob(config=TINY))
            assert excinfo.value.reason == "closed"

        asyncio.run(go())


class TestCompletionOrderIndependence:
    @settings(max_examples=8, deadline=None)
    @given(order_seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_results_identical_under_random_completion_orders(
        self, order_seed
    ):
        """Whatever order workers finish cells in, the assembled sweep
        equals the direct engine call bit for bit."""

        async def go():
            rng = np.random.default_rng(order_seed)
            stub = StubCellExecutor(workers=3)
            async with SweepService(executor=stub) as svc:
                batch = svc.submit(WanSweepJob(config=TINY))
                interactive = svc.submit(
                    DecisionQuery(config=TINY, t_index=1, r_index=1)
                )
                steps = 0
                while not (batch.done() and interactive.done()):
                    await _settle(stub)
                    if stub.pending:
                        stub.run_next(int(rng.integers(len(stub.pending))))
                    steps += 1
                    assert steps < MAX_STEPS
                sweep = await batch.result()
                stats = await interactive.result()
            assert_sweeps_identical(run_wan_sweep(TINY), sweep)
            assert stats.samples > 0

        asyncio.run(go())


class TestFailurePropagation:
    def test_cell_failure_fails_the_job_but_not_the_service(self):
        async def go():
            stub = StubCellExecutor(workers=1)
            async with SweepService(executor=stub) as svc:
                doomed = svc.submit(WanSweepJob(config=TINY))
                await _settle(stub)
                stub.fail_next(RuntimeError("worker lost"))
                await _settle(stub)
                with pytest.raises(RuntimeError, match="worker lost"):
                    await doomed.result()
                # The service keeps serving: the key is free again and a
                # resubmission computes from scratch.
                retry = svc.submit(WanSweepJob(config=TINY))
                assert not retry.deduped
                steps = 0
                while not retry.done():
                    await _settle(stub)
                    stub.run_all()
                    steps += 1
                    assert steps < MAX_STEPS
                assert_sweeps_identical(
                    run_wan_sweep(TINY), await retry.result()
                )

        asyncio.run(go())
