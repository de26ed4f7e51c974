"""Integration tests for the parallel sweep engine and the trace cache.

The two ISSUE-level guarantees:

1. the parallel engine produces *byte-identical* ``WanSweep`` results to
   the serial path for ``QUICK``;
2. with a warmed cache, a repeat of the full sweep set performs zero
   trace re-simulations (spied on ``sample_wan_trace``/``sample_lan_trace``).
"""

import numpy as np
import pytest

from repro.experiments import cache as cache_module
from repro.experiments import measurement
from repro.experiments.config import QUICK, SweepConfig
from repro.experiments.figures import figure_1c, run_wan_sweep
from repro.experiments.parallel import (
    figure_1c_parallel,
    run_wan_sweep_parallel,
)

TINY_LAN = SweepConfig(
    rounds_per_run=40,
    runs=2,
    start_points=3,
    timeouts=(0.0002, 0.0009),
    seed=5,
)


@pytest.fixture(autouse=True)
def no_global_cache():
    cache_module.deactivate()
    yield
    cache_module.deactivate()


def assert_sweeps_identical(a, b):
    assert a.leader == b.leader
    assert list(a.runs) == list(b.runs)
    for timeout in a.runs:
        for run_a, run_b in zip(a.runs[timeout], b.runs[timeout]):
            assert run_a.p == run_b.p
            assert run_a.matrices.dtype == run_b.matrices.dtype
            assert np.array_equal(run_a.matrices, run_b.matrices)


class TestParallelDeterminism:
    def test_wan_sweep_parallel_matches_serial_for_quick(self):
        serial = run_wan_sweep(QUICK)
        parallel = run_wan_sweep_parallel(QUICK, jobs=2)
        assert_sweeps_identical(serial, parallel)

    def test_sweep_still_matches_its_twin_after_figures_were_drawn(self):
        """The per-model tables a sweep fills while figures are drawn from
        it are derived data: the twin that drew nothing still matches, and
        draws the same figures."""
        from repro.experiments.figures import figure_1e, figure_1h, figure_1i
        from repro.experiments.report import render_series

        tiny = SweepConfig(
            rounds_per_run=30, runs=2, start_points=3,
            timeouts=(0.16, 0.21), seed=11,
        )
        serial = run_wan_sweep(tiny)
        parallel = run_wan_sweep_parallel(tiny, jobs=2)
        panels = (figure_1e, figure_1h, figure_1i)
        drawn = [render_series(panel(sweep=serial)) for panel in panels]
        assert_sweeps_identical(serial, parallel)
        assert drawn == [
            render_series(panel(sweep=parallel)) for panel in panels
        ]

    def test_in_process_jobs_1_path_matches_pool(self):
        tiny = SweepConfig(
            rounds_per_run=30, runs=2, start_points=3,
            timeouts=(0.16, 0.21), seed=11,
        )
        assert_sweeps_identical(
            run_wan_sweep_parallel(tiny, jobs=1),
            run_wan_sweep_parallel(tiny, jobs=2),
        )

    def test_figure_1c_parallel_matches_serial(self):
        serial = figure_1c(TINY_LAN)
        parallel = figure_1c_parallel(TINY_LAN, jobs=2)
        assert serial.x == parallel.x
        assert serial.series == parallel.series
        assert serial.notes == parallel.notes

    def test_progress_callback_sees_every_cell(self):
        tiny = SweepConfig(
            rounds_per_run=20, runs=3, start_points=3,
            timeouts=(0.16, 0.21), seed=4,
        )
        seen = []
        run_wan_sweep_parallel(tiny, jobs=1, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(i, 6) for i in range(1, 7)]


class TestWarmedCache:
    def test_repeat_sweeps_perform_zero_resimulation(self, tmp_path, monkeypatch):
        tiny = SweepConfig(
            rounds_per_run=30, runs=2, start_points=3,
            timeouts=(0.16, 0.21), seed=8,
        )
        cache_module.activate(tmp_path)
        cold = run_wan_sweep(tiny)
        cold_lan = figure_1c(TINY_LAN)

        def forbidden(*args, **kwargs):
            raise AssertionError("trace re-simulated despite warm cache")

        monkeypatch.setattr(measurement, "sample_wan_trace", forbidden)
        monkeypatch.setattr(measurement, "sample_lan_trace", forbidden)

        warm = run_wan_sweep(tiny)
        warm_lan = figure_1c(TINY_LAN)
        assert_sweeps_identical(cold, warm)
        assert cold_lan.series == warm_lan.series

    def test_warm_cache_serves_the_parallel_engine_too(self, tmp_path, monkeypatch):
        tiny = SweepConfig(
            rounds_per_run=30, runs=2, start_points=3,
            timeouts=(0.16, 0.21), seed=8,
        )
        cache_module.activate(tmp_path)
        cold = run_wan_sweep(tiny)
        # jobs=1 exercises the engine in-process, so the spy applies.
        monkeypatch.setattr(
            measurement,
            "sample_wan_trace",
            lambda *a, **k: pytest.fail("re-simulated"),
        )
        warm = run_wan_sweep_parallel(tiny, jobs=1)
        assert_sweeps_identical(cold, warm)

    def test_jobs1_uses_the_active_cache_as_it_is(self, tmp_path):
        """The in-process engine reads and fills the process-wide cache
        object itself — no swap, no copy, counters advancing in place."""
        tiny = SweepConfig(
            rounds_per_run=30, runs=1, start_points=3,
            timeouts=(0.16,), seed=8,
        )
        original = cache_module.activate(tmp_path / "original")
        original.hits = 7  # sentinel: the object, not a copy, survives
        run_wan_sweep_parallel(tiny, jobs=1)
        assert cache_module.active_cache() is original
        assert (original.hits, original.misses) == (7, 1)
        run_wan_sweep_parallel(tiny, jobs=1)
        assert (original.hits, original.misses) == (8, 1)

    def test_different_seed_is_not_served_from_cache(self, tmp_path):
        cache_module.activate(tmp_path)
        tiny = SweepConfig(
            rounds_per_run=30, runs=2, start_points=3,
            timeouts=(0.16,), seed=8,
        )
        other = SweepConfig(
            rounds_per_run=30, runs=2, start_points=3,
            timeouts=(0.16,), seed=9,
        )
        a = run_wan_sweep(tiny)
        b = run_wan_sweep(other)
        assert not np.array_equal(
            a.runs[0.16][0].matrices, b.runs[0.16][0].matrices
        )
