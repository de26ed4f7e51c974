"""Tier-2 guard for the parallel sweep engine.

Runs the QUICK WAN sweep through the serial engine and through the
process pool with 2 workers, asserts the two are bit-identical (the whole
point of per-cell seed derivation), and records the measured speedup into
``benchmarks/results/parallel_speedup.txt``.

The identity assertion is the guard and holds unconditionally.  No
minimum speedup is asserted, and below 2 cores none is even recorded:
there the pool's fork and pickle overhead makes 2 workers *slower*
(0.81x on one CPU), a number that measures the box, not the engine.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.experiments.config import QUICK
from repro.experiments.figures import WanSweep, run_wan_sweep
from repro.experiments.parallel import run_wan_sweep_parallel


def _assert_identical(serial: WanSweep, parallel: WanSweep) -> None:
    assert list(serial.runs) == list(parallel.runs)
    for timeout in serial.runs:
        assert len(serial.runs[timeout]) == len(parallel.runs[timeout])
        for run_s, run_p in zip(serial.runs[timeout], parallel.runs[timeout]):
            assert run_s.p == run_p.p
            assert np.array_equal(run_s.matrices, run_p.matrices)


def test_parallel_sweep_identical_and_speedup_recorded(save_result):
    config = QUICK
    start = time.perf_counter()
    serial = run_wan_sweep(config)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_wan_sweep_parallel(config, jobs=2)
    parallel_seconds = time.perf_counter() - start

    _assert_identical(serial, parallel)

    cells = len(config.timeouts) * config.runs
    cpus = os.cpu_count() or 1
    if cpus >= 2:
        speedup = f"{serial_seconds / parallel_seconds:.2f}x"
    else:
        speedup = f"not measured (os.cpu_count() = {cpus})"
    save_result(
        "parallel_speedup",
        "\n".join(
            [
                "Parallel sweep engine guard (QUICK WAN sweep, 2 workers)",
                f"cpus available:   {cpus}",
                f"cells:            {cells}",
                f"serial:           {serial_seconds:.3f} s"
                f" ({cells / serial_seconds:.1f} cells/s)",
                f"parallel (2):     {parallel_seconds:.3f} s"
                f" ({cells / parallel_seconds:.1f} cells/s)",
                f"speedup:          {speedup}",
                "outputs:          bit-identical",
            ]
        ),
    )
