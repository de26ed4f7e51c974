"""Speedup guard for vectorized batch trace generation.

Times the whole-trace batch sampler (256-round columns of the whole link
table, a few generator calls per column, the arithmetic once per trace —
see DESIGN.md, "Batch trace generation") against the per-message scalar
baseline: the generic
:meth:`~repro.net.base.LatencyModel.sample_round_latencies` fallback,
which draws every message individually through ``sample_latency`` — the
cost any model pays without the batch engine, and the granularity of the
event-driven transport.

Both sides construct the model fresh per trace (the sweeps do: each run
seed builds its own profile), so the batch figure includes seating each
column's generators, not just the warm inner loop.  The guard asserts the paper
protocol's trace shape (8 nodes x 300 rounds) generates at least 20x
faster and records the measured ratios in
``benchmarks/results/trace_gen_speedup.txt``.
"""

import time

import numpy as np

from repro.net.base import LatencyModel
from repro.net.lan import LanProfile
from repro.net.planetlab import PlanetLabProfile

NODES = 8
ROUNDS = 300
MIN_SPEEDUP = 20.0

PROFILES = {
    "wan": (PlanetLabProfile, 0.2),
    "lan": (LanProfile, 0.35e-3),
}


def best_of(fn, reps):
    """Minimum wall time over ``reps`` runs (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def scalar_trace(factory, round_length):
    model = factory(seed=5)
    return np.array(
        [
            LatencyModel.sample_round_latencies(model, k * round_length)
            for k in range(ROUNDS)
        ]
    )


def batch_trace(factory, round_length):
    return factory(seed=5).sample_trace_batch(ROUNDS, round_length)


def test_batch_trace_generation_speedup(save_result):
    lines = [
        f"Trace generation: per-message scalar vs batch sampler "
        f"({NODES} nodes x {ROUNDS} rounds)",
        "",
        f"{'profile':<8} {'scalar':>12} {'batch':>12} {'speedup':>9}",
    ]
    speedups = {}
    for name, (factory, round_length) in PROFILES.items():
        assert factory(seed=5).n == NODES
        scalar_s = best_of(lambda: scalar_trace(factory, round_length), reps=3)
        batch_s = best_of(lambda: batch_trace(factory, round_length), reps=15)
        speedups[name] = scalar_s / batch_s
        lines.append(
            f"{name:<8} {scalar_s * 1e3:>10.1f}ms {batch_s * 1e3:>10.2f}ms "
            f"{speedups[name]:>8.1f}x"
        )
    lines += [
        "",
        f"floor: {MIN_SPEEDUP:.0f}x on every profile "
        "(fresh model per trace, column generators seated per trace)",
    ]
    save_result("trace_gen_speedup", "\n".join(lines))
    for name, ratio in speedups.items():
        assert ratio >= MIN_SPEEDUP, (
            f"{name} trace generation speedup {ratio:.1f}x below the "
            f"{MIN_SPEEDUP:.0f}x floor"
        )
