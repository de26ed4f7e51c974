"""Table F (Section 5.1): the round-synchronization protocol achieves
fast synchronization from staggered starts and keeps rounds at the
timeout."""

import numpy as np

from repro.net import measure_latency_table, planetlab_profile
from repro.sim import Clock
from repro.sync import probe_run


def run_sync(timeout=0.2, max_rounds=60, seed=31, n=8):
    profile = planetlab_profile(seed=seed)
    table = measure_latency_table(planetlab_profile(seed=seed + 1), pings=15)
    run = probe_run(
        profile,
        table,
        timeout,
        max_rounds,
        clocks=[Clock(offset=0.03 * i, drift=1.5e-5 * (i - 4)) for i in range(n)],
        start_times=[0.17 * i for i in range(n)],
    )
    return run.run()


def test_round_sync(benchmark, save_result):
    result = benchmark.pedantic(run_sync, rounds=1, iterations=1)

    warmup = 10
    # sync_error is nan-padded per round (nan = some node skipped the
    # round); by the warmup every node executes every round.
    steady_error = np.asarray(result.sync_error[warmup:])
    assert not np.isnan(steady_error).any()
    lines = [
        "Round synchronization (8 WAN nodes, starts staggered up to 1.2 s)",
        f"rounds completed by all nodes : {len(result.matrices)}",
        f"jumps per node                : {result.jumps}",
        f"mean round duration (s)      : "
        + ", ".join(f"{d:.3f}" for d in result.round_durations),
        f"steady-state start spread (s) : max {max(steady_error):.4f}, "
        f"mean {np.mean(steady_error):.4f}",
    ]
    save_result("tabF_round_sync", "\n".join(lines))

    # Everyone finished all rounds despite skew, drift, staggered starts.
    assert len(result.matrices) == 60
    # Synchronization regained within a handful of jumps.
    assert all(j <= 5 for j in result.jumps)
    # Steady-state spread below one round length.
    assert max(steady_error) < 0.2
    # Round durations track the timeout.
    assert all(0.15 < d < 0.25 for d in result.round_durations)
