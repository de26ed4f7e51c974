#!/usr/bin/env python
"""The full Section 5 stack, live: consensus over unsynchronized WAN nodes.

Eight simulated PlanetLab nodes (Switzerland, Japan, California, Georgia,
China, Poland, UK, Sweden) with skewed, drifting clocks and staggered
start times run the Section 5.1 round-synchronization protocol over a
heavy-tailed WAN, and Algorithm 2 on top of it.  No lockstep idealization
anywhere: every message is an event with a sampled latency; rounds are
cut by local timers and future-round jumps.

Run:  python examples/wan_consensus_live.py
"""

import numpy as np

from repro.core import WlmConsensus
from repro.giraf.oracle import FixedLeaderOracle
from repro.net import measure_latency_table, planetlab_profile, select_leader
from repro.net.planetlab import PLANETLAB_SITES
from repro.sim import Clock, Transport
from repro.sync import SyncRun


def main() -> None:
    n = 8
    timeout = 0.21  # near the measured optimum for ◊LM; fine for ◊WLM too

    # Pre-experiment pings (as the paper does) for the latency tables the
    # sync protocol needs, and to elect a well-connected leader.
    table = measure_latency_table(planetlab_profile(seed=4242), pings=20)
    leader = select_leader(table)
    print(f"elected leader by ping: {PLANETLAB_SITES[leader]} (node {leader})")

    profile = planetlab_profile(seed=77)
    run = SyncRun(
        n,
        lambda pid: WlmConsensus(
            pid, n, proposal=f"proposal-of-{PLANETLAB_SITES[pid]}"
        ),
        FixedLeaderOracle(leader),
        lambda sim: Transport(sim, profile),
        timeout=timeout,
        latency_table=table,
        clocks=[
            Clock(offset=0.2 * i, drift=2e-5 * (i - 4)) for i in range(n)
        ],
        start_times=[0.13 * i for i in range(n)],  # nobody starts together
        max_rounds=40,
    )
    result = run.run()

    print(f"\nnodes ran {len(result.matrices)} rounds of ~{timeout*1000:.0f} ms")
    print(f"fast-forward jumps per node : {result.jumps}")
    print(f"mean round durations (ms)   : "
          + ", ".join(f"{d*1000:.0f}" for d in result.round_durations))
    spread = np.asarray(result.sync_error[-10:])  # nan = round skipped
    print(f"steady round-start spread   : {np.nanmax(spread)*1000:.1f} ms")

    off = ~np.eye(n, dtype=bool)
    delivery = np.mean([m[off].mean() for m in result.matrices[5:]])
    print(f"timely delivery fraction    : {delivery:.3f}")

    print("\ndecisions:")
    for pid in range(n):
        print(f"  {PLANETLAB_SITES[pid]:<12} -> {result.decisions.get(pid)!r}")
    values = set(result.decisions.values())
    assert len(result.decisions) == n, "every node must decide"
    assert len(values) == 1, "agreement must hold"
    print(f"\nconsensus reached on {values.pop()!r} "
          f"across 8 'continents' with no synchronized clocks.")


if __name__ == "__main__":
    main()
