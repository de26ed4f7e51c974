#!/usr/bin/env python
"""Choosing the timeout — the Section 5.3 methodology, end to end.

"Note that we present a methodology rather than a specific timeout: a
system administrator can perform measurements and choose the timeout for
a specific system, according to such criteria."

This example is that administrator's workflow on the synthetic PlanetLab:

1. ping every pair of nodes and elect a well-connected leader (the paper
   chose its UK node exactly this way);
2. sweep timeouts, measuring the fraction of timely messages (Figure 1(d))
   and the fraction of rounds whose conditions satisfy each model
   (Figure 1(e));
3. measure rounds-to-decision and multiply by the round length to expose
   the tradeoff (Figure 1(i)): shorter timeouts need more rounds, longer
   timeouts make each round expensive;
4. read off the optimal timeout per model.

Run:  python examples/wan_timeout_tuning.py
"""

import numpy as np

from repro.analysis.crossover import optimal_timeout
from repro.experiments.config import SweepConfig
from repro.experiments.decision import decision_stats
from repro.experiments.measurement import (
    measured_p,
    model_satisfaction,
    sample_wan_trace,
    timely_matrices,
)
from repro.net import measure_latency_table, planetlab_profile, select_leader
from repro.net.planetlab import PLANETLAB_SITES


def main() -> None:
    config = SweepConfig(
        rounds_per_run=200,
        runs=8,
        start_points=10,
        timeouts=(0.15, 0.16, 0.17, 0.18, 0.20, 0.21, 0.23, 0.26, 0.30),
        seed=7,
    )

    # Step 1: ping, then elect the best-connected node.
    table = measure_latency_table(planetlab_profile(seed=999), pings=20)
    leader = select_leader(table)
    print("=== Step 1: leader election by ping ===")
    rtt = table + table.T
    for pid, site in enumerate(PLANETLAB_SITES):
        mean_rtt = rtt[pid][np.arange(8) != pid].mean() * 1000
        marker = "  <-- leader" if pid == leader else ""
        print(f"  {site:<12} mean RTT {mean_rtt:7.1f} ms{marker}")

    # Steps 2-3: sweep timeouts.
    print("\n=== Steps 2-3: timeout sweep ===")
    print(f"{'timeout':>8} {'p':>6} {'P_WLM':>6} {'P_LM':>6} "
          f"{'rounds(WLM)':>12} {'time(WLM)':>10} {'time(LM)':>9}")
    times = {"WLM": [], "LM": []}
    for t_index, timeout in enumerate(config.timeouts):
        p_values, pm = [], {"WLM": [], "LM": []}
        rounds = {"WLM": [], "LM": []}
        for run in range(config.runs):
            trace = sample_wan_trace(
                config.rounds_per_run, timeout, config.run_seed(t_index, run)
            )
            matrices = timely_matrices(trace, timeout)
            p_values.append(measured_p(matrices))
            for model in ("WLM", "LM"):
                pm[model].append(
                    model_satisfaction(matrices, model, leader=leader)
                )
                stats = decision_stats(
                    matrices, model, timeout, config.start_points,
                    leader=leader,
                    rng=np.random.default_rng(run),
                )
                if stats.samples:
                    rounds[model].append(stats.mean_rounds)
        mean_rounds = {
            m: float(np.mean(v)) if v else float("nan") for m, v in rounds.items()
        }
        for model in ("WLM", "LM"):
            times[model].append(mean_rounds[model] * timeout)
        print(f"{timeout*1000:>6.0f}ms {np.mean(p_values):>6.3f} "
              f"{np.mean(pm['WLM']):>6.2f} {np.mean(pm['LM']):>6.2f} "
              f"{mean_rounds['WLM']:>12.2f} {times['WLM'][-1]*1000:>8.0f}ms "
              f"{times['LM'][-1]*1000:>7.0f}ms")

    # Step 4: the optimum.
    print("\n=== Step 4: optimal timeouts ===")
    for model in ("WLM", "LM"):
        finite = [
            (t, v) for t, v in zip(config.timeouts, times[model]) if v == v
        ]
        ts, vs = zip(*finite)
        best_t, best_v = optimal_timeout(list(ts), list(vs))
        print(f"  {model}: set the timeout to ~{best_t*1000:.0f} ms "
              f"-> expected decision in ~{best_v*1000:.0f} ms")
    print("\nConservative timeouts are NOT free: past the optimum, each "
          "round costs more than the rounds saved (Figure 1(i)).")


if __name__ == "__main__":
    main()
