"""Figure 1(i): the timeout / decision-time tradeoff for ◊LM and ◊WLM.

Paper shape: decision time as a function of the timeout is convex — too
short a timeout needs many rounds, too long makes each round expensive —
with interior optima (~170 ms for ◊WLM at ~730 ms, ~210 ms for ◊LM at
~650 ms; ◊WLM's optimum sits at a *smaller* timeout than ◊LM's, and its
best time is within ~15% of ◊LM's while sending Θ(n) instead of Θ(n²)
messages per round).
"""

import math

import numpy as np

from repro.analysis.crossover import optimal_timeout
from repro.experiments import figure_1i, render_series
from repro.experiments.decision import decision_stats_from_vector
from repro.models.registry import get_model


def decision_time_spread(sweep, model, timeout):
    """Standard error, across the cell's runs, of the mean decision time
    Figure 1(i) plots for ``model`` at ``timeout`` (same start points as
    :meth:`WanSweep.decision_rounds` draws)."""
    config = sweep.config
    t_index = list(config.timeouts).index(timeout)
    times = [
        decision_stats_from_vector(
            vector,
            get_model(model).decision_rounds,
            timeout,
            config.start_points,
            rng=np.random.default_rng(
                config.run_seed(t_index, r_index, purpose="decision")
            ),
        ).mean_time
        for r_index, vector in enumerate(sweep.satisfied(model)[t_index])
    ]
    times = [t for t in times if not math.isnan(t)]
    return float(np.std(times, ddof=1) / math.sqrt(len(times)))


def test_fig1i(benchmark, wan_sweep, save_result, committed_scale):
    result = benchmark.pedantic(
        figure_1i, kwargs={"sweep": wan_sweep}, rounds=1, iterations=1
    )
    save_result("fig1i_tradeoff", render_series(result))

    optima = {}
    for model in ("LM", "WLM"):
        finite = [
            (t, v)
            for t, v in zip(result.x, result.series[model])
            if not math.isnan(v)
        ]
        timeouts, times = zip(*finite)
        optima[model] = optimal_timeout(list(timeouts), list(times))

    wlm_timeout, wlm_best = optima["WLM"]
    lm_timeout, lm_best = optima["LM"]

    # WLM's optimum at a timeout no larger than LM's.  LM's minimum is
    # flat, and the quick sweep's 6 runs cannot place it (150 ms and
    # 180 ms differ by under 1 ms of decision time), so at every scale the
    # claim is read off the decision times — from WLM's optimal timeout
    # upward LM still gets within its run-to-run spread of its best — and
    # at paper scale, which resolves the optima themselves, off them too.
    lm_beyond = min(
        v
        for t, v in zip(result.x, result.series["LM"])
        if t >= wlm_timeout and not math.isnan(v)
    )
    assert lm_beyond - lm_best <= decision_time_spread(
        wan_sweep, "LM", lm_timeout
    )
    if committed_scale:
        assert wlm_timeout <= lm_timeout
    # Best decision times within 40% of each other (paper: 730 vs 650 ms)
    # despite WLM's linear message complexity.
    assert wlm_best < lm_best * 1.4
    assert lm_best < wlm_best * 1.4
    # Optima in the paper's ballpark (hundreds of milliseconds).
    assert 0.4 < wlm_best < 1.3
    assert 0.4 < lm_best < 1.3

    # Convexity of the WLM curve: the optimum is interior, and both a
    # much shorter and a much longer timeout are worse.
    wlm_series = {
        t: v
        for t, v in zip(result.x, result.series["WLM"])
        if not math.isnan(v)
    }
    shortest = min(wlm_series)
    longest = max(wlm_series)
    assert wlm_series[shortest] > wlm_best
    assert wlm_series[longest] > wlm_best
