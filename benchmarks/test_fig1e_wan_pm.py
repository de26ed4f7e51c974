"""Figure 1(e): WAN — measured P_M per timeout, with 95% confidence
intervals.

Paper landmarks at a 160 ms timeout: P_ES = 0, P_AFM ~ 0.4, P_LM ~ 0.79,
P_WLM ~ 0.94.  ◊WLM's conditions hold far more often than any other
model's; ES's confidence interval *grows* with the timeout while the
others' shrink.
"""

import numpy as np

from repro.experiments import figure_1e, render_series


def test_fig1e(benchmark, wan_sweep, save_result, committed_scale):
    result = benchmark.pedantic(
        figure_1e, kwargs={"sweep": wan_sweep}, rounds=1, iterations=1
    )
    save_result("fig1e_wan_pm", render_series(result))

    timeouts = np.array(result.x)
    index_160 = int(np.argmin(np.abs(timeouts - 0.16)))

    es = result.series["ES"][index_160]
    afm = result.series["AFM"][index_160]
    lm = result.series["LM"][index_160]
    wlm = result.series["WLM"][index_160]

    # The paper's ordering and rough magnitudes at 160 ms.
    assert es < 0.05
    assert 0.25 < afm < 0.7
    assert lm > afm + 0.1
    assert wlm > lm + 0.05
    assert wlm > 0.85

    # WLM dominates every other model throughout the short-to-mid timeout
    # range (the operative regime; at very long timeouts AFM also
    # approaches 1 since majorities tolerate residual loss that the
    # leader's all-outgoing-links requirement does not).  The paper-scale
    # sweep resolves this on the point estimates; the quick sweep's 6 runs
    # do not (at 210 ms WLM 0.940 and AFM 0.976 each carry a +-0.02
    # interval), so there the comparison is between the 95% intervals the
    # figure carries.
    def column(model, bound):
        return model if committed_scale else f"{model}_ci_{bound}"

    for index in range(len(timeouts)):
        if timeouts[index] > 0.215:
            break
        for other in ("ES", "AFM", "LM"):
            assert (
                result.series[column("WLM", "high")][index]
                >= result.series[column(other, "low")][index] - 0.03
            )

    # ES's confidence interval grows with the timeout; WLM's stays tight.
    def half_width(model, index):
        return (
            result.series[f"{model}_ci_high"][index]
            - result.series[f"{model}_ci_low"][index]
        ) / 2

    assert half_width("ES", len(timeouts) - 1) > half_width("ES", 0)
    assert half_width("WLM", len(timeouts) - 1) < 0.1
