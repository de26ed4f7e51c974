"""Table E: Monte-Carlo sampling versus the Section 4 closed forms."""

import numpy as np

from repro.analysis.equations import p_afm, p_es, p_lm, p_wlm
from repro.analysis.montecarlo import estimate_p_model


def build_table(n=8, samples=8_000, p_grid=(0.90, 0.95, 0.99)):
    closed = {"ES": p_es, "LM": p_lm, "WLM": p_wlm, "AFM": p_afm}
    rows = []
    for p in p_grid:
        for model, fn in closed.items():
            rows.append(
                (
                    model,
                    p,
                    float(fn(p, n)),
                    estimate_p_model(model, p, n, samples=samples, seed=13),
                )
            )
    return rows


def test_montecarlo_vs_closed_form(benchmark, save_result):
    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)

    lines = [
        "P_M: closed form (eqs. 1, 3, 6, 9) versus Monte-Carlo (n=8)",
        f"{'model':<8}{'p':>6}{'closed form':>14}{'sampled':>12}",
    ]
    for model, p, closed_value, sampled in rows:
        lines.append(f"{model:<8}{p:>6}{closed_value:>14.5f}{sampled:>12.5f}")
    save_result("tabE_montecarlo", "\n".join(lines))

    for model, p, closed_value, sampled in rows:
        if model == "AFM":
            # Equation (9) is a lower bound.
            assert closed_value <= sampled + 0.02, (model, p)
        else:
            noise = max(4 * np.sqrt(closed_value * (1 - closed_value) / 8000), 0.012)
            assert abs(closed_value - sampled) < noise, (model, p)
