"""Table D (Appendix C): asymptotic behaviour of E(D_M) as n grows.

For fixed p < 1: E(D_ES), E(D_LM) and E(D_WLM) diverge (ES fastest, with
its n² exponent); E(D_AFM) converges to the constant 5 for p > 1/2
(Lemma 13, Chernoff).
"""

import numpy as np

from repro.analysis.asymptotics import afm_upper_bound, expected_rounds_vs_n


def build_table(p=0.95, sizes=(4, 8, 16, 32, 64)):
    table = {}
    for model in ("ES", "LM", "WLM", "WLM_SIM", "AFM"):
        table[model] = expected_rounds_vs_n(p, sizes, model)
    table["AFM_chernoff"] = {n: afm_upper_bound(p, n) for n in sizes}
    return sizes, table


def test_appc_asymptotics(benchmark, save_result):
    sizes, table = benchmark.pedantic(build_table, rounds=1, iterations=1)

    lines = ["E(D_M) versus n at p = 0.95 (Appendix C)"]
    header = f"{'n':>6}" + "".join(f"{m:>14}" for m in table)
    lines.append(header)
    for n in sizes:
        cells = "".join(f"{table[m][n]:>14.4g}" for m in table)
        lines.append(f"{n:>6}{cells}")
    save_result("tabD_appc_asymptotics", "\n".join(lines))

    for model in ("ES", "LM", "WLM", "WLM_SIM"):
        values = [table[model][n] for n in sizes]
        assert all(a < b for a, b in zip(values, values[1:])), model
    # ES diverges fastest.
    assert table["ES"][sizes[-1]] > table["LM"][sizes[-1]]

    afm = [table["AFM"][n] for n in sizes]
    assert all(a >= b - 1e-9 for a, b in zip(afm, afm[1:]))
    assert afm[-1] < 5.1
    # The Chernoff bound dominates the exact value once meaningful.
    assert table["AFM_chernoff"][sizes[-1]] >= table["AFM"][sizes[-1]] - 1e-9
