"""Speedup guard for the WAN sweep's derived figure tables.

Figures 1(e)-(i) read three tables per measured model off one sweep:
each run's per-round satisfaction, its ``P_M`` and the mean rounds to
decision per timeout.  :class:`~repro.experiments.figures.WanSweep`
answers each in one pass per timeout — one ``(runs * rounds, n, n)``
stack shared by the four models, one start-point draw per run shared by
the four models, one window scan over all of a timeout's runs.  The
reference asks the same questions one run at a time, as the sweep did
before: a predicate call, a ``P_M`` and a seeded window scan per
(run, model).

On the paper protocol's sweep (11 timeouts x 33 runs x 300 rounds) the
guard asserts that the tables equal the reference exactly and come out
at least 2x faster, best of 5, and records the timings in
``benchmarks/results/figure_tables_speedup.txt``.
"""

import time

import numpy as np

from repro.experiments.config import PAPER
from repro.experiments.decision import decision_stats_from_vector
from repro.experiments.figures import MEASURED_MODELS, WanSweep, run_wan_sweep
from repro.experiments.measurement import satisfaction_vector, satisfied_fraction
from repro.models.registry import get_model

MIN_SPEEDUP = 2.0
REPS = 5


def best_of(fn, reps):
    """Minimum wall time over ``reps`` runs (robust to scheduler noise),
    and the last run's result."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def tables(sweep):
    """Every model's three tables, from a sweep with none computed yet."""
    fresh = WanSweep(config=sweep.config, leader=sweep.leader, runs=sweep.runs)
    return {
        model: (
            fresh.satisfied(model),
            fresh.per_run_pm(model),
            fresh.decision_rounds(model),
        )
        for model in MEASURED_MODELS
    }


def per_run_reference(sweep):
    """The same tables, one (run, model) at a time."""
    config = sweep.config
    result = {}
    for model in MEASURED_MODELS:
        window = get_model(model).decision_rounds
        satisfied, per_run_pm, rounds = [], [], []
        for t_index, timeout in enumerate(config.timeouts):
            vectors = [
                satisfaction_vector(run.matrices, model, sweep.leader)
                for run in sweep.runs[timeout]
            ]
            satisfied.append(vectors)
            per_run_pm.append(
                [satisfied_fraction(v, skip_until_first_stable=True) for v in vectors]
            )
            means = []
            for r_index, vector in enumerate(vectors):
                seed = config.run_seed(t_index, r_index, purpose="decision")
                stats = decision_stats_from_vector(
                    vector, window, timeout, config.start_points,
                    rng=np.random.default_rng(seed),
                )
                if stats.samples:
                    means.append(stats.mean_rounds)
            rounds.append(float(np.mean(means)) if means else float("nan"))
        result[model] = (satisfied, per_run_pm, rounds)
    return result


def test_figure_tables_speedup(save_result):
    sweep = run_wan_sweep(PAPER)
    reference_s, expected = best_of(lambda: per_run_reference(sweep), REPS)
    tables_s, got = best_of(lambda: tables(sweep), REPS)
    for model in MEASURED_MODELS:
        (satisfied, per_run_pm, rounds), (ref_sat, ref_pm, ref_rounds) = (
            got[model], expected[model]
        )
        for rows, vectors in zip(satisfied, ref_sat):
            assert np.array_equal(rows, vectors), model
        assert per_run_pm == ref_pm, model
        # By repr, so that NaN (no run decided) equals NaN.
        assert repr(rounds) == repr(ref_rounds), model

    speedup = reference_s / tables_s
    cells = len(PAPER.timeouts) * PAPER.runs
    lines = [
        "Figure tables (satisfied, per-run P_M, decision rounds) for "
        f"{len(MEASURED_MODELS)} models: per (run, model) vs one pass per timeout",
        f"({len(PAPER.timeouts)} timeouts x {PAPER.runs} runs x "
        f"{PAPER.rounds_per_run} rounds, n = {PAPER.n}; {cells} runs)",
        "",
        f"{'per run':>12} {'per timeout':>12} {'speedup':>9}",
        f"{reference_s * 1e3:>10.1f}ms {tables_s * 1e3:>10.1f}ms {speedup:>8.1f}x",
        "",
        f"floor: {MIN_SPEEDUP:.0f}x, best of {REPS}; every table equal to the reference",
    ]
    save_result("figure_tables_speedup", "\n".join(lines))
    assert speedup >= MIN_SPEEDUP, (
        f"figure-table speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x floor"
    )
