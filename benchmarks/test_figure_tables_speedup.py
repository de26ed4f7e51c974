"""Speedup guard for the figure tables derived from a finished sweep.

Figures 1(e)-(i) read three tables per measured model off one WAN sweep:
each run's per-round satisfaction, its ``P_M`` and the mean rounds to
decision per timeout.  :class:`~repro.experiments.figures.WanSweep`
answers each in one pass per timeout — one ``(runs * rounds, n, n)``
stack shared by the four models, one start-point draw per run shared by
the four models, one window scan over all of a timeout's runs.  The
reference asks the same questions one run at a time, as the sweep did
before: a predicate call, a ``P_M`` and a seeded window scan per
(run, model).

Figure 1(c) reads six ``P_M`` series off the LAN cells the same way:
:func:`~repro.experiments.figures.figure_1c` stacks a timeout's runs
once and makes one predicate call per series on the stack, where the
reference (the figure before) takes each series' ``P_M`` one cell at a
time.

On the paper protocol's sweeps (WAN: 11 timeouts x 33 runs x 300
rounds; LAN: 10 timeouts x 33 runs x 100 rounds) the guard asserts that
each table equals its reference exactly and comes out at least 2x
faster, best of 5, and records the timings in
``benchmarks/results/figure_tables_speedup.txt``.
"""

import time

import numpy as np

from repro.experiments.config import PAPER, PAPER_LAN
from repro.experiments.decision import decision_stats_from_vector
from repro.experiments.figures import (
    LAN_SERIES,
    MEASURED_MODELS,
    WanSweep,
    figure_1c,
    lan_cell,
    run_wan_sweep,
)
from repro.experiments.measurement import (
    model_satisfaction,
    satisfaction_vector,
    satisfied_fraction,
)
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


def lan_per_cell_reference(rows):
    """Figure 1(c)'s measured series, one (cell, series) at a time."""
    return {
        name: [
            float(np.mean([
                model_satisfaction(cell.matrices, model, leader)
                for cell in row
            ]))
            for row in rows
        ]
        for name, model, leader in LAN_SERIES
    }


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

    lan_rows = [
        [lan_cell(PAPER_LAN, t_index, r_index) for r_index in range(PAPER_LAN.runs)]
        for t_index in range(len(PAPER_LAN.timeouts))
    ]
    lan_reference_s, lan_expected = best_of(
        lambda: lan_per_cell_reference(lan_rows), REPS
    )
    lan_s, figure = best_of(lambda: figure_1c(PAPER_LAN, cells=lan_rows), REPS)
    for name, _, _ in LAN_SERIES:
        assert figure.series[name] == lan_expected[name], name

    timings = {
        "WAN 1(e)-(i)": (PAPER, reference_s, tables_s),
        "LAN 1(c)": (PAPER_LAN, lan_reference_s, lan_s),
    }
    lines = [
        "Figure tables per (run, model) vs one pass per timeout: "
        f"WAN satisfied / per-run P_M / decision rounds for {len(MEASURED_MODELS)} "
        f"models, LAN {len(LAN_SERIES)} P_M series",
        "",
        f"{'tables':<14}{'grid':>20} {'per run':>10} {'per timeout':>12} "
        f"{'speedup':>8}",
    ]
    for label, (config, per_run_s, stacked_s) in timings.items():
        grid = (
            f"{len(config.timeouts)}x{config.runs}x{config.rounds_per_run}"
        )
        lines.append(
            f"{label:<14}{grid:>20} {per_run_s * 1e3:>8.1f}ms "
            f"{stacked_s * 1e3:>10.1f}ms {per_run_s / stacked_s:>7.1f}x"
        )
    lines += [
        "",
        "grid = timeouts x runs x rounds, n = 8; floor: "
        f"{MIN_SPEEDUP:.0f}x, best of {REPS}; every table equal to the reference",
    ]
    save_result("figure_tables_speedup", "\n".join(lines))
    for label, (_, per_run_s, stacked_s) in timings.items():
        speedup = per_run_s / stacked_s
        assert speedup >= MIN_SPEEDUP, (
            f"{label} table speedup {speedup:.1f}x below the "
            f"{MIN_SPEEDUP:.0f}x floor"
        )
