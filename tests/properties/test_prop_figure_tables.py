"""Property test: a WAN sweep's derived tables — one stack per timeout,
one start-point draw per run — equal the per-run reference: each run's
own ``satisfaction_vector`` and ``satisfied_fraction``, and per model the
mean over deciding runs of the per-start ``models.gsr.rounds_to_decision``
from the sweep's decision seeds, a scan independent of the sweep's own.
Figure 1(c)'s series, read from a sweep over its LAN cells at two
leaders, equal the mean of each cell's own ``model_satisfaction``, and
the faults table's clean cells are the sweep's tables."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.experiments.config import LAN_TIMEOUTS, WAN_TIMEOUTS, SweepConfig
from repro.experiments.decision import draw_starts
from repro.experiments.figures import (
    LAN_SERIES,
    MEASURED_MODELS,
    figure_1c,
    lan_cell,
    run_wan_sweep,
)
from repro.experiments.measurement import (
    model_satisfaction,
    satisfaction_vector,
    satisfied_fraction,
    satisfied_fractions,
)
from repro.experiments.robustness import measure_robustness
from repro.models.gsr import rounds_to_decision


@st.composite
def configs(draw, timeouts=WAN_TIMEOUTS):
    return SweepConfig(
        rounds_per_run=draw(st.integers(6, 40)),
        runs=draw(st.integers(1, 4)),
        start_points=draw(st.integers(0, 6)),
        timeouts=tuple(
            draw(st.lists(st.sampled_from(timeouts), min_size=1,
                          max_size=3, unique=True))
        ),
        seed=draw(st.integers(0, 2**16)),
    )


def reference_decision_rounds(config, t_index, runs, model, leader):
    """The cell's mean rounds to decision one start at a time: each run
    averages ``rounds_to_decision`` over its starts that decided, and the
    cell averages the runs in which any start did (NaN when none did)."""
    run_means = []
    for r_index, run in enumerate(runs):
        rng = np.random.default_rng(
            config.run_seed(t_index, r_index, purpose="decision")
        )
        starts = draw_starts(rng, len(run.matrices), config.start_points)
        rounds = [
            rounds_to_decision(run.matrices, model, start=int(start), leader=leader)
            for start in starts
        ]
        decided = [r for r in rounds if r is not None]
        if decided:
            run_means.append(float(np.mean(decided)))
    return float(np.mean(run_means)) if run_means else float("nan")


@given(config=configs(), leader=st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_sweep_tables_equal_the_per_run_reference(config, leader):
    sweep = run_wan_sweep(config, leader=leader)
    for model in MEASURED_MODELS:
        satisfied = sweep.satisfied(model)
        per_run_pm = sweep.per_run_pm(model)
        rounds = sweep.decision_rounds(model)
        for t_index, timeout in enumerate(config.timeouts):
            vectors = [
                satisfaction_vector(run.matrices, model, leader)
                for run in sweep.runs[timeout]
            ]
            assert np.array_equal(satisfied[t_index], vectors)
            assert per_run_pm[t_index] == [
                satisfied_fraction(vector, skip_until_first_stable=True)
                for vector in vectors
            ]
            expected = reference_decision_rounds(
                config, t_index, sweep.runs[timeout], model, leader
            )
            # By repr, so that NaN (no run decided) equals NaN.
            assert repr(rounds[t_index]) == repr(expected)


@given(config=configs(LAN_TIMEOUTS))
@settings(max_examples=20, deadline=None)
def test_lan_series_equal_the_per_cell_reference(config):
    figure = figure_1c(config)
    for name, model, leader in LAN_SERIES:
        expected = [
            float(np.mean([
                model_satisfaction(
                    lan_cell(config, t_index, r_index).matrices, model, leader
                )
                for r_index in range(config.runs)
            ]))
            for t_index in range(len(config.timeouts))
        ]
        assert figure.series[name] == expected, name


@given(config=configs(), leader=st.integers(0, 7), seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_faults_clean_cells_are_the_sweep_tables(config, leader, seed):
    sweep = run_wan_sweep(config, leader=leader)
    for t_index, timeout in enumerate(config.timeouts):
        for cell in measure_robustness(sweep, seed, timeout=timeout):
            rows = sweep.satisfied(cell.model)[t_index]
            assert cell.pm_clean == float(np.mean(satisfied_fractions(rows)))
            # By repr, so that NaN (no run decided) equals NaN.
            assert repr(cell.rounds_clean) == repr(
                sweep.decision_rounds(cell.model)[t_index]
            )
