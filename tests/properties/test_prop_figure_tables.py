"""Property test: a WAN sweep's derived tables — one stack per timeout,
one start-point draw per run — equal the per-run reference: each run's
own ``satisfaction_vector`` and ``satisfied_fraction``, and
``mean_decision_rounds`` per model with the sweep's decision seeds.
Figure 1(c)'s series, one stack per timeout too, equal the mean of each
cell's own ``model_satisfaction``."""

from functools import partial

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.experiments.config import LAN_TIMEOUTS, WAN_TIMEOUTS, SweepConfig
from repro.experiments.decision import mean_decision_rounds
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
)
from repro.models.registry import get_model


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
            expected = mean_decision_rounds(
                vectors,
                get_model(model).decision_rounds,
                config.start_points,
                partial(config.run_seed, t_index, purpose="decision"),
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
