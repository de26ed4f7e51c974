"""Unit tests for the figure-pipeline internals."""

import numpy as np
import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.figures import (
    FigureSeries,
    figure_1a,
    figure_1b,
    run_wan_sweep,
)


TINY = SweepConfig(
    rounds_per_run=40, runs=2, start_points=3, timeouts=(0.16, 0.21), seed=3
)


class TestRunWanSweep:
    def test_structure(self):
        sweep = run_wan_sweep(TINY)
        assert set(sweep.runs) == {0.16, 0.21}
        for timeout, runs in sweep.runs.items():
            assert len(runs) == 2
            for run in runs:
                assert run.matrices.shape == (40, 8, 8)
                assert 0.0 < run.p <= 1.0

    def test_deterministic_by_config_seed(self):
        a = run_wan_sweep(TINY)
        b = run_wan_sweep(TINY)
        for timeout in TINY.timeouts:
            for run_a, run_b in zip(a.runs[timeout], b.runs[timeout]):
                assert run_a.p == run_b.p
                assert (run_a.matrices == run_b.matrices).all()

    def test_runs_are_independent(self):
        sweep = run_wan_sweep(TINY)
        first, second = sweep.runs[0.16]
        assert not (first.matrices == second.matrices).all()

    def test_leader_defaults_to_uk(self):
        assert run_wan_sweep(TINY).leader == 6


class TestAnalyticFigureGrids:
    def test_figure_1a_custom_grid(self):
        result = figure_1a(p_grid=[0.99, 1.0])
        assert result.x == [0.99, 1.0]
        assert len(result.series["ES"]) == 2

    def test_figure_1b_excludes_es(self):
        result = figure_1b(p_grid=[0.95])
        assert "ES" not in result.series
        assert set(result.series) == {"AFM", "LM", "WLM", "WLM_SIM"}

    def test_figure_series_dataclass(self):
        series = FigureSeries(figure="x", x_label="p", x=[1.0])
        assert series.series == {}
        assert series.notes == ""

    def test_figure_1a_values_match_equations(self):
        from repro.analysis.equations import expected_decision_rounds

        result = figure_1a(p_grid=[0.99])
        for model in ("ES", "AFM", "LM", "WLM", "WLM_SIM"):
            assert result.series[model][0] == pytest.approx(
                float(expected_decision_rounds(0.99, 8, model))
            )


class TestPostPaperFigures:
    def test_figure_1j_includes_gs_between_es_and_lm(self):
        from repro.experiments.figures import figure_1j

        result = figure_1j(p_grid=[0.96])
        assert set(result.series) >= {"ES", "GS", "AFM", "LM", "WLM"}
        es, gs, lm = (
            result.series["ES"][0],
            result.series["GS"][0],
            result.series["LM"][0],
        )
        # 43 constrained links of 64: strictly easier than ES, strictly
        # harder than a leader-based majority condition.
        assert lm < gs < es

    def test_figure_1j_matches_the_closed_form(self):
        from repro.analysis import expected_decision_rounds
        from repro.experiments.figures import figure_1j

        result = figure_1j(p_grid=[0.97])
        assert result.series["GS"][0] == pytest.approx(
            float(expected_decision_rounds(0.97, 8, "GS"))
        )

    def test_figure_1k_structure_and_determinism(self):
        from repro.experiments.figures import figure_1k

        kwargs = dict(gsr_grid=(10, 14), models=("GS",), runs=6, seed=5)
        result = figure_1k(**kwargs)
        assert result.x == [10.0, 14.0]
        assert set(result.series) == {"GS measured", "GS predicted"}
        # Measured means never beat the GSR floor; predictions grow
        # linearly in the GSR.
        for gsr, measured in zip(result.x, result.series["GS measured"]):
            assert measured >= gsr
        predicted = result.series["GS predicted"]
        assert predicted[1] - predicted[0] == pytest.approx(4.0)
        again = figure_1k(**kwargs)
        assert again.series == result.series


class TestSweepTables:
    """Figures 1(d)-(i) drawn from one sweep share its per-model tables."""

    def test_each_run_model_pair_is_evaluated_once(self, monkeypatch):
        from repro.experiments import figures
        from repro.experiments.config import QUICK
        from repro.models.registry import TimingModel

        sweep = run_wan_sweep(QUICK)
        calls = []
        original = TimingModel.satisfied_batch

        def spy(self, matrices, leader=None, **kwargs):
            calls.append((self.name, id(matrices)))
            return original(self, matrices, leader=leader, **kwargs)

        monkeypatch.setattr(TimingModel, "satisfied_batch", spy)
        for panel in "defghi":
            getattr(figures, f"figure_1{panel}")(sweep=sweep)

        cells = len(QUICK.timeouts) * QUICK.runs
        assert len(calls) == cells * len(figures.MEASURED_MODELS) == 264
        assert len(set(calls)) == len(calls)

    def test_tables_stay_out_of_equality_repr_and_runs(self):
        from dataclasses import fields

        from repro.experiments.figures import (
            WanRun,
            WanSweep,
            figure_1e,
            figure_1g,
        )

        drawn = run_wan_sweep(TINY)
        before = repr(drawn)
        figure_1e(sweep=drawn)
        figure_1g(sweep=drawn)
        undrawn = WanSweep(config=TINY, leader=drawn.leader, runs=drawn.runs)
        assert drawn == undrawn
        assert repr(drawn) == before
        assert [f.name for f in fields(WanRun)] == ["p", "matrices"]
        assert set(vars(drawn.runs[0.16][0])) == {"p", "matrices"}

    def test_a_drawn_series_is_the_callers_to_edit(self):
        from repro.experiments.figures import figure_1g

        sweep = run_wan_sweep(TINY)
        first = figure_1g(sweep=sweep)
        expected = list(first.series["WLM"])
        first.series["WLM"][0] = -1.0
        assert figure_1g(sweep=sweep).series["WLM"] == expected
