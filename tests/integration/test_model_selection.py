"""Integration tests for the model-selection API."""

import math
from functools import partial

import numpy as np
import pytest

from repro.experiments.decision import mean_decision_rounds
from repro.experiments.measurement import (
    sample_latency_trace,
    satisfaction_vector,
    satisfied_fraction,
    timely_matrices,
)
from repro.experiments.selection import (
    CANDIDATES,
    _cell_seed,
    _decision_seed,
    choose_timing_model,
)
from repro.models.registry import MODELS
from repro.net.lan import LanProfile
from repro.net.planetlab import LEADER_NODE, planetlab_profile


@pytest.fixture(scope="module")
def wan_recommendation():
    return choose_timing_model(
        planetlab_profile,
        timeouts=(0.15, 0.17, 0.20, 0.23),
        rounds_per_run=150,
        runs=4,
        start_points=6,
        seed=5,
    )


class TestChooseTimingModel:
    def test_elects_the_uk_leader(self, wan_recommendation):
        assert wan_recommendation.leader == LEADER_NODE

    def test_reports_all_candidates(self, wan_recommendation):
        assert set(wan_recommendation.reports) == {"ES", "AFM", "LM", "WLM"}

    def test_recommends_wlm_on_the_wan(self, wan_recommendation):
        """On the synthetic PlanetLab the paper's conclusion holds: the
        linear-message ◊WLM's best time is at or near the overall best."""
        assert wan_recommendation.chosen_model == "WLM"
        assert "O(n)" in wan_recommendation.rationale

    def test_chosen_timeout_in_the_sweep(self, wan_recommendation):
        assert wan_recommendation.chosen_timeout in (0.15, 0.17, 0.20, 0.23)

    def test_wlm_report_is_credible(self, wan_recommendation):
        report = wan_recommendation.reports["WLM"]
        assert report.message_complexity == "linear"
        assert 0.3 < report.best_decision_time < 3.0
        assert report.satisfaction_at_best > 0.7

    def test_es_report_is_the_worst(self, wan_recommendation):
        es = wan_recommendation.reports["ES"].best_decision_time
        wlm = wan_recommendation.reports["WLM"].best_decision_time
        assert math.isnan(es) or es > 2 * wlm

    def test_summary_renders(self, wan_recommendation):
        text = wan_recommendation.summary()
        assert "recommendation: WLM" in text
        assert "elected leader" in text

    def test_strict_tolerance_picks_the_raw_fastest(self):
        strict = choose_timing_model(
            planetlab_profile,
            timeouts=(0.17, 0.21),
            rounds_per_run=120,
            runs=3,
            start_points=5,
            seed=6,
            linear_tolerance=0.0,
        )
        best = min(
            (
                r
                for r in strict.reports.values()
                if r.best_decision_time == r.best_decision_time
            ),
            key=lambda r: r.best_decision_time,
        )
        assert strict.chosen_model == best.model


class TestOneStackPerTimeout:
    """The selector stacks a timeout's runs and draws their start points
    once for all models; its reports must equal the per-(run, model)
    reference bit for bit."""

    @pytest.mark.parametrize(
        "network, timeouts",
        [
            (planetlab_profile, (0.15, 0.19, 0.23)),
            (lambda seed: LanProfile(seed=seed), (0.0002, 0.0005, 0.0012)),
        ],
        ids=["wan", "lan"],
    )
    def test_reports_equal_the_per_run_and_model_reference(
        self, network, timeouts
    ):
        rounds, runs, start_points, seed = 80, 3, 5, 7
        recommendation = choose_timing_model(
            network, timeouts, rounds_per_run=rounds, runs=runs,
            start_points=start_points, seed=seed,
        )
        for model in CANDIDATES:
            times, fractions = [], []
            for t_index, timeout in enumerate(timeouts):
                vectors = [
                    satisfaction_vector(
                        timely_matrices(
                            sample_latency_trace(
                                network(seed=_cell_seed(seed, t_index, run)),
                                rounds,
                                timeout,
                            ),
                            timeout,
                        ),
                        model,
                        recommendation.leader,
                    )
                    for run in range(runs)
                ]
                rounds_to_decide = mean_decision_rounds(
                    vectors,
                    MODELS[model].decision_rounds,
                    start_points,
                    partial(_decision_seed, seed, t_index),
                )
                times.append(rounds_to_decide * timeout)
                fractions.append(
                    float(np.mean([satisfied_fraction(v) for v in vectors]))
                )
            report = recommendation.reports[model]
            got = (
                report.optimal_timeout,
                report.best_decision_time,
                report.satisfaction_at_best,
            )
            if np.isnan(times).all():
                assert all(math.isnan(value) for value in got), model
            else:
                best = int(np.nanargmin(times))
                assert got == (timeouts[best], times[best], fractions[best])

    def test_no_runs_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            choose_timing_model(planetlab_profile, (0.2,), runs=0)
