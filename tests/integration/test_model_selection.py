"""Integration tests for the model-selection API."""

import math

import numpy as np
import pytest

import repro.experiments.selection as selection
from repro.experiments.config import SweepConfig
from repro.experiments.figures import WanRun, WanSweep
from repro.experiments.measurement import (
    sample_latency_trace,
    satisfied_fractions,
    timely_matrices,
)
from repro.experiments.selection import CANDIDATES, choose_timing_model
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
    """The selector is a sweep over its network: its reports must equal,
    bit for bit, the tables of a :class:`WanSweep` filled with the same
    runs — ``run_seed(t, r, purpose="selection")`` networks, the
    sweep's own start points."""

    @pytest.mark.parametrize(
        "network, timeouts",
        [
            (planetlab_profile, (0.15, 0.19, 0.23)),
            (lambda seed: LanProfile(seed=seed), (0.0002, 0.0005, 0.0012)),
        ],
        ids=["wan", "lan"],
    )
    def test_reports_read_the_sweep(self, network, timeouts):
        rounds, runs, start_points, seed = 80, 3, 5, 7
        recommendation = choose_timing_model(
            network, timeouts, rounds_per_run=rounds, runs=runs,
            start_points=start_points, seed=seed,
        )
        config = SweepConfig(
            n=8, rounds_per_run=rounds, runs=runs,
            start_points=start_points, timeouts=timeouts, seed=seed,
        )
        sweep = WanSweep(config=config, leader=recommendation.leader)
        for t_index, timeout in enumerate(timeouts):
            sweep.runs[timeout] = []
            for run in range(runs):
                model = network(seed=config.run_seed(t_index, run, "selection"))
                trace = sample_latency_trace(model, rounds, timeout)
                sweep.runs[timeout].append(
                    WanRun.of(timely_matrices(trace, timeout))
                )
        for model in CANDIDATES:
            times = [
                rounds_to_decide * timeout
                for rounds_to_decide, timeout in zip(
                    sweep.decision_rounds(model), timeouts
                )
            ]
            fractions = [
                float(np.mean(satisfied_fractions(rows)))
                for rows in sweep.satisfied(model)
            ]
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

    @pytest.mark.parametrize(
        "timeouts,rounds,match",
        [
            ((), 200, "timeouts"),
            ((0.2, float("nan")), 200, "timeouts"),
            ((0.0,), 200, "timeouts"),
            ((0.2, -0.1), 200, "timeouts"),
            ((0.2, 0.2), 200, "timeouts"),
            ((0.2,), 5, "rounds_per_run.*6.*5"),
        ],
        ids=["empty", "nan", "zero", "negative", "repeated", "too-short"],
    )
    def test_bad_grid_rejected_before_sampling(
        self, monkeypatch, timeouts, rounds, match
    ):
        """The sweep's validation runs before the ping measurement: the
        selector used to sample and answer "no model produced decisions
        on this sweep" for a grid that measures nothing, or sample and
        then find its runs too short for ◊AFM's decision window."""

        def no_pings(*args, **kwargs):
            raise AssertionError("the selector sampled the network")

        monkeypatch.setattr(selection, "measure_latency_table", no_pings)
        with pytest.raises(ValueError, match=match):
            choose_timing_model(
                planetlab_profile, timeouts, rounds_per_run=rounds, runs=1,
                start_points=2,
            )
