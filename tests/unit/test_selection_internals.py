"""Unit tests for the model-selection helpers."""

import math

from repro.experiments.selection import (
    ModelReport,
    Recommendation,
    _cell_seed,
    _decision_seed,
    _ms,
    _ping_seed,
)


class TestFormatMs:
    def test_large_values_rounded(self):
        assert _ms(0.73) == "730 ms"

    def test_small_values_keep_precision(self):
        assert _ms(0.00035) == "0.35 ms"

    def test_nan_is_dash(self):
        assert _ms(float("nan")) == "—"


class TestRecommendationSummary:
    def make(self):
        rec = Recommendation(leader=6)
        rec.reports["WLM"] = ModelReport(
            model="WLM",
            optimal_timeout=0.17,
            best_decision_time=0.759,
            satisfaction_at_best=0.93,
            message_complexity="linear",
        )
        rec.reports["ES"] = ModelReport(
            model="ES",
            optimal_timeout=float("nan"),
            best_decision_time=float("nan"),
            satisfaction_at_best=0.0,
            message_complexity="quadratic",
        )
        rec.chosen_model = "WLM"
        rec.chosen_timeout = 0.17
        rec.rationale = "because linear messages"
        return rec

    def test_summary_contains_reports_and_choice(self):
        text = self.make().summary()
        assert "elected leader: node 6" in text
        assert "170 ms" in text
        assert "759 ms" in text
        assert "linear" in text
        assert "recommendation: WLM" in text
        assert "because linear messages" in text

    def test_undecided_model_rendered_as_dash(self):
        text = self.make().summary()
        assert "—" in text

    def test_never_deciding_model_has_no_literal_nan(self):
        """Regression: ``satisfaction_at_best`` went through ``%.2f``
        directly, so a model that never decided (NaN satisfaction, as the
        sweep produces when no run yields a P_M sample) printed a literal
        ``nan`` in the P_M column."""
        rec = self.make()
        rec.reports["ES"] = ModelReport(
            model="ES",
            optimal_timeout=float("nan"),
            best_decision_time=float("nan"),
            satisfaction_at_best=float("nan"),
            message_complexity="quadratic",
        )
        text = rec.summary()
        assert "nan" not in text
        es_line = next(line for line in text.splitlines() if line.startswith("ES"))
        assert "—" in es_line


class TestSweepSeeding:
    """Regression for the selector's additive seeding.

    The old scheme (``seed + 999`` for the ping table, ``seed + 101 *
    t_index + run`` per sweep cell) collided: the ping profile equalled
    cell ``(t_index=9, run=90)``, and with ``runs > 101`` cell ``(t,
    101)`` equalled cell ``(t + 1, 0)`` — distinct cells silently reusing
    one network realization.  Derived seeds must keep every purpose
    distinct.
    """

    def test_old_scheme_really_collided(self):
        # Documents the bug being regression-tested, not current code.
        seed = 5
        assert seed + 999 == seed + 101 * 9 + 90
        assert seed + 101 * 0 + 101 == seed + 101 * 1 + 0

    def test_ping_seed_never_collides_with_cells(self):
        seed = 5
        cells = {
            _cell_seed(seed, t, run)
            for t in range(12)
            for run in range(120)
        }
        assert _ping_seed(seed) not in cells

    def test_cells_are_pairwise_distinct_beyond_101_runs(self):
        seed = 0
        cells = [
            _cell_seed(seed, t, run) for t in range(4) for run in range(120)
        ]
        assert len(cells) == len(set(cells))

    def test_decision_seeds_are_their_own_stream(self):
        seed = 0
        decisions = {
            _decision_seed(seed, t, run)
            for t in range(4)
            for run in range(120)
        }
        cells = {
            _cell_seed(seed, t, run) for t in range(4) for run in range(120)
        }
        assert decisions.isdisjoint(cells)

    def test_seeds_are_deterministic(self):
        assert _cell_seed(3, 1, 2) == _cell_seed(3, 1, 2)
        assert _ping_seed(3) == _ping_seed(3)
