"""Unit tests for decision-time measurement."""

import numpy as np
import pytest

from repro.experiments.decision import decision_stats
from repro.models.matrix import empty_matrix, full_matrix


def trace_from_bits(bits, n=3):
    return np.array([full_matrix(n) if b else empty_matrix(n) for b in bits])


class TestDecisionStats:
    def test_all_stable_trace_hits_floor(self):
        trace = trace_from_bits([1] * 30)
        stats = decision_stats(
            trace, "ES", round_length=0.1, start_points=5,
            rng=np.random.default_rng(0),
        )
        assert stats.mean_rounds == 3.0  # ES decision window
        assert stats.mean_time == pytest.approx(0.3)
        assert stats.censored == 0

    def test_window_override(self):
        trace = trace_from_bits([1] * 30)
        stats = decision_stats(
            trace, "ES", round_length=0.1, start_points=4, window=5,
            rng=np.random.default_rng(0),
        )
        assert stats.mean_rounds == 5.0

    def test_unstable_prefix_costs_rounds(self):
        # From start 0: rounds 0-9 bad, window completes at round 12.
        trace = trace_from_bits([0] * 10 + [1] * 20)
        rng = np.random.default_rng(1)
        stats = decision_stats(
            trace, "ES", round_length=1.0, start_points=50, rng=rng
        )
        # Starts are uniform in the first half (0..14); any start <= 10
        # waits for round index 12.
        assert stats.mean_rounds > 3.0

    def test_fully_unstable_trace_censors_everything(self):
        trace = trace_from_bits([0] * 20)
        stats = decision_stats(
            trace, "ES", round_length=1.0, start_points=8,
            rng=np.random.default_rng(2),
        )
        assert stats.censored == 8
        assert stats.samples == 0
        assert stats.mean_rounds != stats.mean_rounds  # NaN

    def test_too_short_trace_rejected(self):
        with pytest.raises(ValueError):
            decision_stats(
                trace_from_bits([1, 1]), "AFM", round_length=1.0, start_points=1
            )

    def test_default_rng_decorrelates_distinct_cells(self):
        """Regression: the default ``rng`` was ``default_rng(0)``, handing
        every (run, model, timeout) cell the *same* start points.

        With the bad-prefix vectors used here every start point completes
        at the first window after the prefix, so ``mean_rounds`` equals
        ``prefix + window - mean(starts)``: with shared starts the two
        cells' means differed by the prefix difference (exactly -1.0),
        which is how the correlation showed up in sweep statistics.
        """
        from repro.experiments.decision import decision_stats_from_vector

        vector_a = np.array([False] * 16 + [True] * 14)
        vector_b = np.array([False] * 17 + [True] * 13)
        stats_a = decision_stats_from_vector(vector_a, 3, 1.0, 64)
        stats_b = decision_stats_from_vector(vector_b, 3, 1.0, 64)
        assert stats_a.censored == 0 and stats_b.censored == 0
        assert stats_a.mean_rounds - stats_b.mean_rounds != pytest.approx(
            -1.0
        )

    def test_default_rng_reproducible_per_call(self):
        """Content-derived default seeding: the same call always sees the
        same start points."""
        from repro.experiments.decision import decision_stats_from_vector

        vector = np.array([False] * 10 + [True] * 20)
        first = decision_stats_from_vector(vector, 3, 1.0, 16)
        second = decision_stats_from_vector(vector, 3, 1.0, 16)
        assert first == second

    def test_deterministic_with_seeded_rng(self):
        trace = trace_from_bits([0, 1, 1, 1] * 8)
        a = decision_stats(
            trace, "ES", 1.0, 10, rng=np.random.default_rng(5)
        )
        b = decision_stats(
            trace, "ES", 1.0, 10, rng=np.random.default_rng(5)
        )
        assert a == b

    def test_zero_window_rejected(self):
        """Regression: ``window=0`` reported ``mean_rounds == 1.0`` — a
        "decision" reached on zero satisfying rounds."""
        from repro.experiments.decision import decision_stats_from_vector

        never = np.zeros(20, dtype=bool)
        with pytest.raises(ValueError, match="window"):
            decision_stats_from_vector(
                never, 0, 1.0, 4, rng=np.random.default_rng(0)
            )
        with pytest.raises(ValueError, match="window"):
            decision_stats(
                trace_from_bits([0] * 20), "ES", 1.0, 4, window=0,
                rng=np.random.default_rng(0),
            )

    def test_negative_start_points_rejected(self):
        """Regression: a negative count surfaced as NumPy's "negative
        dimensions are not allowed" from inside the draw."""
        from repro.experiments.decision import decision_stats_from_vector

        with pytest.raises(ValueError, match="start_points"):
            decision_stats_from_vector(
                np.ones(20, dtype=bool), 3, 1.0, -1,
                rng=np.random.default_rng(0),
            )

    def test_no_start_points_is_an_empty_measurement(self):
        from repro.experiments.decision import decision_stats_from_vector

        stats = decision_stats_from_vector(
            np.ones(20, dtype=bool), 3, 1.0, 0, rng=np.random.default_rng(0)
        )
        assert (stats.samples, stats.censored) == (0, 0)
        assert stats.mean_rounds != stats.mean_rounds  # NaN
