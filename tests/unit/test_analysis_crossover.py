"""Unit tests for crossover and optimum finding."""

import numpy as np
import pytest

from repro.analysis.crossover import (
    decision_time_curve,
    find_crossover,
    optimal_timeout,
)
from repro.analysis.equations import expected_decision_rounds

N = 8


class TestFindCrossover:
    def test_lm_beats_afm_near_paper_value(self):
        # Paper: "from p = 0.96, LM becomes better [than AFM]".
        crossover = find_crossover("LM", "AFM", N, p_low=0.7)
        assert crossover == pytest.approx(0.96, abs=0.01)

    def test_wlm_beats_afm_near_paper_value(self):
        # Paper: "starting from p = 0.97, the direct algorithm for WLM
        # becomes better".
        crossover = find_crossover("WLM", "AFM", N, p_low=0.7)
        assert crossover == pytest.approx(0.97, abs=0.012)

    def test_crossover_point_actually_crosses(self):
        crossover = find_crossover("LM", "AFM", N, p_low=0.7)
        before = expected_decision_rounds(crossover - 0.01, N, "LM")
        after = expected_decision_rounds(crossover + 0.01, N, "LM")
        afm_before = expected_decision_rounds(crossover - 0.01, N, "AFM")
        afm_after = expected_decision_rounds(crossover + 0.01, N, "AFM")
        assert before > afm_before
        assert after < afm_after

    def test_wlm_never_beats_lm(self):
        assert find_crossover("WLM", "LM", N, p_low=0.7) is None

    def test_always_better_returns_p_low(self):
        # LM is better than WLM_SIM everywhere in the range.
        assert find_crossover("LM", "WLM_SIM", N, p_low=0.9) == 0.9

    @pytest.mark.parametrize("model_a", ["LM", "WLM"])
    def test_grid_signs_match_per_point_evaluation(self, model_a):
        """The grid is evaluated in one array call per model; its signs —
        hence the bracket handed to the bisection — are the ones a scalar
        call per grid point gives, for both headline pairs."""
        grid = np.linspace(0.7, 0.999999, 2048)
        vectorised = (
            expected_decision_rounds(grid, N, model_a)
            - expected_decision_rounds(grid, N, "AFM")
        ) > 0
        per_point = np.array(
            [
                float(expected_decision_rounds(p, N, model_a))
                - float(expected_decision_rounds(p, N, "AFM"))
                > 0
                for p in grid
            ]
        )
        assert np.array_equal(vectorised, per_point)
        last = int(np.flatnonzero(per_point)[-1])
        crossover = find_crossover(model_a, "AFM", N, p_low=0.7)
        assert grid[last] < crossover <= grid[last + 1]

    @pytest.mark.parametrize(
        "tolerance", [0.0, -1e-6, float("nan"), float("inf")]
    )
    def test_unusable_tolerance_rejected(self, tolerance):
        """Regression: ``tolerance=0`` never returned (the bisection stalls
        once the bracket is one ulp wide), NaN skipped the refinement and
        returned the raw grid point."""
        with pytest.raises(ValueError, match="tolerance"):
            find_crossover("LM", "AFM", N, p_low=0.7, tolerance=tolerance)

    @pytest.mark.parametrize("p_low, p_high", [(0.9, 0.9), (0.95, 0.9)])
    def test_empty_interval_rejected(self, p_low, p_high):
        """Regression: an empty or reversed interval returned ``None``,
        the answer for "never ahead"."""
        with pytest.raises(ValueError, match="p_low"):
            find_crossover("LM", "AFM", N, p_low=p_low, p_high=p_high)


class TestOptimalTimeout:
    def test_picks_minimum(self):
        timeouts = [0.1, 0.2, 0.3]
        times = [1.0, 0.5, 0.9]
        assert optimal_timeout(timeouts, times) == (0.2, 0.5)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            optimal_timeout([0.1], [1.0, 2.0])
        with pytest.raises(ValueError):
            optimal_timeout([], [])

    def test_nan_cell_never_wins(self):
        """Regression: ``np.argmin`` returns the index of a NaN, so a
        sweep cell that never decided used to become the "optimum" with a
        ``nan`` decision time.  NaN cells must be skipped."""
        timeouts = [0.1, 0.2, 0.3]
        times = [float("nan"), 0.5, 0.9]
        best_t, best_v = optimal_timeout(timeouts, times)
        assert best_t == 0.2
        assert best_v == 0.5
        # NaN in the middle, minimum after it: still found.
        assert optimal_timeout(timeouts, [0.9, float("nan"), 0.5]) == (
            0.3,
            0.5,
        )

    def test_all_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            optimal_timeout([0.1, 0.2], [float("nan"), float("nan")])


class TestDecisionTimeCurve:
    def test_elementwise_product(self):
        assert decision_time_curve([0.1, 0.2], [10, 4]) == [
            pytest.approx(1.0),
            pytest.approx(0.8),
        ]

    def test_tradeoff_shape_from_analysis(self):
        # The analytic version of Figure 1(i): rounds fall as p rises with
        # the timeout, cost per round rises; the product is convex-ish with
        # an interior optimum.
        import numpy as np
        from repro.analysis.equations import expected_decision_rounds

        # Toy timeout -> p mapping resembling Figure 1(d).
        timeouts = np.linspace(0.14, 0.35, 15)
        p_of_t = 0.999 - 0.15 * np.exp(-(timeouts - 0.13) / 0.04)
        rounds = [float(expected_decision_rounds(p, N, "WLM")) for p in p_of_t]
        curve = decision_time_curve(list(timeouts), rounds)
        best = int(np.argmin(curve))
        assert 0 < best < len(curve) - 1  # interior optimum
