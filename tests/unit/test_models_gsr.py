"""Unit tests for GSR detection and decision windows."""

import pytest

from repro.models.gsr import (
    first_satisfying_window,
    gsr_of_trace,
    rounds_to_decision,
)
from repro.models.matrix import empty_matrix, full_matrix


def trace_from_bits(bits):
    """ES-satisfaction trace: 1 -> full matrix, 0 -> empty matrix."""
    return [full_matrix(3) if b else empty_matrix(3) for b in bits]


class TestGsrOfTrace:
    def test_leader_passed_through(self):
        trace = trace_from_bits([0, 1, 1])
        assert gsr_of_trace(trace, "WLM", leader=1) == 1


class TestFirstSatisfyingWindow:
    def test_bad_args(self):
        trace = trace_from_bits([1])
        with pytest.raises(ValueError):
            first_satisfying_window(trace, "ES", window=0)
        with pytest.raises(ValueError):
            first_satisfying_window(trace, "ES", window=1, start=-1)


class TestRoundsToDecision:
    def test_immediate_stability(self):
        trace = trace_from_bits([1, 1, 1, 1])
        # Window of 3 completes at index 2; from start 0 that is 3 rounds.
        assert rounds_to_decision(trace, "ES", start=0) == 3

    def test_waits_out_instability(self):
        trace = trace_from_bits([0, 1, 0, 1, 1, 1])
        # Window starts at 3, ends at 5: 6 rounds from start 0.
        assert rounds_to_decision(trace, "ES", start=0) == 6

    def test_uses_model_decision_rounds_by_default(self):
        # AFM needs 5 consecutive rounds.
        trace = trace_from_bits([1, 1, 1, 1, 0, 1, 1, 1, 1, 1])
        assert rounds_to_decision(trace, "AFM", start=0) == 10

    def test_explicit_window_override(self):
        trace = trace_from_bits([1, 1, 1])
        assert rounds_to_decision(trace, "AFM", start=0, window=2) == 2
