"""Property test: the array window scan of ``decision_stats_from_vector``
against the per-start reference, ``models.gsr.rounds_to_decision``."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.experiments.decision import (
    DecisionStats,
    decision_stats_from_vector,
)
from repro.models.gsr import rounds_to_decision
from repro.models.matrix import empty_matrix, full_matrix


class FixedStarts:
    """Stands in for the generator: hands back the chosen start points, so
    the property also covers starts the first-half draw never produces."""

    def __init__(self, starts):
        self.starts = np.asarray(starts, dtype=np.int64)

    def integers(self, low, high, size):
        assert size == len(self.starts)
        return self.starts


def oracle(bits, window, starts, round_length):
    """The statistics one start at a time: ES holds on a full matrix and
    fails on an empty one, so the trace satisfies ES exactly where
    ``bits`` is true."""
    trace = [full_matrix(3) if bit else empty_matrix(3) for bit in bits]
    rounds = [
        rounds_to_decision(trace, "ES", start=start, window=window)
        for start in starts
    ]
    decided = [r for r in rounds if r is not None]
    mean = float(np.mean(decided)) if decided else float("nan")
    return DecisionStats(
        mean_rounds=mean,
        mean_time=mean * round_length,
        samples=len(decided),
        censored=len(rounds) - len(decided),
    )


@st.composite
def cases(draw):
    window = draw(st.integers(min_value=1, max_value=6))
    bits = draw(
        st.lists(st.booleans(), min_size=window + 1, max_size=window + 40)
    )
    starts = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(bits) - 1), max_size=12
        )
    )
    return bits, window, starts


@given(case=cases())
@example(case=([False] * 12, 3, [0, 5, 11]))  # never satisfied
@example(case=([True] * 12, 3, [0, 5, 11]))  # always satisfied
@example(case=([True] * 4, 3, [0, 1, 2, 3]))  # length window + 1
@example(case=([False, True, True, True], 3, [3]))  # start on the last index
@example(case=([True, True, False, True, True, True], 3, []))  # no starts
@settings(max_examples=400)
def test_window_scan_equals_the_per_start_reference(case):
    bits, window, starts = case
    stats = decision_stats_from_vector(
        np.array(bits), window, 0.25, len(starts), rng=FixedStarts(starts)
    )
    # Field for field and exact (both sides average the same integers in
    # the same order); by repr, so that NaN equals NaN.
    assert repr(stats) == repr(oracle(bits, window, starts, 0.25))
