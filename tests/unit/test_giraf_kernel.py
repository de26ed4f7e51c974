"""Unit tests for the GIRAF kernel: the algorithm interface and round outputs."""

import pytest

from repro.giraf.kernel import GirafAlgorithm, RoundOutput


class TestRoundOutput:
    def test_round_output_is_frozen(self):
        output = RoundOutput("payload", frozenset({1}))
        with pytest.raises(AttributeError):
            output.payload = "other"  # type: ignore[misc]


class TestGirafAlgorithmDefaults:
    def test_default_decision_is_none(self):
        class Probe(GirafAlgorithm):
            def initialize(self, oracle_output):
                return RoundOutput(None, frozenset())

            def compute(self, round_number, messages, oracle_output):
                return RoundOutput(None, frozenset())

        assert Probe().decision() is None
