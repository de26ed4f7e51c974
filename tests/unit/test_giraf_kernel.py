"""Unit tests for the GIRAF kernel: inbox and round outputs."""

import pytest

from repro.giraf.kernel import GirafAlgorithm, Inbox, RoundOutput


class TestInbox:
    def test_record_and_get(self):
        inbox = Inbox()
        inbox.record(1, 2, "m")
        assert inbox.get(1, 2) == "m"
        assert inbox.get(1, 3) is None
        assert inbox.get(2, 2) is None

    def test_round_view_contains_all_senders(self):
        inbox = Inbox()
        inbox.record(3, 0, "a")
        inbox.record(3, 1, "b")
        inbox.record(4, 0, "c")
        assert dict(inbox.round(3)) == {0: "a", 1: "b"}
        assert inbox.senders(3) == frozenset({0, 1})

    def test_empty_round_is_empty_mapping(self):
        inbox = Inbox()
        assert dict(inbox.round(9)) == {}
        assert inbox.senders(9) == frozenset()

    def test_late_message_lands_in_original_slot(self):
        # Algorithm 1 stores a round-k message under k no matter when it
        # arrives; a round-driven algorithm reading round k+5 never sees it.
        inbox = Inbox()
        inbox.record(2, 1, "late")
        assert inbox.get(2, 1) == "late"
        assert dict(inbox.round(7)) == {}

    def test_overwrite_keeps_latest(self):
        inbox = Inbox()
        inbox.record(1, 0, "first")
        inbox.record(1, 0, "second")
        assert inbox.get(1, 0) == "second"


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

            def compute(self, round_number, inbox, oracle_output):
                return RoundOutput(None, frozenset())

        assert Probe().decision() is None
