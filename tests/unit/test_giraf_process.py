"""Unit tests for the generic round automaton (Algorithm 1)."""

import pytest

from repro.giraf.kernel import GirafAlgorithm, Inbox, RoundOutput
from repro.giraf.process import GirafProcess


class Echo(GirafAlgorithm):
    """Sends its round number to everyone; records compute calls."""

    def __init__(self, pid: int, n: int):
        self.pid = pid
        self.n = n
        self.compute_calls: list[int] = []
        self.seen_oracle: list[object] = []

    def initialize(self, oracle_output):
        self.seen_oracle.append(oracle_output)
        return RoundOutput(("round", 1), frozenset(range(self.n)))

    def compute(self, round_number, inbox: Inbox, oracle_output):
        self.compute_calls.append(round_number)
        self.seen_oracle.append(oracle_output)
        return RoundOutput(("round", round_number + 1), frozenset(range(self.n)))


class TestGirafProcess:
    def make(self, pid=0, n=3):
        return GirafProcess(pid, Echo(pid, n))

    def test_first_end_of_round_initializes(self):
        proc = self.make()
        proc.end_of_round("oracle-0")
        assert proc.round == 1
        assert proc.outgoing_payload == ("round", 1)
        assert proc.algorithm.compute_calls == []

    def test_subsequent_end_of_rounds_compute(self):
        proc = self.make()
        proc.end_of_round(None)
        proc.end_of_round(None)
        proc.end_of_round(None)
        assert proc.round == 3
        assert proc.algorithm.compute_calls == [1, 2]

    def test_own_message_recorded_in_inbox(self):
        proc = self.make(pid=1)
        proc.end_of_round(None)
        assert proc.inbox.get(1, 1) == ("round", 1)

    def test_send_targets_exclude_self(self):
        proc = self.make(pid=1, n=3)
        proc.end_of_round(None)
        assert proc.send_targets() == frozenset({0, 2})

    def test_receive_stores_by_round_and_sender(self):
        proc = self.make()
        proc.end_of_round(None)
        proc.receive(1, 2, "hello")
        assert proc.inbox.get(1, 2) == "hello"

    def test_jump_skips_rounds(self):
        proc = self.make()
        proc.end_of_round(None)  # round 1
        proc.end_of_round(None, next_round=7)
        assert proc.round == 7
        # The message produced by that compute is recorded as round 7's.
        assert proc.inbox.get(7, 0) == ("round", 2)

    def test_jump_backwards_rejected(self):
        proc = self.make()
        proc.end_of_round(None)
        proc.end_of_round(None)
        with pytest.raises(ValueError):
            proc.end_of_round(None, next_round=1)

    def test_oracle_output_passed_through(self):
        proc = self.make()
        proc.end_of_round("a")
        proc.end_of_round("b")
        assert proc.algorithm.seen_oracle == ["a", "b"]

    def test_no_payload_means_no_send_targets(self):
        class Silent(GirafAlgorithm):
            def initialize(self, oracle_output):
                return RoundOutput(None, frozenset({0, 1, 2}))

            def compute(self, round_number, inbox, oracle_output):
                return RoundOutput(None, frozenset({0, 1, 2}))

        proc = GirafProcess(0, Silent())
        proc.end_of_round(None)
        assert proc.send_targets() == frozenset()
