"""Unit tests for the generic round automaton (Algorithm 1)."""

import pytest

from repro.giraf.kernel import GirafAlgorithm, RoundOutput
from repro.giraf.oracle import NullOracle, Oracle
from repro.giraf.process import GirafProcess


class Echo(GirafAlgorithm):
    """Sends its round number to everyone; records compute calls."""

    def __init__(self, pid: int, n: int):
        self.pid = pid
        self.n = n
        self.compute_calls: list[int] = []
        self.seen_messages: dict[int, dict] = {}
        self.seen_oracle: list[object] = []

    def initialize(self, oracle_output):
        self.seen_oracle.append(oracle_output)
        return RoundOutput(("round", 1), frozenset(range(self.n)))

    def compute(self, round_number, messages, oracle_output):
        self.compute_calls.append(round_number)
        self.seen_messages[round_number] = dict(messages)
        self.seen_oracle.append(oracle_output)
        return RoundOutput(("round", round_number + 1), frozenset(range(self.n)))


class Scripted(Oracle):
    """Answers each query with the next of a fixed list, logging who asked."""

    def __init__(self, *outputs):
        self.outputs = list(outputs)
        self.queries: list[tuple[int, int]] = []

    def query(self, pid, round_number):
        self.queries.append((pid, round_number))
        return self.outputs.pop(0)


class Watcher:
    """An observer recording every hook call."""

    def __init__(self):
        self.calls: list[tuple] = []

    def on_oracle(self, *args):
        self.calls.append(("on_oracle", *args))

    def on_decision(self, *args):
        self.calls.append(("on_decision", *args))


NULL = NullOracle()


class TestGirafProcess:
    def make(self, pid=0, n=3):
        return GirafProcess(pid, Echo(pid, n))

    def test_first_end_of_round_initializes(self):
        proc = self.make()
        proc.end_of_round(Scripted("oracle-0"))
        assert proc.round == 1
        assert proc.outgoing_payload == ("round", 1)
        assert proc.algorithm.compute_calls == []

    def test_subsequent_end_of_rounds_compute(self):
        proc = self.make()
        proc.end_of_round(NULL)
        proc.end_of_round(NULL)
        proc.end_of_round(NULL)
        assert proc.round == 3
        assert proc.algorithm.compute_calls == [1, 2]

    def test_own_message_recorded_in_inbox(self):
        proc = self.make(pid=1)
        proc.end_of_round(NULL)
        assert proc.slots == {1: {1: ("round", 1)}}

    def test_send_targets_exclude_self(self):
        proc = self.make(pid=1, n=3)
        proc.end_of_round(NULL)
        assert proc.transmit_targets(3) == [0, 2]

    def test_receive_stores_by_round_and_sender(self):
        proc = self.make()
        proc.end_of_round(NULL)
        proc.receive(1, 2, "hello")
        proc.end_of_round(NULL)
        assert proc.algorithm.seen_messages[1] == {0: ("round", 1), 2: "hello"}

    def test_compute_reads_its_round_only(self):
        proc = self.make()
        proc.end_of_round(NULL)
        proc.receive(2, 1, "early")
        proc.end_of_round(NULL)  # computes round 1
        assert 1 not in proc.algorithm.seen_messages[1]
        proc.end_of_round(NULL)  # computes round 2
        assert proc.algorithm.seen_messages[2][1] == "early"

    def test_computed_rounds_are_forgotten(self):
        proc = self.make()
        for _ in range(5):
            proc.end_of_round(NULL)
        assert list(proc.slots) == [proc.round]

    def test_message_for_a_past_round_is_dropped(self):
        proc = self.make()
        proc.end_of_round(NULL)
        proc.end_of_round(NULL)  # now in round 2
        proc.receive(1, 2, "late")
        assert list(proc.slots) == [2]

    def test_jump_skips_rounds(self):
        proc = self.make()
        proc.end_of_round(NULL)  # round 1
        proc.receive(7, 2, "trigger")
        proc.end_of_round(NULL, next_round=7)
        assert proc.round == 7
        # The message produced by that compute is recorded as round 7's,
        # next to the one that triggered the jump.
        assert proc.slots == {7: {2: "trigger", 0: ("round", 2)}}

    def test_jump_backwards_rejected(self):
        proc = self.make()
        proc.end_of_round(NULL)
        proc.end_of_round(NULL)
        with pytest.raises(ValueError):
            proc.end_of_round(NULL, next_round=1)

    def test_oracle_output_passed_through(self):
        proc = self.make(pid=2)
        oracle = Scripted("a", "b")
        proc.end_of_round(oracle)
        proc.end_of_round(oracle)
        assert proc.algorithm.seen_oracle == ["a", "b"]
        assert oracle.queries == [(2, 0), (2, 1)]

    def test_end_of_round_reports_to_observers_and_returns_decision(self):
        class DecideAtTwo(Echo):
            def decision(self):
                return "v" if 2 in self.compute_calls else None

        proc = GirafProcess(1, DecideAtTwo(1, 3))
        watcher = Watcher()
        oracle = Scripted("a", "b", "c", "d")
        returned = [proc.end_of_round(oracle, [watcher]) for _ in range(4)]
        assert returned == [None, None, "v", "v"]
        assert watcher.calls == [
            ("on_oracle", 1, 0, "a"),
            ("on_oracle", 1, 1, "b"),
            ("on_oracle", 1, 2, "c"),
            ("on_decision", 1, 2, "v"),
            ("on_oracle", 1, 3, "d"),
            ("on_decision", 1, 3, "v"),
        ]

    def test_no_payload_means_no_send_targets(self):
        class Silent(GirafAlgorithm):
            def initialize(self, oracle_output):
                return RoundOutput(None, frozenset({0, 1, 2}))

            def compute(self, round_number, messages, oracle_output):
                return RoundOutput(None, frozenset({0, 1, 2}))

        proc = GirafProcess(0, Silent())
        proc.end_of_round(NULL)
        assert proc.transmit_targets(3) == []
