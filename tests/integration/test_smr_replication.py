"""Integration tests for state-machine replication over consensus."""

import pytest

from repro.consensus import AfmConsensus, LmConsensus, PaxosConsensus
from repro.core import WlmConsensus
from repro.giraf import IIDSchedule, NullOracle, StableAfterSchedule
from repro.giraf.oracle import FixedLeaderOracle
from repro.smr import Command, KVStore, ReplicaGroup

N = 5

# Each ``run_until_drained`` gets one slot per command it must decide:
# every slot's instance decides a pending command, so a stack that stops
# deciding fails at once instead of running 1 000 undecided slots.

ALGORITHM_SETUPS = {
    "WLM": (WlmConsensus, "WLM", True),
    "LM": (LmConsensus, "LM", True),
    "AFM": (AfmConsensus, "AFM", False),
    "PAXOS": (PaxosConsensus, "WLM", True),
}


def make_group(name, gsr=1, p_chaos=0.9, seed=5):
    algorithm_cls, model, needs_leader = ALGORITHM_SETUPS[name]

    def schedule_factory(slot):
        return StableAfterSchedule(
            IIDSchedule(N, p=p_chaos, seed=seed * 1000 + slot),
            gsr=gsr,
            model=model,
            leader=0,
            seed=seed * 1000 + slot + 1,
        )

    oracle = FixedLeaderOracle(0) if needs_leader else NullOracle()
    return ReplicaGroup(
        N,
        lambda pid, n, proposal: algorithm_cls(pid, n, proposal),
        oracle,
        schedule_factory,
        KVStore,
    )


@pytest.mark.parametrize("name", sorted(ALGORITHM_SETUPS))
class TestReplication:
    def test_single_command_replicates_everywhere(self, name):
        group = make_group(name)
        group.submit(0, Command(1, 1, ("set", "x", "42")))
        results = group.run_until_drained(max_slots=1)
        assert all(r.decided for r in results)
        assert group.consistent()
        for machine in group.machines:
            assert machine.get("x") == "42"

    def test_commands_from_different_replicas_all_apply(self, name):
        group = make_group(name)
        group.submit(0, Command(1, 1, ("set", "a", "1")))
        group.submit(2, Command(2, 1, ("set", "b", "2")))
        group.submit(4, Command(3, 1, ("set", "c", "3")))
        group.run_until_drained(max_slots=3)
        assert group.consistent()
        machine = group.machines[0]
        assert (machine.get("a"), machine.get("b"), machine.get("c")) == (
            "1",
            "2",
            "3",
        )

    def test_log_identical_prefix_property(self, name):
        group = make_group(name)
        for i in range(5):
            group.submit(i % N, Command(1, i, ("set", f"k{i}", str(i))))
        group.run_until_drained(max_slots=5)
        # The log is the serialization every replica applied.
        applied = [entry for entry in group.log if not entry.is_noop()]
        assert len(applied) == 5
        assert group.consistent()

    def test_cas_sequences_are_linearized(self, name):
        """Two CAS operations on the same key: exactly one wins, on every
        replica, and the winner is determined by log order."""
        group = make_group(name)
        group.submit(0, Command(1, 1, ("set", "lock", "free")))
        group.run_until_drained(max_slots=1)
        group.submit(1, Command(2, 1, ("cas", "lock", "free", "held-by-2")))
        group.submit(3, Command(3, 1, ("cas", "lock", "free", "held-by-3")))
        group.run_until_drained(max_slots=2)
        assert group.consistent()
        final = group.machines[0].get("lock")
        assert final in ("held-by-2", "held-by-3")
        cas_results = [
            group.applied_results[0][slot]
            for slot, entry in enumerate(group.log)
            if entry.op[0] == "cas"
        ]
        assert sorted(cas_results) == [False, True]


class TestReplicationUnderInstability:
    def test_wlm_group_survives_unstable_slots(self):
        """Some instances run through pre-GSR chaos; the group still
        drains and stays consistent."""
        group = make_group("WLM", gsr=8, p_chaos=0.3)
        for i in range(4):
            group.submit(i, Command(1, i, ("set", f"k{i}", str(i))))
        group.run_until_drained(max_slots=4)
        assert group.consistent()

    def test_leader_persists_across_instances(self):
        """The stable-leader setting: thousands of instances, one oracle —
        here a modest burst, checking the oracle is reused.  SMR promises
        the *same order everywhere*, not client-submission order, so the
        final value is whatever the (identical) log order ends with."""
        group = make_group("WLM")
        for i in range(10):
            group.submit(i % N, Command(1, i, ("set", "k", str(i))))
        group.run_until_drained(max_slots=10)
        decided = [entry for entry in group.log if not entry.is_noop()]
        assert len(decided) == 10
        expected_final = decided[-1].op[2]
        for machine in group.machines:
            assert machine.get("k") == expected_final
        assert group.instances_run >= 10

    def test_message_accounting_accumulates(self):
        group = make_group("WLM")
        group.submit(0, Command(1, 1, ("set", "x", "1")))
        group.run_until_drained(max_slots=1)
        assert group.total_messages > 0
        assert group.total_rounds > 0

    def test_an_idle_leader_forwards_the_oldest_pending_command(self):
        """Paxos decides its leader's proposal: with nothing of its own,
        leader 0 proposes the oldest command pending anywhere, so commands
        are decided in client order."""
        group = make_group("PAXOS", p_chaos=1.0)
        for client in (2, 1):
            group.submit(client, Command(client, 0, ("set", "k", str(client))))
        group.run_until_drained(max_slots=2)
        decided = [entry.client_id for entry in group.log if not entry.is_noop()]
        assert decided == [1, 2]
