"""Property-based tests of the SMR layer: random workloads, random
networks — replicas must stay identical."""

from hypothesis import given, settings, strategies as st

from repro.core import WlmConsensus
from repro.giraf import FixedLeaderOracle, IIDSchedule, StableAfterSchedule
from repro.smr import Command, KVStore, ReplicaGroup

keys = st.sampled_from(["a", "b", "c"])
operations = st.one_of(
    st.tuples(st.just("set"), keys, st.text(min_size=1, max_size=3)),
    st.tuples(st.just("get"), keys),
    st.tuples(st.just("del"), keys),
    st.tuples(st.just("cas"), keys, st.text(max_size=2), st.text(max_size=2)),
)


@st.composite
def workload(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    commands = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), operations),
            min_size=1,
            max_size=8,
        )
    )
    seed = draw(st.integers(0, 2**31))
    gsr = draw(st.integers(1, 6))
    p_chaos = draw(st.floats(0.2, 1.0))
    return n, commands, seed, gsr, p_chaos


@given(world=workload())
@settings(max_examples=25, deadline=None)
def test_replica_group_stays_consistent(world):
    n, commands, seed, gsr, p_chaos = world

    def schedule_factory(slot):
        return StableAfterSchedule(
            IIDSchedule(n, p=p_chaos, seed=seed + slot),
            gsr=gsr,
            model="WLM",
            leader=0,
            seed=seed + slot + 1,
        )

    group = ReplicaGroup(
        n,
        lambda pid, size, proposal: WlmConsensus(pid, size, proposal),
        FixedLeaderOracle(0),
        schedule_factory,
        KVStore,
    )
    for index, (replica, op) in enumerate(commands):
        group.submit(replica, Command(client_id=replica, seq=index, op=op))
    group.run_until_drained(max_slots=len(commands) * 12 + 10)
    assert group.consistent()
    decided = [entry for entry in group.log if not entry.is_noop()]
    assert len(decided) == len(commands)
