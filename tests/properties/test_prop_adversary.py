"""Property-based tests for the structured adversaries a :class:`FaultPlan`
states: partitions, periodic loss bursts and a silenced process, read
through :meth:`FaultPlan.mask`."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults import Crash, FaultPlan, LossBurst, Partition
from repro.giraf import IIDSchedule


@st.composite
def partition_world(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    pids = list(range(n))
    cut = draw(st.integers(min_value=1, max_value=n - 1))
    groups = (tuple(pids[:cut]), tuple(pids[cut:]))
    heal = draw(st.integers(min_value=2, max_value=15))
    seed = draw(st.integers(0, 2**31))
    plan = FaultPlan(n, partitions=(Partition(groups, 1, heal),), seed=seed)
    return n, groups, heal, plan


def cross_group(n, groups):
    group_of = {pid: index for index, group in enumerate(groups) for pid in group}
    return np.array(
        [[group_of[src] != group_of[dst] for src in range(n)] for dst in range(n)]
    )


@given(world=partition_world())
@settings(max_examples=100)
def test_partition_blocks_cross_group_until_heal(world):
    n, groups, heal, plan = world
    for k in {1, heal - 1}:
        assert (plan.mask(k) == cross_group(n, groups)).all()
    assert not plan.mask(heal).any()


@given(world=partition_world(), p=st.floats(0.0, 1.0))
@settings(max_examples=50)
def test_partition_intra_group_rate(world, p):
    """Inside a group the timely graph is the schedule's own draw."""
    n, groups, _heal, plan = world
    drawn = IIDSchedule(n, p=p, seed=plan.seed).matrix(1)
    timely = drawn & ~plan.mask(1)
    cross = cross_group(n, groups)
    assert np.diagonal(timely).all()
    assert (timely[~cross] == drawn[~cross]).all()
    assert not timely[cross].any()
    if p == 1.0:
        assert timely[~cross].all()


@given(
    n=st.integers(2, 8),
    calm=st.integers(1, 10),
    burst=st.integers(0, 6),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=100)
def test_bursty_phase_structure(n, calm, burst, seed):
    period = calm + burst
    last = 3 * period
    plan = FaultPlan(
        n,
        loss_bursts=tuple(
            LossBurst(start, start + burst - 1, 1.0)
            for start in range(calm + 1, last + 1, period)
        )
        if burst
        else (),
        seed=seed,
    )
    off = ~np.eye(n, dtype=bool)
    for k in range(1, last + 1):
        in_burst = (k - 1) % period >= calm
        assert any(b.active_at(k) for b in plan.loss_bursts) == in_burst
        mask = plan.mask(k)
        assert not mask.diagonal().any()
        if in_burst:
            assert mask[off].all()
        else:
            assert not mask.any()


@given(n=st.integers(3, 8), until=st.integers(2, 10))
@settings(max_examples=100)
def test_targeted_silence_scope(n, until):
    """A process frozen until ``until`` is cut off in both directions;
    everyone else communicates perfectly, and all of it heals at once."""
    victim = n - 1
    plan = FaultPlan(n, crashes=(Crash(victim, 1, recover_round=until),))
    before = plan.mask(until - 1)
    assert not plan.mask(until).any()
    others = [pid for pid in range(n) if pid != victim]
    assert before[victim, others].all()
    assert before[others, victim].all()
    assert not before[np.ix_(others, others)].any()
