"""Property-based tests for fault injection (fast profile).

Hypothesis generates bounded :class:`FaultPlan` timelines — crashes under
the resilience bound, loss bursts, partitions, slow nodes, leader churn —
and asserts that (a) every consensus algorithm preserves uniform
agreement and validity when the plan is injected into the lockstep
runner, (b) plan derivations are deterministic pure functions of the
seed, and (c) the event-driven run's per-round observations stay
mutually consistent under arbitrary loss and staggered starts.

Example counts are deliberately small (the injected runs are whole
consensus executions) to keep tier-1 quick; crank ``max_examples`` up
locally when hunting.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults import (
    Crash,
    FaultPlan,
    LeaderChurn,
    LossBurst,
    Partition,
    SlowNode,
)
from repro.giraf import (
    IIDSchedule,
    LockstepRunner,
    NullOracle,
    StableAfterSchedule,
)
from repro.giraf.oracle import EventuallyStableLeaderOracle
from repro.sim import Transport
from repro.sync import HeartbeatAlgorithm, SyncRun
from tests.conftest import ALGORITHMS, LIVENESS, assert_safety

algorithm_names = st.sampled_from(sorted(ALGORITHMS))

#: All plan windows live inside the first MAX_FAULT_ROUND rounds, so a
#: test can always place GSR after ``plan.quiet_after()``.
MAX_FAULT_ROUND = 10

rounds = st.integers(min_value=1, max_value=MAX_FAULT_ROUND)


@st.composite
def fault_plans(draw, n):
    """A bounded random plan for ``n`` processes.

    Process 0 never crashes permanently (it doubles as the leader in the
    consensus property, and a dead leader only stalls the run without
    testing anything beyond what the crash already does).
    """
    crashes = []
    max_crashers = (n + 1) // 2 - 1  # strict minority of distinct pids
    crash_pids = draw(
        st.lists(
            st.integers(min_value=1, max_value=n - 1),
            unique=True,
            max_size=max_crashers,
        )
    )
    for pid in crash_pids:
        at_round = draw(rounds)
        if draw(st.booleans()):
            recover_round = draw(
                st.integers(min_value=at_round + 1, max_value=MAX_FAULT_ROUND + 1)
            )
        else:
            recover_round = None
        crashes.append(Crash(pid, at_round, recover_round=recover_round))

    def window():
        start = draw(rounds)
        end = draw(st.integers(min_value=start, max_value=MAX_FAULT_ROUND))
        return start, end

    bursts = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        start, end = window()
        bursts.append(
            LossBurst(start, end, draw(st.floats(min_value=0.0, max_value=1.0)))
        )

    partitions = []
    if draw(st.booleans()):
        cut = draw(st.integers(min_value=1, max_value=n - 1))
        start, end = window()
        partitions.append(
            Partition(
                groups=(tuple(range(cut)), tuple(range(cut, n))),
                start_round=start,
                heal_round=end + 1,
            )
        )

    slow_nodes = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        start, end = window()
        slow_nodes.append(
            SlowNode(
                pid=draw(st.integers(min_value=0, max_value=n - 1)),
                start_round=start,
                end_round=end,
                factor=draw(st.floats(min_value=1.0, max_value=5.0)),
                drop_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
            )
        )

    churn = []
    if draw(st.booleans()):
        start, end = window()
        churn.append(LeaderChurn(start, end))

    return FaultPlan(
        n=n,
        crashes=tuple(crashes),
        loss_bursts=tuple(bursts),
        partitions=tuple(partitions),
        slow_nodes=tuple(slow_nodes),
        leader_churn=tuple(churn),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )


@st.composite
def plan_worlds(draw):
    n = draw(st.integers(min_value=4, max_value=6))
    plan = draw(fault_plans(n))
    proposals = draw(
        st.lists(
            st.integers(min_value=-100, max_value=100), min_size=n, max_size=n
        )
    )
    p_chaos = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, plan, proposals, p_chaos, seed


@given(name=algorithm_names, world=plan_worlds())
@settings(max_examples=15, deadline=None)
def test_consensus_safety_under_generated_plans(name, world):
    """Agreement + validity for every algorithm under an arbitrary
    injected plan; when no process dies for good, the run also decides
    once the plan goes quiet and the schedule stabilizes."""
    n, plan, proposals, p_chaos, seed = world
    model, _ = LIVENESS[name]
    gsr = plan.quiet_after() + 2
    dies = len(plan.correct()) < n
    schedule = StableAfterSchedule(
        IIDSchedule(n, p=p_chaos, seed=seed),
        gsr=gsr,
        model=model,
        leader=0,
        seed=seed + 1,
        correct=sorted(plan.correct()) if dies else None,
    )
    if name in ("ES", "AFM"):
        oracle = NullOracle()
    else:
        oracle = EventuallyStableLeaderOracle(
            leader=0, stable_from=gsr, n=n, seed=seed + 2
        )
    runner = LockstepRunner(
        n,
        lambda pid: ALGORITHMS[name](pid, n, proposals[pid]),
        oracle,
        schedule,
        fault_plan=plan,
    )
    result = runner.run(max_rounds=gsr + 90)
    assert_safety(result)
    # The runner's per-round transition: off the diagonal, a message is
    # delivered iff it was sent and the round's one timely graph has it.
    off = ~np.eye(n, dtype=bool)
    for k, (sent, delivered) in enumerate(
        zip(result.sent_matrices, result.delivered_matrices), start=1
    ):
        timely = sent & schedule.matrix(k) & ~plan.mask(k)
        assert (delivered[off] == timely[off]).all(), k
    if not dies:
        assert result.all_correct_decided, (
            f"{name} did not decide by round {result.rounds_executed} "
            f"(gsr={gsr}, plan={plan})"
        )


@given(world=plan_worlds(), k=st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_plan_derivations_are_pure(world, k):
    """Masks, churn leaders and down-sets are functions of (plan, round):
    rebuilt plans give bit-identical answers, in any query order."""
    n, plan, _proposals, _p_chaos, _seed = world
    twin = FaultPlan(
        n=plan.n,
        crashes=plan.crashes,
        loss_bursts=plan.loss_bursts,
        partitions=plan.partitions,
        slow_nodes=plan.slow_nodes,
        leader_churn=plan.leader_churn,
        seed=plan.seed,
    )
    # Query the twin backwards to rule out hidden sequential state.
    twin_masks = {j: twin.mask(j) for j in range(k, 0, -1)}
    for j in range(1, k + 1):
        assert (plan.mask(j) == twin_masks[j]).all()
        assert not plan.mask(j).diagonal().any()
        assert plan.churn_leader(j) == twin.churn_leader(j)
        for pid in range(n):
            assert plan.down_at(pid, j) == twin.down_at(pid, j)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_round_state_tabulates_the_per_call_predicates(data):
    """``round_state(k)`` is memoised per window-boundary epoch; whatever
    order rounds are asked in, it must give the per-call answers — on
    every window edge, for crash-recovery plans, and for partitions that
    overlap (a link is cut when *any* active partition separates it)."""
    n = data.draw(st.integers(min_value=4, max_value=6))
    base = data.draw(fault_plans(n))
    cut = data.draw(st.integers(min_value=1, max_value=n - 1))
    start = data.draw(rounds)
    second = Partition(
        groups=(tuple(range(0, n, 2)), tuple(range(1, n, 2)))
        if data.draw(st.booleans())
        else (tuple(range(cut)), tuple(range(cut, n))),
        start_round=start,
        heal_round=start + data.draw(st.integers(min_value=1, max_value=6)),
    )
    plan = FaultPlan(
        n=n,
        crashes=base.crashes,
        loss_bursts=base.loss_bursts,
        partitions=base.partitions + (second,),
        slow_nodes=base.slow_nodes,
        seed=base.seed,
    )
    # Every window starts and ends within MAX_FAULT_ROUND + 7, so this
    # range holds every edge, the round before it and the round after.
    for k in data.draw(st.permutations(range(1, MAX_FAULT_ROUND + 9))):
        state = plan.round_state(k)
        for a in range(n):
            assert state.down[a] == plan.down_at(a, k)
            assert state.slow[a] == plan.slow_factor(a, k)
            for b in range(n):
                assert state.cross[b, a] == plan.partitioned(a, b, k)
        assert state.bursts == tuple(
            index
            for index, burst in enumerate(plan.loss_bursts)
            if burst.active_at(k)
        )
        separated = any(
            p.active_at(k) and any((0 in g) != (1 in g) for g in p.groups)
            for p in plan.partitions
        )
        assert plan.partitioned(0, 1, k) == separated
    # The many-rounds form hands each round the state ``round_state``
    # does — the same object, one per epoch touched — in any order, with
    # repeats (several grid rounds can share a plan round).
    asked = np.array(
        data.draw(
            st.lists(st.integers(1, MAX_FAULT_ROUND + 8), min_size=1, max_size=30)
        )
    )
    states, index = plan.round_states(asked)
    assert len({id(state) for state in states}) == len(states)
    for k, row in zip(asked.tolist(), index.tolist()):
        assert states[row] is plan.round_state(k)


@given(world=plan_worlds())
@settings(max_examples=25, deadline=None)
def test_mask_quiesces_and_respects_correct_set(world):
    n, plan, _proposals, _p_chaos, _seed = world
    # quiet_after() excludes permanent crashes (they never heal), so
    # probe past their onsets as well.
    quiet = max(
        [plan.quiet_after()]
        + [c.at_round for c in plan.crashes if c.recover_round is None]
    )
    mask = plan.mask(quiet + 1)
    # After the quiet round only the permanently dead stay masked.
    dead = sorted(set(range(n)) - set(plan.correct()))
    live = [pid for pid in range(n) if pid not in dead]
    assert not mask[np.ix_(live, live)].any()
    for pid in dead:
        others = [q for q in range(n) if q != pid]
        assert mask[pid, others].all() and mask[others, pid].all()


class DroppyLatency:
    """A link model that loses messages i.i.d. — chaos for the event path."""

    def __init__(self, latency, drop_prob, seed):
        self.latency = latency
        self.drop_prob = drop_prob
        self.rng = np.random.default_rng(seed)

    def sample_latency(self, src, dst, now):
        if self.rng.random() < self.drop_prob:
            return None
        return self.latency


@given(
    drop_prob=st.floats(min_value=0.0, max_value=0.9),
    late_start=st.floats(min_value=0.0, max_value=1.2),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=10, deadline=None)
def test_sync_observations_stay_mutually_consistent(
    drop_prob, late_start, seed
):
    """For any loss pattern and boot stagger: one sync_error entry per
    matrix, nan exactly on the rounds some node never started, and rows
    populated exactly for the rounds each node executed."""
    n, timeout = 3, 0.2
    table = np.full((n, n), 0.05)
    np.fill_diagonal(table, 0.0)
    run = SyncRun(
        n,
        lambda pid: HeartbeatAlgorithm(pid, n),
        NullOracle(),
        lambda sim: Transport(sim, DroppyLatency(0.05, drop_prob, seed)),
        timeout=timeout,
        latency_table=table,
        start_times=[0.0, 0.0, late_start],
        max_rounds=10,
    )
    result = run.run()
    assert len(result.sync_error) == len(result.matrices)
    for k in range(1, len(result.matrices) + 1):
        matrix = result.matrices[k - 1]
        all_started = not np.isnan(run.log.starts[k]).any()
        assert np.isnan(result.sync_error[k - 1]) == (not all_started)
        for pid in range(n):
            executed = not np.isnan(run.log.ends[k, pid])
            assert matrix[pid, pid] == executed
            if not executed:
                assert not matrix[pid].any()
