"""Property-based safety tests: consensus under arbitrary adversity.

Hypothesis drives the loss pattern (per-round chaos probability), the GSR
placement, the oracle behaviour, the proposals and the crash pattern; for
every generated world, every algorithm must preserve uniform agreement and
validity, and must decide when the world stabilizes.
"""

from hypothesis import given, settings, strategies as st

from repro.faults import Crash, FaultPlan
from repro.giraf import IIDSchedule, LockstepRunner, NullOracle, RotatingLeaderOracle
from tests.conftest import ALGORITHMS, LIVENESS, assert_safety, make_consensus_run

algorithm_names = st.sampled_from(sorted(ALGORITHMS))


@st.composite
def consensus_world(draw):
    """A random small world: n, proposals, chaos level, GSR, seeds."""
    n = draw(st.integers(min_value=2, max_value=7))
    proposals = draw(
        st.lists(
            st.integers(min_value=-100, max_value=100), min_size=n, max_size=n
        )
    )
    p_chaos = draw(st.floats(min_value=0.0, max_value=1.0))
    gsr = draw(st.integers(min_value=1, max_value=12))
    leader = draw(st.integers(min_value=0, max_value=n - 1))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, proposals, p_chaos, gsr, leader, seed


@given(name=algorithm_names, world=consensus_world())
@settings(max_examples=60, deadline=None)
def test_safety_and_liveness_with_stabilization(name, world):
    n, proposals, p_chaos, gsr, leader, seed = world
    _, allowance = LIVENESS[name]
    result = make_consensus_run(
        name, n, gsr, p_chaos, leader, seed, proposals, max_rounds=gsr + 120
    )
    assert_safety(result)
    assert result.all_correct_decided
    # Hard per-algorithm bound for the leader-based algorithms; the AFM
    # reconstruction and Paxos have soft bounds (see their docstrings).
    if name in ("WLM", "LM", "ES"):
        assert result.global_decision_round <= gsr + allowance


@given(name=algorithm_names, world=consensus_world())
@settings(max_examples=40, deadline=None)
def test_safety_under_pure_chaos_with_rotating_oracle(name, world):
    n, proposals, p_chaos, _gsr, _leader, seed = world
    oracle = (
        NullOracle() if name in ("ES", "AFM") else RotatingLeaderOracle(n)
    )
    runner = LockstepRunner(
        n,
        lambda pid: ALGORITHMS[name](pid, n, proposals[pid]),
        oracle,
        IIDSchedule(n, p=p_chaos, seed=seed),
    )
    result = runner.run(max_rounds=40)
    assert_safety(result)


@given(
    name=algorithm_names,
    world=consensus_world(),
    crash_fraction=st.floats(min_value=0.0, max_value=0.49),
)
@settings(max_examples=40, deadline=None)
def test_safety_with_random_minority_crashes(name, world, crash_fraction):
    n, proposals, p_chaos, gsr, leader, seed = world
    crash_count = min(int(crash_fraction * n), (n - 1) // 2)
    # Crash the highest pids (keeping the leader alive keeps the run
    # decidable; safety must hold regardless).
    crashed = [pid for pid in range(n - 1, -1, -1) if pid != leader][:crash_count]
    plan = FaultPlan(n, crashes=tuple(Crash(pid, 1 + (pid % 5)) for pid in crashed))
    result = make_consensus_run(
        name, n, gsr, p_chaos, leader, seed, proposals, fault_plan=plan,
        max_rounds=gsr + 80,
    )
    assert_safety(result)


@given(world=consensus_world())
@settings(max_examples=30, deadline=None)
def test_unanimous_proposals_always_win(world):
    """With identical proposals, any decision must be that value, under
    any algorithm and any world."""
    n, _proposals, p_chaos, gsr, leader, seed = world
    for name in sorted(ALGORITHMS):
        result = make_consensus_run(
            name, n, gsr, p_chaos, leader, seed, [7] * n, max_rounds=gsr + 60
        )
        for value in result.decisions.values():
            assert value == 7
