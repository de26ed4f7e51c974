"""Property-based tests of Algorithm 2's internal invariants.

These are the paper's lemmas, checked on random executions:

- Lemma 1: a process's timestamp at the start of round k is less than k.
- Lemma 2: a process's timestamp is non-decreasing.
- Lemma 3 (observable form): all COMMIT messages produced at the end of
  one round carry the same estimate.
- Write-once decisions; DECIDE messages carry the decided value.
"""

from hypothesis import given, settings, strategies as st

from repro.consensus.base import MsgType
from repro.core import WlmConsensus
from repro.giraf import (
    IIDSchedule,
    LockstepRunner,
    StableAfterSchedule,
)
from repro.giraf.kernel import RoundOutput
from repro.giraf.oracle import EventuallyStableLeaderOracle


class InstrumentedWlm(WlmConsensus):
    """Records (round, ts, est, msg_type, decision) after each compute."""

    def __init__(self, pid, n, proposal, log):
        super().__init__(pid, n, proposal)
        self.log = log

    def compute(self, round_number: int, messages, oracle_output) -> RoundOutput:
        output = super().compute(round_number, messages, oracle_output)
        self.log.append(
            {
                "pid": self.pid,
                "round": round_number,
                "ts": self.ts,
                "est": self.est,
                "msg_type": self.msg_type,
                "decision": self._decision,
            }
        )
        return output


@st.composite
def wlm_world(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    p_chaos = draw(st.floats(min_value=0.0, max_value=1.0))
    gsr = draw(st.integers(min_value=1, max_value=10))
    leader = draw(st.integers(min_value=0, max_value=n - 1))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    proposals = draw(
        st.lists(st.integers(-50, 50), min_size=n, max_size=n)
    )
    return n, p_chaos, gsr, leader, seed, proposals


def run_instrumented(world, max_rounds=60):
    n, p_chaos, gsr, leader, seed, proposals = world
    log: list[dict] = []
    schedule = StableAfterSchedule(
        IIDSchedule(n, p=p_chaos, seed=seed),
        gsr=gsr,
        model="WLM",
        leader=leader,
        seed=seed + 1,
    )
    oracle = EventuallyStableLeaderOracle(
        leader=leader, stable_from=gsr, n=n, seed=seed + 2
    )
    runner = LockstepRunner(
        n,
        lambda pid: InstrumentedWlm(pid, n, proposals[pid], log),
        oracle,
        schedule,
    )
    result = runner.run(max_rounds=max_rounds)
    return result, log


@given(world=wlm_world())
@settings(max_examples=50, deadline=None)
def test_lemma_1_timestamp_below_round_number(world):
    _, log = run_instrumented(world)
    for entry in log:
        # ts set at the end of round k is at most k; at the *start* of
        # round k+1 it is therefore < k+1.
        assert entry["ts"] <= entry["round"]


@given(world=wlm_world())
@settings(max_examples=50, deadline=None)
def test_lemma_2_timestamps_nondecreasing(world):
    _, log = run_instrumented(world)
    last_ts: dict[int, int] = {}
    for entry in log:
        pid = entry["pid"]
        if pid in last_ts:
            assert entry["ts"] >= last_ts[pid]
        last_ts[pid] = entry["ts"]


@given(world=wlm_world())
@settings(max_examples=50, deadline=None)
def test_lemma_3_same_round_commits_agree(world):
    _, log = run_instrumented(world)
    commits_by_round: dict[int, set] = {}
    for entry in log:
        if entry["msg_type"] == MsgType.COMMIT and entry["decision"] is None:
            commits_by_round.setdefault(entry["round"], set()).add(entry["est"])
    for round_number, estimates in commits_by_round.items():
        assert len(estimates) == 1, (round_number, estimates)


@given(world=wlm_world())
@settings(max_examples=50, deadline=None)
def test_decisions_are_write_once_and_stable(world):
    _, log = run_instrumented(world)
    decided: dict[int, object] = {}
    for entry in log:
        if entry["decision"] is not None:
            pid = entry["pid"]
            if pid in decided:
                assert entry["decision"] == decided[pid]
            decided[pid] = entry["decision"]


@given(world=wlm_world())
@settings(max_examples=50, deadline=None)
def test_commit_timestamps_equal_commit_round(world):
    _, log = run_instrumented(world)
    for entry in log:
        if entry["msg_type"] == MsgType.COMMIT and entry["decision"] is None:
            assert entry["ts"] == entry["round"]
