"""Shared helpers for the test suite.

The consensus tests all follow the same pattern: build a schedule (chaotic
before GSR, model-satisfying after), run an algorithm on it, and check
safety (always) and liveness/round bounds (under the model).  The helpers
here keep individual tests declarative.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np
import pytest

from repro.consensus import AfmConsensus, EsConsensus, LmConsensus, PaxosConsensus
from repro.core import WlmConsensus
from repro.experiments import cache as cache_module
from repro.faults import FaultPlan
from repro.giraf import (
    EventuallyStableLeaderOracle,
    FixedLeaderOracle,
    IIDSchedule,
    LockstepRunner,
    NullOracle,
    StableAfterSchedule,
)
from repro.giraf.oracle import Oracle
from repro.giraf.runner import RunResult
from repro.giraf.schedule import Schedule

#: Consensus algorithm classes by name, for parametrized tests.
ALGORITHMS = {
    "WLM": WlmConsensus,
    "LM": LmConsensus,
    "ES": EsConsensus,
    "AFM": AfmConsensus,
    "PAXOS": PaxosConsensus,
}

#: The model under which each algorithm is live (and the worst-case number
#: of rounds after GSR its tests allow).  ES/LM/WLM figures are the stable
#: leader counts plus one round for oracle stabilization at GSR.
LIVENESS = {
    "WLM": ("WLM", 5),
    "LM": ("LM", 4),
    "ES": ("ES", 4),
    "AFM": ("AFM", 5),
    "PAXOS": ("WLM", 40),  # Paxos may take many rounds after GSR
}


def make_consensus_run(
    name: str,
    n: int = 5,
    gsr: int = 8,
    p_chaos: float = 0.4,
    leader: int = 0,
    seed: int = 1,
    proposals: Optional[Sequence[Any]] = None,
    oracle: Optional[Oracle] = None,
    schedule: Optional[Schedule] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_rounds: int = 120,
    oracle_stable_from: Optional[int] = None,
) -> RunResult:
    """Run one consensus algorithm under chaos-then-stable conditions."""
    algorithm_cls = ALGORITHMS[name]
    model, _ = LIVENESS[name]
    if proposals is None:
        proposals = [10 * (pid + 1) for pid in range(n)]
    if schedule is None:
        base = IIDSchedule(n, p=p_chaos, seed=seed)
        correct = None
        if fault_plan is not None:
            correct = sorted(fault_plan.correct())
        schedule = StableAfterSchedule(
            base, gsr=gsr, model=model, leader=leader, seed=seed + 1,
            correct=correct,
        )
    if oracle is None:
        if name in ("ES", "AFM"):
            oracle = NullOracle()
        else:
            stable_from = gsr if oracle_stable_from is None else oracle_stable_from
            oracle = EventuallyStableLeaderOracle(
                leader=leader, stable_from=stable_from, n=n, seed=seed + 2
            )
    runner = LockstepRunner(
        n,
        lambda pid: algorithm_cls(pid, n, proposals[pid]),
        oracle,
        schedule,
        fault_plan=fault_plan,
    )
    return runner.run(max_rounds=max_rounds)


def assert_safety(result: RunResult) -> None:
    """Uniform agreement + validity (checked on every run, decided or not)."""
    assert result.agreement_holds(), f"agreement violated: {result.decisions}"
    assert result.validity_holds(), (
        f"validity violated: decided {result.decisions}, "
        f"proposed {result.proposals}"
    )


@pytest.fixture
def small_n() -> int:
    return 5


@pytest.fixture(autouse=True)
def no_global_cache():
    """Keep the process-wide trace cache state clean across tests."""
    cache_module.deactivate()
    yield
    cache_module.deactivate()


class FixedLatency:
    """A link model with scripted latencies (None = lost); it records
    every link and instant it is asked about."""

    def __init__(self, latency: Optional[float]):
        self.latency = latency
        self.asked: list[tuple[int, int, float]] = []

    def sample_latency(self, src: int, dst: int, now: float) -> Optional[float]:
        self.asked.append((src, dst, now))
        return self.latency


def assert_sweeps_identical(a, b) -> None:
    """Two WAN sweeps hold the same leader, runs, ``p`` and matrices."""
    assert a.leader == b.leader
    assert list(a.runs) == list(b.runs)
    for timeout in a.runs:
        for run_a, run_b in zip(a.runs[timeout], b.runs[timeout]):
            assert run_a.p == run_b.p
            assert run_a.matrices.dtype == run_b.matrices.dtype
            assert np.array_equal(run_a.matrices, run_b.matrices)
