"""Performance microbenchmarks of the core machinery.

Unlike the figure/table benchmarks (which run once and assert shapes),
these time the hot paths with pytest-benchmark's full repetition
machinery: lockstep consensus rounds, model predicates, matrix sampling,
and the closed forms.  They guard against performance regressions that
would make the paper-scale sweeps impractical.
"""

import numpy as np

from repro.analysis import find_crossover
from repro.analysis.equations import expected_decision_rounds
from repro.core import WlmConsensus
from repro.experiments.decision import decision_stats_from_vector
from repro.giraf import (
    FixedLeaderOracle,
    IIDSchedule,
    LockstepRunner,
    StableAfterSchedule,
)
from repro.models import get_model
from repro.net.planetlab import PlanetLabProfile, planetlab_profile
from repro.sim import Clock
from repro.sync import probe_run


def test_perf_wlm_consensus_run(benchmark):
    """One full Algorithm 2 execution (n=8, chaos then stability)."""
    n = 8

    def run():
        schedule = StableAfterSchedule(
            IIDSchedule(n, p=0.4, seed=7), gsr=5, model="WLM", leader=0
        )
        runner = LockstepRunner(
            n,
            lambda pid: WlmConsensus(pid, n, pid),
            FixedLeaderOracle(0),
            schedule,
        )
        return runner.run(max_rounds=30)

    result = benchmark(run)
    assert result.all_correct_decided


def test_perf_model_predicates(benchmark):
    """All four predicates over a batch of 100 random matrices."""
    rng = np.random.default_rng(3)
    matrices = rng.random((100, 8, 8)) < 0.9
    for m in matrices:
        np.fill_diagonal(m, True)
    models = [get_model(name) for name in ("ES", "LM", "WLM", "AFM")]

    def evaluate():
        count = 0
        for matrix in matrices:
            for model in models:
                leader = 0 if model.needs_leader else None
                if model.satisfied(matrix, leader=leader):
                    count += 1
        return count

    count = benchmark(evaluate)
    assert 0 < count < 400


def test_perf_wan_round_sampling(benchmark):
    """Vectorized sampling of 100 WAN rounds (the sweeps' inner loop)."""
    profile = PlanetLabProfile(seed=5)

    def sample():
        return [profile.sample_round_latencies(k * 0.2) for k in range(100)]

    rounds = benchmark(sample)
    assert len(rounds) == 100


def test_perf_closed_forms(benchmark):
    """E(D_M) for all models over a 200-point p grid."""
    grid = np.linspace(0.9, 0.999, 200)

    def evaluate():
        return {
            model: expected_decision_rounds(grid, 8, model)
            for model in ("ES", "LM", "WLM", "WLM_SIM", "AFM")
        }

    curves = benchmark(evaluate)
    assert all(len(v) == 200 for v in curves.values())


def test_perf_decision_window_scan(benchmark):
    """Decision statistics on a never-satisfied 300-round run: every start
    point is censored, the case where a per-start search reads the whole
    tail of the trace once per start."""
    never = np.zeros(300, dtype=bool)
    rng = np.random.default_rng(11)

    stats = benchmark(
        lambda: decision_stats_from_vector(never, 3, 0.14, 15, rng=rng)
    )
    assert (stats.samples, stats.censored) == (0, 15)


def test_perf_find_crossover(benchmark):
    """The Section 4.2 headline crossover: a 2048-point grid plus bisection."""
    crossover = benchmark(lambda: find_crossover("LM", "AFM", 8, p_low=0.7))
    assert 0.95 < crossover < 0.97


def test_perf_event_loop(benchmark):
    """One 200-round heartbeat run on the scalar event loop, clocks
    heterogeneous and starts staggered — a class that is off the common
    round grid by construction, so the loop is its production engine:
    ~13k events through the queue, the transport's broadcast and the
    nodes' handlers."""
    n = 8
    profile = planetlab_profile(seed=7, slow_run_prob=0.0)

    def run():
        sync = probe_run(
            profile,
            np.full((n, n), 0.05),
            0.21,
            200,
            clocks=[Clock(offset=0.2 * i, drift=2e-5 * (i - 4)) for i in range(n)],
            start_times=[0.13 * i for i in range(n)],
        )
        return sync, sync.run(mode="scalar")

    sync, result = benchmark(run)
    assert sync.executed_mode == "scalar"
    assert len(result.matrices) > 0
