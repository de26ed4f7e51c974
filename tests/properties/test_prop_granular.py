"""Property tests for Granular Synchrony and the stability-window adversary.

Three families of guarantees:

- the GS predicates are scalar/batch **equivalent** on arbitrary round
  matrices, including matrices derived from latency traces containing
  ``inf`` (losses) and ``NaN`` (censored probes);
- :class:`~repro.net.granular.GranularProfile` honours the per-link
  contract on every sampling path (scalar, round matrix, trace batch);
- a :class:`~repro.faults.adversary.StabilityWindowAdversary` scenario is
  **bit-reproducible**: the scalar and batched event-stack executions
  agree exactly, and evaluating the same adversary cells through the
  sweep engine's process-pool executor (``--jobs``) returns the same
  bits as the serial path.
"""

from functools import partial

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import simulate_adversary_decision_rounds
from repro.experiments.measurement import timely_matrices
from repro.experiments.parallel import make_cell_executor
from repro.faults import StabilityWindowAdversary
from repro.models.properties import (
    batch_satisfies_granular,
    batch_satisfies_gs,
    canonical_granular_assumptions,
    granular_guaranteed,
    satisfies_granular,
    satisfies_gs,
)
from repro.net import (
    GranularProfile,
    lan_profile,
    measure_latency_table,
    uniform_wan_profile,
)
from repro.sync import probe_run, twin_runs


class TestPredicateEquivalence:
    @given(
        n=st.integers(min_value=3, max_value=9),
        seed=st.integers(0, 2**31),
        p=st.floats(min_value=0.5, max_value=1.0),
        batch=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=80)
    def test_scalar_equals_batch(self, n, seed, p, batch):
        rng = np.random.default_rng(seed)
        matrices = rng.random((batch, n, n)) < p
        vectorized = batch_satisfies_gs(matrices)
        scalar = np.array([satisfies_gs(m) for m in matrices])
        assert np.array_equal(vectorized, scalar)

    @given(
        n=st.integers(min_value=3, max_value=8),
        seed=st.integers(0, 2**31),
        drop=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60)
    def test_scalar_equals_batch_under_correct_restriction(
        self, n, seed, drop
    ):
        rng = np.random.default_rng(seed)
        matrices = rng.random((32, n, n)) < 0.9
        guaranteed = granular_guaranteed(canonical_granular_assumptions(n))
        crashed = list(rng.choice(n, size=min(drop, n - 2), replace=False))
        correct = [p_ for p_ in range(n) if p_ not in crashed]
        vectorized = batch_satisfies_granular(
            matrices, guaranteed, correct=correct
        )
        scalar = np.array(
            [
                satisfies_granular(m, guaranteed, correct=correct)
                for m in matrices
            ]
        )
        assert np.array_equal(vectorized, scalar)

    @given(
        seed=st.integers(0, 2**31),
        timeout=st.floats(min_value=0.01, max_value=0.5),
        nan_frac=st.floats(min_value=0.0, max_value=0.4),
        inf_frac=st.floats(min_value=0.0, max_value=0.4),
    )
    @settings(max_examples=60)
    def test_latency_traces_with_nan_and_inf(
        self, seed, timeout, nan_frac, inf_frac
    ):
        # The extractor feeds the predicates matrices thresholded from
        # live latency windows, where inf marks a loss and NaN a censored
        # probe; neither may satisfy a link, and scalar/batch must agree.
        n = 6
        rng = np.random.default_rng(seed)
        trace = rng.uniform(0.0, 0.6, size=(24, n, n))
        trace[rng.random(trace.shape) < inf_frac] = np.inf
        trace[rng.random(trace.shape) < nan_frac] = np.nan
        matrices = timely_matrices(trace, timeout)
        assert matrices.dtype == bool
        vectorized = batch_satisfies_gs(matrices)
        scalar = np.array([satisfies_gs(m) for m in matrices])
        assert np.array_equal(vectorized, scalar)


class TestProfileContract:
    @given(
        seed=st.integers(0, 2**31),
        sync_bound=st.floats(min_value=0.005, max_value=0.1),
        slack=st.floats(min_value=1.0, max_value=4.0),
        rounds=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_sampling_path_honours_the_bounds(
        self, seed, sync_bound, slack, rounds
    ):
        psync_bound = sync_bound * slack
        profile = GranularProfile(
            uniform_wan_profile(n=8, seed=seed),
            sync_bound=sync_bound,
            psync_bound=psync_bound,
        )
        sync, psync = profile._sync_mask, profile._psync_mask
        matrix = profile.sample_round_latencies(now=0.0)
        assert (matrix[sync] <= sync_bound).all()
        assert (matrix[psync] <= psync_bound).all()
        trace = profile.sample_trace_batch(rounds, 0.1)
        assert (trace[np.broadcast_to(sync, trace.shape)] <= sync_bound).all()
        assert (
            trace[np.broadcast_to(psync, trace.shape)] <= psync_bound
        ).all()
        for dst in range(8):
            for src in range(8):
                sample = profile.sample_latency(src, dst, now=0.0)
                if sync[dst, src]:
                    assert sample is not None and sample <= sync_bound
                elif psync[dst, src]:
                    assert sample is not None and sample <= psync_bound


class TestAdversaryBitReproducibility:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        gsr=st.integers(min_value=10, max_value=22),
        suppression=st.sampled_from([1.0, 0.8]),
    )
    @settings(max_examples=10, deadline=None)
    def test_scalar_and_batched_stacks_agree(self, seed, gsr, suppression):
        n = 8
        plan = StabilityWindowAdversary(
            n=n,
            gsr_round=gsr,
            window_length=2,
            window_period=5,
            suppression_prob=suppression,
            seed=seed,
        ).to_plan()
        table = measure_latency_table(
            uniform_wan_profile(n=n, seed=seed + 1), pings=3
        )
        twins = twin_runs(
            lambda: probe_run(
                uniform_wan_profile(n=n, seed=seed), table, 0.1, gsr + 10,
                plan=plan,
            )
        )
        assert twins.auto_run.executed_mode == "batch"
        assert twins.diverged == []

    def test_granular_profile_rides_the_batch_path_under_the_adversary(self):
        n = 8
        plan = StabilityWindowAdversary(n=n, gsr_round=12, seed=3).to_plan()
        profile = lambda: GranularProfile(
            lan_profile(n=n, seed=4, slow_node=None),
            sync_bound=0.0006,
            psync_bound=0.0009,
        )
        table = measure_latency_table(profile(), pings=3)
        run = probe_run(profile(), table, 0.001, 20, plan=plan)
        run.run()
        assert run.executed_mode == "batch"


def _adversary_cell(args):
    """Module-level so the process-pool executor can pickle it."""
    gsr, seed = args
    adversary = StabilityWindowAdversary(n=6, gsr_round=gsr, seed=seed)
    return simulate_adversary_decision_rounds(
        adversary, 0.97, "GS", runs=8, seed=seed
    ).tolist()


class TestAdversaryAcrossJobs:
    def test_process_pool_matches_serial(self):
        cells = [(10, 0), (10, 1), (14, 2), (18, 3)]
        serial = [_adversary_cell(cell) for cell in cells]
        with make_cell_executor(2) as executor:
            futures = [
                executor.submit(_adversary_cell, cell) for cell in cells
            ]
            pooled = [future.result() for future in futures]
        assert pooled == serial
