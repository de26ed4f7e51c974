"""Property tests of the batch trace sampler.

Two families of guarantees (see DESIGN.md, "Batch trace generation"):

- *Faithfulness*: the batch path draws from the same distributions as the
  scalar paths it replaced.  The two consume randomness in different
  orders, so the comparison is distributional — delivery probability,
  median latency, tail frequency — never bit-level.

- *Purity*: a batch trace is a pure function of ``(profile parameters,
  seed)``.  It is bit-identical across repeated calls, across fresh model
  instances, and across worker processes — which is what makes the
  on-disk trace cache and the ``--jobs`` sweep engine safe.

- *Columns*: a trace is the first ``rounds`` rows of 256-round columns
  of the whole link table, each column drawn by its own generators,
  round-major — so any prefix of a trace is the shorter trace, and a
  column drawn alone, in any order or again, is the same bytes — with
  a Python-level cost per column, not per link.
"""

import hashlib
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.measurement import (
    measured_p,
    sample_latency_trace,
    sample_latency_trace_scalar,
    timely_matrices,
)
from repro.net.hetero import HeterogeneousNetwork, SlowWindows, uniform_wan_profile
from repro.net.lan import LanProfile
from repro.net.planetlab import PlanetLabProfile
from repro.sim.rng import STREAM_CHUNK, column_generators

#: Seed 3 makes the PlanetLab decider choose a slow-Poland run, so the
#: comparison exercises the scale-mode slow windows too.
SLOW_WAN_SEED = 3

#: (factory, canonical round length) per profile; the round lengths are
#: the timeouts the paper's figures sweep around.
PROFILES = {
    "lan": (LanProfile, 0.35e-3),
    "wan-slow": (lambda seed: PlanetLabProfile(seed=seed), 0.2),
}


def scalar_trace(name, seed, rounds):
    factory, round_length = PROFILES[name]
    model = factory(seed=seed)
    return sample_latency_trace_scalar(model, rounds, round_length)


def batch_trace(name, seed, rounds):
    factory, round_length = PROFILES[name]
    model = factory(seed=seed)
    return model.sample_trace_batch(rounds, round_length)


def _worker_trace(args):
    """Module-level so ProcessPoolExecutor can pickle it."""
    name, seed, rounds = args
    return batch_trace(name, seed, rounds)


def off_diagonal(trace):
    n = trace.shape[1]
    return trace[:, ~np.eye(n, dtype=bool)]


@pytest.mark.parametrize("name", sorted(PROFILES))
class TestScalarVsBatchDistributions:
    ROUNDS = 2500

    def stats(self, trace, round_length):
        values = off_diagonal(trace)
        finite = values[np.isfinite(values)]
        return {
            "delivery_prob": measured_p(timely_matrices(trace, round_length)),
            "loss": float(np.isinf(values).mean()),
            "median": float(np.median(finite)),
            "tail_freq": float((finite > 3.0 * np.median(finite)).mean()),
        }

    def test_delivery_probability_median_and_tail_agree(self, name):
        seed = SLOW_WAN_SEED if name == "wan-slow" else 0
        if name == "wan-slow":
            assert PROFILES[name][0](seed=seed).slow_run
        round_length = PROFILES[name][1]
        scalar = self.stats(scalar_trace(name, seed, self.ROUNDS), round_length)
        batch = self.stats(batch_trace(name, seed, self.ROUNDS), round_length)
        assert batch["delivery_prob"] == pytest.approx(
            scalar["delivery_prob"], abs=0.02
        )
        assert batch["loss"] == pytest.approx(scalar["loss"], abs=0.01)
        assert batch["median"] == pytest.approx(scalar["median"], rel=0.05)
        assert batch["tail_freq"] == pytest.approx(scalar["tail_freq"], abs=0.02)

    def test_per_link_agreement_on_a_plain_and_a_slow_link(self, name):
        # Link into the slow node (LAN node 6 / WAN Poland node 5) and a
        # plain link, each compared marginally.  Both sides see whole
        # bursts: every batch column is drawn for the whole link table,
        # so the queue-mode node ranks actual arrivals, as the scalar
        # whole-round sampler does.
        seed = SLOW_WAN_SEED if name == "wan-slow" else 0
        factory, round_length = PROFILES[name]
        slow_node = 6 if name == "lan" else 5
        scalar_trace = sample_latency_trace_scalar(
            factory(seed=seed), self.ROUNDS, round_length
        )
        batch_trace = factory(seed=seed).sample_trace_batch(
            self.ROUNDS, round_length
        )
        for dst in (1, slow_node):
            src = 0 if dst != 0 else 1
            scalar = scalar_trace[:, dst, src]
            batch = batch_trace[:, dst, src]
            assert np.isfinite(batch).mean() == pytest.approx(
                np.isfinite(scalar).mean(), abs=0.02
            )
            assert np.median(batch[np.isfinite(batch)]) == pytest.approx(
                np.median(scalar[np.isfinite(scalar)]), rel=0.1
            )
            assert (batch < round_length).mean() == pytest.approx(
                (scalar < round_length).mean(), abs=0.03
            )


class TestBatchTracePurity:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rounds=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_across_calls_and_instances(self, seed, rounds):
        model = PlanetLabProfile(seed=seed)
        first = model.sample_trace_batch(rounds, 0.2)
        second = model.sample_trace_batch(rounds, 0.2)
        fresh = PlanetLabProfile(seed=seed).sample_trace_batch(rounds, 0.2)
        assert np.array_equal(first, second)
        assert np.array_equal(first, fresh)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_batch_never_touches_the_shared_rng(self, seed):
        # Interleaved scalar sampling must not perturb the batch trace
        # (and vice versa): they draw from disjoint streams.
        model = PlanetLabProfile(seed=seed)
        model.sample_latency(0, 1, 0.0)
        perturbed = model.sample_trace_batch(5, 0.2)
        clean = PlanetLabProfile(seed=seed).sample_trace_batch(5, 0.2)
        assert np.array_equal(perturbed, clean)

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_bit_identical_across_worker_processes(self, name):
        seed = SLOW_WAN_SEED if name == "wan-slow" else 0
        local = batch_trace(name, seed, 60)
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote_a, remote_b = pool.map(
                _worker_trace, [(name, seed, 60), (name, seed, 60)]
            )
        assert np.array_equal(local, remote_a)
        assert np.array_equal(local, remote_b)

    def test_measurement_entry_point_uses_the_batch_path(self):
        model = PlanetLabProfile(seed=SLOW_WAN_SEED)
        via_entry = sample_latency_trace(model, 40, 0.2)
        direct = PlanetLabProfile(seed=SLOW_WAN_SEED).sample_trace_batch(40, 0.2)
        assert np.array_equal(via_entry, direct)


def with_slow_nodes(model, slow_nodes):
    """``model``'s links under ``slow_nodes`` (same seed, same streams)."""
    return HeterogeneousNetwork(
        model.base, model.sigma, model.tail_prob, model.tail_shape,
        model.loss_prob, slow_nodes, seed=model.seed,
    )


@st.composite
def slow_node_models(draw):
    """A uniform WAN of 2..6 nodes under random slow nodes, each in one
    of the two forms: scale mode (PlanetLab's Poland) or queue mode (the
    LAN's slow machine)."""
    n = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    window = dict(
        period=st.floats(min_value=0.2, max_value=2.0),
        duty=st.floats(min_value=0.0, max_value=1.0),
        phase=st.floats(min_value=0.0, max_value=2.0),
    )
    windows = st.one_of(
        st.builds(
            SlowWindows, factor=st.floats(min_value=1.1, max_value=4.0), **window
        ),
        st.builds(
            SlowWindows, mode=st.just("queue"),
            queue_unit=st.floats(min_value=1e-4, max_value=0.02), **window
        ),
    )
    slow_nodes = draw(
        st.dictionaries(st.integers(min_value=0, max_value=n - 1), windows)
    )
    return with_slow_nodes(uniform_wan_profile(n=n, seed=seed), slow_nodes)


def calls_into_repro(fn):
    """How many Python functions defined under ``repro/`` ``fn`` enters."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and "/repro/" in frame.f_code.co_filename:
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestTraceIsTheLinkSamplerOnEveryLink:
    @given(
        model=slow_node_models(),
        rounds=st.integers(min_value=1, max_value=3 * STREAM_CHUNK),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_trace_columns_equal_single_link_batches(self, model, rounds, order):
        # Each column drawn on its own — in a shuffled order, the first
        # one twice — is the same bytes as that column of the trace, slow
        # windows and all: a column is a function of (seed, column).
        round_length = 0.05
        trace = model.sample_trace_batch(rounds, round_length)
        starts = list(range(0, rounds, STREAM_CHUNK))
        order.shuffle(starts)
        for start in starts + starts[:1]:
            stop = min(start + STREAM_CHUNK, rounds)
            lanes = model.sample_lanes(start, stop, round_length)
            for lane, (dst, src) in enumerate(zip(*model.lanes)):
                assert model.lane(src, dst) == lane
                assert (
                    trace[start:stop, dst, src].tobytes()
                    == lanes[:, lane].tobytes()
                )
        assert not trace[:, np.arange(model.n), np.arange(model.n)].any()

    @given(
        model=slow_node_models(),
        rounds=st.integers(min_value=STREAM_CHUNK, max_value=2 * STREAM_CHUNK + 9),
        prefix=st.integers(min_value=0, max_value=STREAM_CHUNK),
    )
    @settings(max_examples=25, deadline=None)
    def test_a_trace_prefix_is_the_shorter_trace(self, model, rounds, prefix):
        # Round-major columns: a 100-round trace never draws 256 rounds,
        # and what it draws is the head of the longer trace.
        long = model.sample_trace_batch(rounds, 0.05)
        assert long[:STREAM_CHUNK].tobytes() == (
            model.sample_trace_batch(STREAM_CHUNK, 0.05).tobytes()
        )
        assert long[:prefix].tobytes() == (
            model.sample_trace_batch(prefix, 0.05).tobytes()
        )

    def test_trace_loop_seats_one_generator_per_kind_per_column(self, monkeypatch):
        # Seats are per column and draw kind, never per link: a 300-round
        # trace of 56 links seats its normal, uniform and Pareto kinds
        # for columns 0 and 1, each on the state hashed from (seed,
        # column, kind).
        seated = []

        def recording(root, column, kinds):
            generators = column_generators(root, column, kinds)
            seated.append(
                (root, column, kinds, [g.bit_generator.state for g in generators])
            )
            return generators

        model = uniform_wan_profile(n=8, seed=4)
        monkeypatch.setattr("repro.net.base.column_generators", recording)
        model.sample_trace_batch(300, 0.2)
        assert [entry[:3] for entry in seated] == [(4, 0, "nup"), (4, 1, "nup")]
        for root, column, kinds, states in seated:
            for kind, state in zip(kinds, states):
                digest = int.from_bytes(
                    hashlib.sha256(
                        f"pcg64:{root}:{column}:{kind}".encode()
                    ).digest(),
                    "big",
                )
                assert state["state"] == {
                    "state": digest >> 128, "inc": digest & (2**128 - 1) | 1
                }
        distinct = {state["state"]["state"] for *_, states in seated for state in states}
        assert len(distinct) == 6

    @pytest.mark.parametrize(
        "slow_nodes",
        [
            {},
            {
                1: SlowWindows(factor=2.0, duty=0.5),
                2: SlowWindows(duty=0.5, mode="queue", queue_unit=0.004),
            },
        ],
        ids=["plain", "slow"],
    )
    def test_no_python_call_per_link(self, slow_nodes):
        # The per-link loop holds RNG draws only: the Python functions a
        # trace enters do not grow with the number of links (12 vs 56).
        def calls(n):
            model = with_slow_nodes(uniform_wan_profile(n=n, seed=4), slow_nodes)
            return calls_into_repro(lambda: model.sample_trace_batch(300, 0.2))

        assert calls(4) == calls(8)
