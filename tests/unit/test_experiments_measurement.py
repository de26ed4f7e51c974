"""Unit tests for trace generation and P_M measurement."""

import warnings

import numpy as np
import pytest

from repro.experiments import measurement
from repro.experiments.cache import TraceCache, cached_timely
from repro.experiments.measurement import (
    measured_p,
    model_satisfaction,
    sample_lan_trace,
    sample_latency_trace,
    sample_wan_trace,
    satisfaction_vector,
    timely_matrices,
)
from repro.models.matrix import empty_matrix, full_matrix
from repro.net.base import LatencyModel


class TestTraces:
    def test_wan_trace_shape(self):
        trace = sample_wan_trace(rounds=10, round_length=0.2, seed=1)
        assert trace.shape == (10, 8, 8)

    def test_lan_trace_shape(self):
        trace = sample_lan_trace(rounds=5, round_length=0.001, seed=1)
        assert trace.shape == (5, 8, 8)

    def test_traces_deterministic(self):
        a = sample_wan_trace(5, 0.2, seed=9)
        b = sample_wan_trace(5, 0.2, seed=9)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = sample_wan_trace(5, 0.2, seed=1)
        b = sample_wan_trace(5, 0.2, seed=2)
        assert not np.allclose(a, b)


class ScriptedLink(LatencyModel):
    """A batch-capable 3-node model: every draw is 10 ms, except that
    link 2 → 1 draws ``value`` in its second round."""

    def __init__(self, value):
        super().__init__(n=3)
        self.value = value

    def sample_latency(self, src, dst, now):
        raise AssertionError("the batch path draws whole links")

    def sample_lanes(self, start, stop, round_length):
        lanes = np.full((stop - start, 6), 0.01)
        if start <= 1 < stop:
            lanes[1 - start, self.lane(2, 1)] = self.value
        return lanes


class TestTraceIsCheckedWhereItIsDrawn:
    """ROADMAP 3c: under ``latency < timeout`` a NaN read "lost" and a
    negative value "timely", and the cache stored either."""

    @pytest.mark.parametrize("value", [float("nan"), -0.004])
    def test_not_a_delay_is_refused(self, value):
        with pytest.raises(ValueError) as error:
            sample_latency_trace(ScriptedLink(value), 4, 0.2)
        message = str(error.value)
        assert "link 2 → 1" in message and "ScriptedLink" in message
        assert repr(value) in message

    def test_a_bad_trace_never_reaches_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            measurement,
            "sample_wan_trace",
            lambda rounds, round_length, seed: sample_latency_trace(
                ScriptedLink(float("nan")), rounds, round_length
            ),
        )
        cache = TraceCache(tmp_path)
        with pytest.raises(ValueError, match="not a delay"):
            cached_timely("wan", 3, 4, 0.2, seed=1, cache=cache)
        assert cache.entries() == 0

    def test_an_infinite_latency_stays_a_loss(self):
        trace = sample_latency_trace(ScriptedLink(float("inf")), 4, 0.2)
        assert np.isinf(trace[1, 1, 2])
        assert not timely_matrices(trace, 0.2)[1, 1, 2]


class TestTimelyMatrices:
    def test_threshold_and_diagonal(self):
        trace = np.full((2, 3, 3), 0.5)
        matrices = timely_matrices(trace, timeout=0.4)
        off = ~np.eye(3, dtype=bool)
        assert not matrices[0][off].any()
        assert np.diagonal(matrices[0]).all()
        matrices = timely_matrices(trace, timeout=0.6)
        assert matrices.all()

    def test_monotone_in_timeout(self):
        trace = sample_wan_trace(20, 0.2, seed=3)
        small = timely_matrices(trace, 0.15)
        large = timely_matrices(trace, 0.30)
        assert ((small | large) == large).all()


class TestMeasuredP:
    def test_excludes_diagonal(self):
        trace = np.full((1, 3, 3), 10.0)
        for i in range(3):
            trace[0, i, i] = 0.0
        assert measured_p(timely_matrices(trace, timeout=1.0)) == 0.0

    def test_increases_with_timeout(self):
        trace = sample_wan_trace(50, 0.2, seed=4)
        assert measured_p(timely_matrices(trace, 0.15)) < measured_p(
            timely_matrices(trace, 0.35)
        )

    @pytest.mark.parametrize(
        "shape",
        [(37, 8, 8), (300, 8, 8), (5, 1, 1), (0, 8, 8)],
        ids=["37 rounds", "300 rounds", "one node", "no rounds"],
    )
    def test_is_the_off_diagonal_mean_bit_for_bit(self, shape):
        # A trace with no link reads NaN, as the mean of no entries does.
        trace = np.random.default_rng(shape[0]).exponential(0.2, shape)
        links = ~np.eye(shape[1], dtype=bool)
        for timeout in (0.1, 0.17, 0.21, 0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = float((trace[:, links] < timeout).mean())
            matrices = timely_matrices(trace, timeout)
            assert repr(measured_p(matrices)) == repr(expected)


class TestModelSatisfaction:
    def test_fraction_counts_rounds(self):
        matrices = np.array([full_matrix(3), empty_matrix(3), full_matrix(3)])
        assert model_satisfaction(matrices, "ES") == pytest.approx(2 / 3)

    def test_skip_until_first_stable(self):
        matrices = np.array(
            [empty_matrix(3), empty_matrix(3), full_matrix(3), full_matrix(3)]
        )
        assert model_satisfaction(matrices, "ES") == pytest.approx(0.5)
        assert model_satisfaction(
            matrices, "ES", skip_until_first_stable=True
        ) == pytest.approx(1.0)

    def test_skip_with_no_stable_round_is_zero(self):
        matrices = np.array([empty_matrix(3)] * 4)
        assert model_satisfaction(matrices, "ES", skip_until_first_stable=True) == 0.0

    def test_satisfaction_vector_leader(self):
        m = empty_matrix(4)
        m[:, 1] = True
        m[1, 0] = True
        m[1, 2] = True
        matrices = np.array([m, empty_matrix(4)])
        vector = satisfaction_vector(matrices, "WLM", leader=1)
        assert vector.tolist() == [True, False]


class TestBatchedSatisfaction:
    """The vectorized path must be bit-identical to the scalar loop."""

    def _random_stack(self, seed, rounds=64, n=8, density=0.85):
        rng = np.random.default_rng(seed)
        matrices = rng.random((rounds, n, n)) < density
        matrices[:, np.arange(n), np.arange(n)] = True
        return matrices

    @pytest.mark.parametrize("name", ["ES", "AFM", "LM", "WLM", "WLM_SIM"])
    def test_matches_scalar_loop(self, name):
        from repro.models.registry import get_model

        model = get_model(name)
        leader = 3 if model.needs_leader else None
        matrices = self._random_stack(seed=17)
        batched = satisfaction_vector(matrices, name, leader=leader)
        scalar = np.array(
            [model.satisfied(m, leader=leader) for m in matrices], dtype=bool
        )
        assert batched.dtype == np.bool_
        assert np.array_equal(batched, scalar)

    @pytest.mark.parametrize("name", ["ES", "AFM", "LM", "WLM"])
    def test_matches_scalar_loop_with_correct_subset(self, name):
        from repro.models.registry import get_model

        model = get_model(name)
        leader = 2 if model.needs_leader else None
        correct = [0, 2, 4, 5, 7]
        matrices = self._random_stack(seed=23, density=0.9)
        batched = model.satisfied_batch(matrices, leader=leader, correct=correct)
        scalar = np.array(
            [model.satisfied(m, leader=leader, correct=correct) for m in matrices],
            dtype=bool,
        )
        assert np.array_equal(batched, scalar)

    def test_empty_stack(self):
        matrices = np.zeros((0, 8, 8), dtype=bool)
        vector = satisfaction_vector(matrices, "ES")
        assert vector.shape == (0,)

    def test_leader_still_required(self):
        from repro.models.registry import get_model

        with pytest.raises(ValueError):
            get_model("WLM").satisfied_batch(self._random_stack(seed=1))
