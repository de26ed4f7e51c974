"""Unit tests for the Granular Synchrony network wrapper."""

import numpy as np
import pytest

from repro.models.properties import (
    LINK_ASYNC,
    canonical_granular_assumptions,
    granular_guaranteed,
)
from repro.net import (
    GranularProfile,
    lan_profile,
    planetlab_profile,
    uniform_wan_profile,
)
from repro.sim import Simulator, Transport

SYNC = 0.03
PSYNC = 0.06


def make_profile(seed=0, **kwargs):
    return GranularProfile(
        uniform_wan_profile(n=8, seed=seed),
        sync_bound=SYNC,
        psync_bound=PSYNC,
        **kwargs,
    )


class TestConstruction:
    def test_defaults_to_the_canonical_matrix(self):
        profile = make_profile()
        expected = canonical_granular_assumptions(8)
        assert (profile.assumptions == expected).all()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            GranularProfile(
                uniform_wan_profile(n=8),
                assumptions=canonical_granular_assumptions(5),
                sync_bound=SYNC,
                psync_bound=PSYNC,
            )

    def test_nonpositive_bounds_raise(self):
        with pytest.raises(ValueError):
            GranularProfile(
                uniform_wan_profile(n=8), sync_bound=0.0, psync_bound=PSYNC
            )
        with pytest.raises(ValueError):
            GranularProfile(
                uniform_wan_profile(n=8), sync_bound=SYNC, psync_bound=-1.0
            )

    @pytest.mark.parametrize("field", ["sync_bound", "psync_bound"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_bounds_raise_naming_the_field(self, field, value):
        # A NaN bound used to pass ``bound <= 0`` and clamp nothing.
        bounds = {"sync_bound": SYNC, "psync_bound": PSYNC, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            GranularProfile(uniform_wan_profile(n=8), **bounds)


class TestContract:
    def test_scalar_samples_honor_the_bounds(self):
        profile = make_profile()
        assumptions = profile.assumptions
        guaranteed = granular_guaranteed(assumptions)
        for dst in range(8):
            for src in range(8):
                if src == dst:
                    continue
                for k in range(5):
                    sample = profile.sample_latency(src, dst, now=k * 0.1)
                    if guaranteed[dst, src]:
                        bound = (
                            SYNC if profile._sync_mask[dst, src] else PSYNC
                        )
                        assert sample is not None and sample <= bound
                    # async links pass through: None (loss) is allowed.

    def test_round_matrix_honors_the_bounds(self):
        profile = make_profile()
        latencies = profile.sample_round_latencies(now=0.0)
        assert (latencies[profile._sync_mask] <= SYNC).all()
        assert (latencies[profile._psync_mask] <= PSYNC).all()

    def test_trace_batch_honors_the_bounds(self):
        profile = make_profile()
        trace = profile.sample_trace_batch(16, 0.1)
        sync = profile._sync_mask[None, :, :] & np.ones(
            (16, 1, 1), dtype=bool
        )
        assert (trace[sync] <= SYNC).all()
        psync = profile._psync_mask[None, :, :] & np.ones(
            (16, 1, 1), dtype=bool
        )
        assert (trace[psync] <= PSYNC).all()

    def test_psync_unclamped_before_stabilization(self):
        late = make_profile(stabilization_time=0.8)
        clamped = make_profile()
        trace_late = late.sample_trace_batch(16, 0.1)
        trace_clamped = clamped.sample_trace_batch(16, 0.1)
        mask = late._psync_mask[None, :, :]
        # From round 8 on (times >= 0.8) the clamp applies...
        stable = trace_late[8:]
        assert (stable[np.broadcast_to(mask, stable.shape)] <= PSYNC).all()
        # ...and the two variants agree once both are stable.
        assert np.array_equal(trace_late[8:], trace_clamped[8:])
        # Before stabilization at least one psync sample exceeds the bound
        # (otherwise the phase distinction would be vacuous at this seed).
        early = trace_late[:8]
        assert (early[np.broadcast_to(mask, early.shape)] > PSYNC).any()

    def test_async_links_pass_through(self):
        profile = make_profile()
        base_trace = uniform_wan_profile(n=8, seed=0).sample_trace_batch(
            16, 0.1
        )
        trace = profile.sample_trace_batch(16, 0.1)
        free = profile.assumptions == LINK_ASYNC
        assert np.array_equal(
            trace[:, free], base_trace[:, free]
        )


class TestBatchEligibility:
    def test_time_invariant_when_stabilized(self):
        assert make_profile().is_time_invariant

    def test_pending_stabilization_is_time_varying(self):
        assert not make_profile(stabilization_time=4.0).is_time_invariant

    def test_time_varying_base_is_time_varying(self):
        profile = GranularProfile(
            planetlab_profile(seed=0, slow_run_prob=1.0),
            sync_bound=SYNC,
            psync_bound=PSYNC,
        )
        assert not profile.is_time_invariant

    def test_inherits_batch_trace_support(self):
        profile = make_profile()
        assert profile.supports_batch_trace == (
            uniform_wan_profile(n=8).supports_batch_trace
        )

    def test_link_batch_matches_trace_batch(self):
        # The transport's stream is a link's lane through the clamped
        # columns; the batch runner samples whole traces.  Bit-identity
        # of the two stacks rests on the clamp commuting with both.
        profile = make_profile()
        lan = GranularProfile(
            lan_profile(n=8, seed=3, slow_node=None),
            sync_bound=SYNC,
            psync_bound=PSYNC,
        )
        for model in (profile, lan):
            trace = model.sample_trace_batch(300, 0.1)
            transport = Transport(Simulator(), model)
            (column,) = transport.next_stream_block([(2, 5)], [300])
            assert column.tobytes() == trace[:, 5, 2].tobytes()
            if model._sync_mask[5, 2]:
                assert (column <= SYNC).all()
            elif model._psync_mask[5, 2]:
                assert (column <= PSYNC).all()
