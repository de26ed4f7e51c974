"""Granular Synchrony network wrapper (arxiv 2408.12853).

:class:`GranularProfile` wraps any :class:`~repro.net.base.LatencyModel`
and enforces a per-link assumption matrix on top of it:

- ``sync`` links always deliver within ``sync_bound`` — the base model's
  sample is clamped and losses are replaced by the bound;
- ``psync`` links deliver within ``psync_bound`` for messages sent at or
  after ``stabilization_time`` (before that they behave like the base
  model — the unknown-GST phase of partial synchrony);
- ``async`` links pass through untouched.

Clamping consumes no randomness, so the wrapper preserves the base
model's draw-for-draw RNG structure: the scalar path clamps the base's
scalar samples and the batch path clamps the base's per-link substream
rows, keeping the wrapper eligible for the transport's pre-sampled
stream path (and hence :mod:`repro.sync.batch`) whenever the base is
batch-capable and the contract is time-invariant
(``stabilization_time == 0`` or no psync links).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.models.properties import (
    LINK_PSYNC,
    LINK_SYNC,
    canonical_granular_assumptions,
)
from repro.net.base import LatencyModel
from repro.net.hetero import uniform_wan_profile


class GranularProfile(LatencyModel):
    """A base network constrained by a per-link assumption matrix.

    Args:
        base: the underlying latency model (its ``n`` and ``seed`` are
            inherited).
        assumptions: ``(n, n)`` int matrix of per-link codes
            (``LINK_ASYNC``/``LINK_PSYNC``/``LINK_SYNC``, entry
            ``[dst, src]``); defaults to the canonical hub-based matrix.
        sync_bound: latency bound honored by sync links at all times.
        psync_bound: latency bound honored by psync links from
            ``stabilization_time`` on.
        stabilization_time: send time at which psync links stabilize.
    """

    def __init__(
        self,
        base: LatencyModel,
        assumptions: Optional[np.ndarray] = None,
        *,
        sync_bound: float,
        psync_bound: float,
        stabilization_time: float = 0.0,
    ) -> None:
        super().__init__(base.n, base.seed)
        if assumptions is None:
            assumptions = canonical_granular_assumptions(base.n)
        assumptions = np.asarray(assumptions)
        if assumptions.shape != (base.n, base.n):
            raise ValueError(
                f"assumption matrix shape {assumptions.shape} does not match n={base.n}"
            )
        if sync_bound <= 0 or psync_bound <= 0:
            raise ValueError("latency bounds must be positive")
        self.base = base
        self.assumptions = assumptions
        self.sync_bound = float(sync_bound)
        self.psync_bound = float(psync_bound)
        self.stabilization_time = float(stabilization_time)
        self._sync_mask = assumptions == LINK_SYNC
        self._psync_mask = assumptions == LINK_PSYNC
        self.supports_batch_trace = base.supports_batch_trace

    @property
    def is_time_invariant(self) -> bool:
        if not self.base.is_time_invariant:
            return False
        # A pending stabilization makes psync clamping depend on send time.
        return self.stabilization_time <= 0.0 or not self._psync_mask.any()

    def _psync_stable(self, now: float) -> bool:
        return now >= self.stabilization_time

    def sample_latency(self, src: int, dst: int, now: float) -> Optional[float]:
        sample = self.base.sample_latency(src, dst, now)
        if self._sync_mask[dst, src]:
            return self.sync_bound if sample is None else min(sample, self.sync_bound)
        if self._psync_mask[dst, src] and self._psync_stable(now):
            return self.psync_bound if sample is None else min(sample, self.psync_bound)
        return sample

    def sample_round_latencies(self, now: float) -> np.ndarray:
        latencies = self.base.sample_round_latencies(now)
        np.minimum(latencies, self.sync_bound, out=latencies, where=self._sync_mask)
        if self._psync_stable(now):
            np.minimum(
                latencies, self.psync_bound, out=latencies, where=self._psync_mask
            )
        return latencies

    def sample_link_block(
        self,
        links: Sequence[tuple],
        times: np.ndarray,
        rngs: Iterable[np.random.Generator],
    ) -> np.ndarray:
        """The base's block, each row clamped to its link's contract."""
        block = np.array(self.base.sample_link_block(links, times, rngs))
        src, dst = np.array(links).T
        np.minimum(
            block, self.sync_bound, out=block,
            where=self._sync_mask[dst, src][:, None],
        )
        stable = np.asarray(times) >= self.stabilization_time
        np.minimum(
            block, self.psync_bound, out=block,
            where=self._psync_mask[dst, src][:, None] & stable,
        )
        return block

    def sample_link_batch(
        self,
        src: int,
        dst: int,
        times: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """The one-row case of :meth:`sample_link_block`."""
        if rng is None:
            rng = self.link_stream(src, dst)
        return self.sample_link_block(((src, dst),), times, (rng,))[0]

    def sample_trace_batch(self, rounds: int, round_length: float) -> np.ndarray:
        # Delegate to the base so profiles with coupled per-trace passes
        # (e.g. queue-mode slow windows) keep their own batch semantics,
        # then clamp — clamping is deterministic, so the result matches
        # the per-link path bit for bit.
        trace = self.base.sample_trace_batch(rounds, round_length)
        np.minimum(
            trace, self.sync_bound, out=trace, where=self._sync_mask[None, :, :]
        )
        times = np.arange(rounds) * round_length
        stable = times >= self.stabilization_time
        if stable.any():
            np.minimum(
                trace,
                self.psync_bound,
                out=trace,
                where=self._psync_mask[None, :, :] & stable[:, None, None],
            )
        return trace


#: The per-link contracts of the conformance granular profile.
GRANULAR_SYNC_BOUND = 0.03
GRANULAR_PSYNC_BOUND = 0.06


def granular_wan_profile(
    n: int = 8, seed: int = 0, stabilization_time: float = 0.0
) -> GranularProfile:
    """The uniform WAN under the canonical Granular Synchrony contract.

    Sync links (the hub's column) always deliver within
    ``GRANULAR_SYNC_BOUND``; psync links (the ring majority) within
    ``GRANULAR_PSYNC_BOUND`` once ``stabilization_time`` has passed.
    With ``stabilization_time = 0`` the profile is time-invariant and
    batch-eligible; a positive value builds the time-varying variant
    that must fall back to the scalar event loop.
    """
    return GranularProfile(
        uniform_wan_profile(n=n, seed=seed),
        sync_bound=GRANULAR_SYNC_BOUND,
        psync_bound=GRANULAR_PSYNC_BOUND,
        stabilization_time=stabilization_time,
    )
