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
scalar samples and the batch path clamps the base's columns lane by
lane, keeping the wrapper eligible for the transport's pre-sampled
stream path (and hence :mod:`repro.sync.batch`) whenever the base and
the contract are time-invariant (``stabilization_time == 0`` or no
psync links).
"""

from __future__ import annotations

from typing import Optional

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
        for field, bound in (("sync_bound", sync_bound), ("psync_bound", psync_bound)):
            if not 0.0 < bound < np.inf:
                raise ValueError(
                    f"{field} must be positive and finite, got {bound!r}"
                )
        self.base = base
        self.assumptions = assumptions
        self.sync_bound = float(sync_bound)
        self.psync_bound = float(psync_bound)
        self.stabilization_time = float(stabilization_time)
        self._sync_mask = assumptions == LINK_SYNC
        self._psync_mask = assumptions == LINK_PSYNC
        self._sync_lanes = self._sync_mask[self.lanes]
        self._psync_lanes = self._psync_mask[self.lanes]

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

    def sample_lanes(self, start: int, stop: int, round_length: float) -> np.ndarray:
        """The base's columns, each lane clamped to its link's contract."""
        lanes = self.base.sample_lanes(start, stop, round_length)
        np.minimum(lanes, self.sync_bound, out=lanes, where=self._sync_lanes)
        stable = np.arange(start, stop) * round_length >= self.stabilization_time
        np.minimum(
            lanes, self.psync_bound, out=lanes,
            where=self._psync_lanes & stable[:, None],
        )
        return lanes


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
