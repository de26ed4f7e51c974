"""The Section 4 IID Bernoulli abstraction as a link model.

Each message is independently timely with probability ``p``.  For the
event-driven transport, "timely" means a latency uniform in
``[0, timeout)`` and "late" means a latency stretched beyond the timeout
(up to ``late_factor`` timeouts), so the same model serves both lockstep
matrix sampling and the round-synchronization runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.net.base import LatencyModel


class BernoulliLinkModel(LatencyModel):
    """IID links: timely with probability ``p`` relative to ``timeout``."""

    supports_batch_trace = True

    def __init__(
        self,
        n: int,
        p: float,
        timeout: float,
        seed: int = 0,
        late_factor: float = 4.0,
        loss_prob: float = 0.0,
    ) -> None:
        super().__init__(n, seed)
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be a probability")
        if not 0.0 < timeout < np.inf:
            raise ValueError(f"timeout must be positive and finite, got {timeout!r}")
        if not 1.0 < late_factor < np.inf:
            raise ValueError(f"late_factor must exceed 1 and be finite, got {late_factor!r}")
        if not 0.0 <= loss_prob <= 1.0:
            raise ValueError("loss_prob must be a probability")
        self.p = p
        self.timeout = timeout
        self.late_factor = late_factor
        self.loss_prob = loss_prob

    def sample_latency(self, src: int, dst: int, now: float) -> Optional[float]:
        if self.loss_prob and self._rng.random() < self.loss_prob:
            return None
        if self._rng.random() < self.p:
            return float(self._rng.random() * self.timeout)
        return float(self.timeout * (1.0 + self._rng.random() * (self.late_factor - 1.0)))

    # ------------------------------------------------------------------
    # Batch path: one uniform kind per column, three uniforms a message.
    # ------------------------------------------------------------------
    @property
    def is_time_invariant(self) -> bool:
        return True

    def sample_lanes(self, start: int, stop: int, round_length: float) -> np.ndarray:
        """Rounds ``[start, stop)`` of every lane: per message, round-major,
        the loss odds, the timely odds and the spread."""
        uniforms = np.empty((stop - start, 3, self.n * (self.n - 1)))
        for rows, (uniform,) in self._columns(start, stop, "u"):
            uniform.random(out=uniforms[rows])
        lost, timely, spread = (
            uniforms[:, 0] < self.loss_prob, uniforms[:, 1] < self.p, uniforms[:, 2]
        )
        latencies = np.where(
            timely,
            spread * self.timeout,
            self.timeout * (1.0 + spread * (self.late_factor - 1.0)),
        )
        latencies[lost] = np.inf
        return latencies
