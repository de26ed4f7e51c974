"""A vectorized heterogeneous network model.

Both concrete profiles (LAN, PlanetLab) are instances of one parametric
model: per-link log-normal bodies with Pareto tail excursions, per-link
loss, and per-node periodic slow windows that inflate *incoming* latency
(the paper's slow nodes were "slow to receive messages, although most of
the messages [they] sent arrived on time").

Latency of the message ``src -> dst`` sent at time ``now``::

    lost                with prob  loss[dst, src]
    base[dst, src] * exp(sigma[dst, src] * N(0,1))
                  * (1 + Pareto(tail_shape))   with prob tail[dst, src]
                  * slow_factor[dst]           if dst is in a slow window

Whole rounds are sampled with vectorized numpy operations, which keeps the
33-runs-by-300-rounds WAN sweeps fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.net.base import LatencyModel


@dataclass(frozen=True)
class SlowWindows:
    """Periodic slowness of one node.

    During a ``duty`` fraction of every ``period`` seconds (offset by
    ``phase``) the node is *slow*, in one of two modes:

    - ``mode="scale"``: each affected message is — independently, with
      probability ``per_message_prob`` — multiplied by ``factor``.
      ``direction`` selects which links suffer (``"in"``: slow to
      receive, the WAN's Poland; ``"out"``; or ``"both"``).

    - ``mode="queue"``: the node processes *incoming* messages one at a
      time; within a round burst, the message arriving at rank ``r``
      (0 = earliest) gets an extra ``queue_unit * r`` of delay.  This is
      the LAN's "occasionally slow" machine, and it explains the paper's
      leader-choice observations structurally: the *well-connected*
      leader's message arrives first and pays nothing; "hear from a
      majority" needs rank ``majority-2`` to be timely; a poorly
      connected leader's message arrives last and pays the most.
    """

    factor: float = 1.0
    period: float = 1.0
    duty: float = 0.0
    phase: float = 0.0
    per_message_prob: float = 1.0
    direction: str = "in"
    mode: str = "scale"
    queue_unit: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out", "both"):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.mode not in ("scale", "queue"):
            raise ValueError(f"bad mode {self.mode!r}")
        if not 0.0 <= self.per_message_prob <= 1.0:
            raise ValueError("per_message_prob must be a probability")
        if self.mode == "queue" and self.queue_unit <= 0:
            raise ValueError("queue mode needs a positive queue_unit")

    def active(self, now: float) -> bool:
        position = ((now + self.phase) % self.period) / self.period
        return position < self.duty

    def active_mask(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`active` over an array of send times."""
        times = np.asarray(times, dtype=float)
        position = ((times + self.phase) % self.period) / self.period
        return position < self.duty


class HeterogeneousNetwork(LatencyModel):
    """Parametric per-link latency model; see the module docstring."""

    supports_batch_trace = True

    def __init__(
        self,
        base: np.ndarray,
        sigma: np.ndarray,
        tail_prob: np.ndarray,
        tail_shape: float = 1.3,
        loss_prob: Optional[np.ndarray] = None,
        slow_nodes: Optional[dict[int, SlowWindows]] = None,
        seed: int = 0,
    ) -> None:
        base = np.asarray(base, dtype=float)
        n = base.shape[0]
        super().__init__(n, seed)
        if base.shape != (n, n):
            raise ValueError("base latency matrix must be square")
        if np.any(base[~np.eye(n, dtype=bool)] <= 0):
            raise ValueError("off-diagonal base latencies must be positive")
        self.base = base
        self.sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (n, n)).copy()
        self.tail_prob = np.broadcast_to(
            np.asarray(tail_prob, dtype=float), (n, n)
        ).copy()
        self.tail_shape = tail_shape
        if loss_prob is None:
            loss_prob = np.zeros((n, n))
        self.loss_prob = np.broadcast_to(
            np.asarray(loss_prob, dtype=float), (n, n)
        ).copy()
        self.slow_nodes = dict(slow_nodes or {})

    # ------------------------------------------------------------------
    # Single-message path (event-driven transport).
    # ------------------------------------------------------------------
    def sample_latency(self, src: int, dst: int, now: float) -> Optional[float]:
        rng = self._rng
        if rng.random() < self.loss_prob[dst, src]:
            return None
        latency = self.base[dst, src] * float(
            np.exp(self.sigma[dst, src] * rng.standard_normal())
        )
        if rng.random() < self.tail_prob[dst, src]:
            latency *= 1.0 + float(rng.pareto(self.tail_shape))
        for node, role in ((dst, "in"), (src, "out")):
            slow = self.slow_nodes.get(node)
            if slow is None or not slow.active(now):
                continue
            if slow.mode == "queue":
                if role == "in":
                    latency += slow.queue_unit * self._expected_rank(src, dst)
                continue
            if slow.direction not in (role, "both"):
                continue
            if rng.random() < slow.per_message_prob:
                latency *= slow.factor
        return latency

    def _expected_rank(self, src: int, dst: int) -> int:
        """Approximate arrival rank of ``src``'s message at ``dst`` within
        an all-to-all round burst: its position when the senders are
        ordered by base latency into ``dst``.  Used by the single-message
        path, where the rest of the burst is not observable; the
        whole-round path ranks the actual sampled latencies instead."""
        bases = self.base[dst]
        competitors = [
            other
            for other in range(self.n)
            if other not in (dst, src) and bases[other] < bases[src]
        ]
        return len(competitors)

    # ------------------------------------------------------------------
    # Whole-round path (vectorized; used by the measurement sweeps).
    # ------------------------------------------------------------------
    def sample_round_latencies(self, now: float) -> np.ndarray:
        rng = self._rng
        n = self.n
        latencies = self.base * np.exp(self.sigma * rng.standard_normal((n, n)))
        tails = rng.random((n, n)) < self.tail_prob
        if np.any(tails):
            latencies[tails] *= 1.0 + rng.pareto(self.tail_shape, size=int(tails.sum()))
        for node, slow in self.slow_nodes.items():
            if not slow.active(now):
                continue
            if slow.mode == "queue":
                # Rank this round's actual arrivals at the slow node and
                # delay each by its queue position (earliest pays nothing).
                incoming = [
                    src for src in range(n) if src != node
                ]
                order = sorted(incoming, key=lambda src: latencies[node, src])
                for rank, src in enumerate(order):
                    latencies[node, src] += slow.queue_unit * rank
                continue
            affected = np.zeros((n, n), dtype=bool)
            if slow.direction in ("in", "both"):
                affected[node, :] = True
            if slow.direction in ("out", "both"):
                affected[:, node] = True
            if slow.per_message_prob < 1.0:
                affected &= rng.random((n, n)) < slow.per_message_prob
            latencies[affected] *= slow.factor
        losses = rng.random((n, n)) < self.loss_prob
        latencies[losses] = np.inf
        np.fill_diagonal(latencies, 0.0)
        return latencies

    # ------------------------------------------------------------------
    # Batch path: whole-trace sampling from per-link RNG substreams.
    # ------------------------------------------------------------------
    @property
    def is_time_invariant(self) -> bool:
        return not self.slow_nodes

    def _link_column(
        self,
        src: int,
        dst: int,
        times: np.ndarray,
        rng: np.random.Generator,
        defer_queue: bool,
        active_masks: Optional[dict] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One link's latencies for all of ``times`` plus its loss mask.

        Loss is returned separately (not yet ``+inf``) because the
        whole-round queue ranking must see lost messages' sampled
        latencies, exactly as :meth:`sample_round_latencies` ranks before
        applying loss.  ``defer_queue`` skips queue-mode slowness so the
        trace path can rank actual arrivals in a post-pass; the single-link
        path charges the expected rank instead, like
        :meth:`sample_latency`.  ``active_masks`` (node -> boolean mask
        over ``times``) lets the trace loop precompute each slow node's
        windows once instead of per link.
        """
        count = np.asarray(times, dtype=float).shape[0]
        # One normal vector and one 2-row uniform block (tail odds, loss)
        # per link: RNG call count, not element count, dominates here.
        latencies = self.base[dst, src] * np.exp(
            self.sigma[dst, src] * rng.standard_normal(count)
        )
        uniforms = rng.random((2, count))
        tails = uniforms[0] < self.tail_prob[dst, src]
        hits = np.count_nonzero(tails)
        if hits:
            latencies[tails] *= 1.0 + rng.pareto(self.tail_shape, size=hits)
        for node, role in ((dst, "in"), (src, "out")) if self.slow_nodes else ():
            slow = self.slow_nodes.get(node)
            if slow is None:
                continue
            if active_masks is not None:
                active = active_masks[node]
            else:
                active = slow.active_mask(times)
            if not active.any():
                continue
            if slow.mode == "queue":
                if not defer_queue and role == "in":
                    latencies[active] += (
                        slow.queue_unit * self._expected_rank(src, dst)
                    )
                continue
            if slow.direction not in (role, "both"):
                continue
            affected = active
            if slow.per_message_prob < 1.0:
                affected = active & (
                    rng.random(count) < slow.per_message_prob
                )
            latencies[affected] *= slow.factor
        lost = uniforms[1] < self.loss_prob[dst, src]
        return latencies, lost

    def sample_link_batch(
        self,
        src: int,
        dst: int,
        times: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        if rng is None:
            rng = self.link_stream(src, dst)
        latencies, lost = self._link_column(
            src, dst, times, rng, defer_queue=False
        )
        latencies[lost] = np.inf
        return latencies

    def sample_trace_batch(self, rounds: int, round_length: float) -> np.ndarray:
        times = np.arange(rounds) * round_length
        n = self.n
        latencies = np.zeros((rounds, n, n))
        lost = np.zeros((rounds, n, n), dtype=bool)
        active_masks = {
            node: slow.active_mask(times)
            for node, slow in self.slow_nodes.items()
        }
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                rng = self._trace_stream(src, dst)
                column, column_lost = self._link_column(
                    src, dst, times, rng, defer_queue=True,
                    active_masks=active_masks,
                )
                latencies[:, dst, src] = column
                lost[:, dst, src] = column_lost
        for node, slow in self.slow_nodes.items():
            if slow.mode != "queue":
                continue
            active = np.flatnonzero(slow.active_mask(times))
            if active.size == 0:
                continue
            senders = np.array(
                [src for src in range(n) if src != node], dtype=int
            )
            incoming = latencies[np.ix_(active, [node], senders)][:, 0, :]
            order = np.argsort(incoming, axis=1, kind="stable")
            ranks = np.empty_like(order)
            np.put_along_axis(
                ranks,
                order,
                np.broadcast_to(
                    np.arange(senders.size), order.shape
                ).copy(),
                axis=1,
            )
            latencies[np.ix_(active, [node], senders)] += (
                slow.queue_unit * ranks[:, None, :]
            )
        latencies[lost] = np.inf
        latencies[:, np.arange(n), np.arange(n)] = 0.0
        return latencies

    # ------------------------------------------------------------------
    # Introspection helpers used by leader selection and tests.
    # ------------------------------------------------------------------
    def mean_rtt(self) -> np.ndarray:
        """Approximate mean round-trip time per (i, j) pair, from bases."""
        return self.base + self.base.T


def uniform_wan_profile(n: int = 8, seed: int = 0) -> HeterogeneousNetwork:
    """A symmetric mid-latency WAN: ~20-40 ms links, lognormal spread,
    occasional heavy-tail excursions and light loss.

    The third conformance profile deliberately sits — like the two real
    ones — in the regime the Section 5.1 protocol assumes: typical
    latency well below the timeout.  A profile whose latencies fill the
    whole timeout window (e.g. :class:`~repro.net.iid.BernoulliLinkModel`
    at its own timeout) breaks round synchronization *by design* once a
    fault desynchronizes the starts — the jump correction is only as good
    as the latency estimate — so it cannot be used to validate the
    idealization, only to (correctly) watch it degrade.
    """
    spread = 0.020 + 0.010 * (np.add.outer(np.arange(n), np.arange(n)) % 5) / 4.0
    base = (spread + spread.T) / 2.0
    np.fill_diagonal(base, 0.0)
    return HeterogeneousNetwork(
        base=base,
        sigma=np.full((n, n), 0.25),
        tail_prob=np.full((n, n), 0.04),
        tail_shape=1.2,
        loss_prob=np.full((n, n), 0.002),
        seed=seed,
    )
