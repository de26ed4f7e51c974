"""A vectorized heterogeneous network model.

Both concrete profiles (LAN, PlanetLab) are instances of one parametric
model: per-link log-normal bodies with Pareto tail excursions, per-link
loss, and per-node periodic slow windows.  A slow node is slow to
receive and only to receive (the paper's slow nodes were "slow to
receive messages, although most of the messages [they] sent arrived on
time"): its window scales every incoming latency (PlanetLab's Poland)
or queues its incoming burst (the LAN's slow machine).

Latency of the message ``src -> dst`` sent at time ``now``::

    lost                with prob  loss[dst, src]
    base[dst, src] * exp(sigma[dst, src] * N(0,1))
                  * (1 + Pareto(tail_shape))   with prob tail[dst, src]
                  * slow_factor[dst]           if dst is in a scale window
                  + queue_unit[dst] * rank     if dst is in a queue window

Three samplers share these distributions: one message, one round (both on
the model's shared generator) and the batch sampler — whole traces and
the transport's stream columns — which makes a handful of RNG calls per
256-round column of the whole link table and does the arithmetic once
over the block (:meth:`HeterogeneousNetwork.sample_lanes`), which is what
keeps the 33-runs-by-300-rounds WAN sweeps and the 8-node
round-synchronised runs fast.
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
    ``phase``) the node is *slow to receive*, in one of two modes:

    - ``mode="scale"``: every message it receives is multiplied by
      ``factor`` (the WAN's Poland).

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
    mode: str = "scale"
    queue_unit: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("scale", "queue"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.mode == "queue" and self.queue_unit <= 0:
            raise ValueError("queue mode needs a positive queue_unit")
        if not self.period > 0.0:
            raise ValueError(f"period must be positive, got {self.period!r}")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError(f"duty must be in [0, 1], got {self.duty!r}")
        if not np.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase!r}")
        if not 0.0 < self.factor < np.inf:
            raise ValueError(
                f"factor must be positive and finite, got {self.factor!r}"
            )

    def active(self, now: float) -> bool:
        position = ((now + self.phase) % self.period) / self.period
        return position < self.duty

    def active_mask(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`active` over an array of send times."""
        times = np.asarray(times, dtype=float)
        position = ((times + self.phase) % self.period) / self.period
        return position < self.duty


def _per_link(value, n: int) -> np.ndarray:
    """A fresh ``(n, n)`` float matrix of ``value`` (scalar or matrix)."""
    matrix = np.empty((n, n))
    matrix[...] = value
    return matrix


class HeterogeneousNetwork(LatencyModel):
    """Parametric per-link latency model; see the module docstring."""

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
        self.base = base
        self.sigma = _per_link(sigma, n)
        self.tail_prob = _per_link(tail_prob, n)
        self.tail_shape = tail_shape
        self.loss_prob = _per_link(0.0 if loss_prob is None else loss_prob, n)
        self.slow_nodes = dict(slow_nodes or {})
        # Every parameter gathered per lane, once: the batch sampler's
        # arithmetic broadcasts these vectors over a column's rounds.
        dst, src = self.lanes
        link_base, link_sigma = base[dst, src], self.sigma[dst, src]
        link_tail, link_loss = self.tail_prob[dst, src], self.loss_prob[dst, src]
        self._lane_params = link_base, link_sigma, link_tail, link_loss
        for rule, values, ok in (
            ("base must be positive and finite", link_base,
             np.isfinite(link_base) & (link_base > 0)),
            ("sigma must be finite and >= 0", link_sigma,
             np.isfinite(link_sigma) & (link_sigma >= 0)),
            ("tail_prob must be in [0, 1]", link_tail,
             (link_tail >= 0) & (link_tail <= 1)),
            ("loss_prob must be in [0, 1]", link_loss,
             (link_loss >= 0) & (link_loss <= 1)),
        ):
            if not ok.all():
                row = int(np.argmin(ok))
                raise ValueError(
                    f"{type(self).__name__}: {rule}; link "
                    f"{src[row]}->{dst[row]} has {float(values[row])!r}"
                )
        if not tail_shape > 0:
            raise ValueError(
                f"{type(self).__name__}: tail_shape must be positive, "
                f"got {tail_shape!r}"
            )
        for node in self.slow_nodes:
            if node not in range(n):
                raise ValueError(
                    f"{type(self).__name__}: slow node {node!r} is not one "
                    f"of the {n} nodes"
                )

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
        slow = self.slow_nodes.get(dst)
        if slow is not None and slow.active(now):
            if slow.mode == "queue":
                latency += slow.queue_unit * self._expected_rank(src, dst)
            else:
                # One uniform per slowed message, drawn and unused: the
                # shared generator's sequence (every ping table of a slow
                # run, and the leader chosen from it) is pinned with it.
                rng.random()
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
            latencies[node, :] *= slow.factor
        losses = rng.random((n, n)) < self.loss_prob
        latencies[losses] = np.inf
        np.fill_diagonal(latencies, 0.0)
        return latencies

    # ------------------------------------------------------------------
    # Batch path: a few draws per column, arithmetic once per block.
    # ------------------------------------------------------------------
    @property
    def is_time_invariant(self) -> bool:
        return not self.slow_nodes

    def sample_lanes(self, start: int, stop: int, round_length: float) -> np.ndarray:
        """Rounds ``[start, stop)`` of every lane (lost = ``+inf``).

        Each column draws from its own generators, one per kind, each
        kind filled round-major over the whole link table:

        - ``n``: one normal per message (the log-normal body);
        - ``u``: two uniforms per message, the tail odds, then the loss;
        - ``p``: one Pareto excess per tail hit, in round-major order.

        Everything else is elementwise, so it runs once over the block,
        each message keeping its operand order — body, tail, ``dst``'s
        slow factor: floating-point products do not reassociate.
        Queue-mode nodes then rank each active round's actual arrivals
        (:meth:`_slow_down`), and loss comes last.
        """
        base, sigma, tail_prob, loss_prob = self._lane_params
        shape = (stop - start, tail_prob.size)
        latencies = np.empty(shape)
        uniforms = np.empty((shape[0], 2, shape[1]))
        tails = np.empty(shape, dtype=bool)
        tail_shape, excess = self.tail_shape, []
        for rows, (normal, uniform, pareto) in self._columns(start, stop, "nup"):
            normal.standard_normal(out=latencies[rows])
            uniform.random(out=uniforms[rows])
            hits = np.count_nonzero(
                np.less(uniforms[rows, 0], tail_prob, out=tails[rows])
            )
            if hits:
                excess.append(pareto.pareto(tail_shape, hits))

        latencies *= sigma
        np.exp(latencies, out=latencies)
        latencies *= base
        if excess:  # row-major mask order is round-major draw order
            factors = np.concatenate(excess) if len(excess) > 1 else excess[0]
            factors += 1.0
            latencies[tails] *= factors
        if self.slow_nodes:
            self._slow_down(latencies, np.arange(start, stop) * round_length)
        latencies[uniforms[:, 1] < loss_prob] = np.inf
        return latencies

    def _slow_down(self, latencies: np.ndarray, times: np.ndarray) -> None:
        """Apply every slow node to the rounds of ``times`` it is active
        in, on the lanes it receives on, in the ``(rounds, lanes)`` block
        ``latencies``, in place.

        A scale-mode node multiplies those lanes by its factor.  A
        queue-mode node ranks each active round's arrivals (lanes are in
        sender order and the sort is stable, so ties go to the lower pid)
        and each waits its queue position out — before loss, so lost
        messages still queue, as in :meth:`sample_round_latencies`.  Each
        node touches only its own lanes, so the order of nodes is moot.
        """
        dst = self.lanes[0]
        for node, slow in self.slow_nodes.items():
            active = np.flatnonzero(slow.active_mask(times))
            if not active.size:
                continue
            burst = np.ix_(active, np.flatnonzero(dst == node))
            if slow.mode == "scale":
                latencies[burst] *= slow.factor
            else:
                order = np.argsort(latencies[burst], axis=1, kind="stable")
                latencies[burst] += slow.queue_unit * np.argsort(order, axis=1)

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
