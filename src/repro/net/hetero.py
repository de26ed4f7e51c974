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

Three samplers share these distributions: one message, one round (both on
the model's shared generator) and the batch sampler — whole traces, the
transport's blocks of per-link chunks, a single link — which keeps only
the RNG draws per link and does the arithmetic once per block of links
(``_sample_links``), which is what keeps the 33-runs-by-300-rounds WAN
sweeps and the 8-node round-synchronised runs fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.net.base import LatencyModel, off_diagonal


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
        self.base = base
        self.sigma = _per_link(sigma, n)
        self.tail_prob = _per_link(tail_prob, n)
        self.tail_shape = tail_shape
        self.loss_prob = _per_link(0.0 if loss_prob is None else loss_prob, n)
        self.slow_nodes = dict(slow_nodes or {})
        # The directed links as rows, in trace order (src outer; see
        # LatencyModel._trace_streams), each parameter gathered per row —
        # as a column where the block arithmetic broadcasts it.
        self._links = src, dst = np.nonzero(off_diagonal(n))
        link_base, link_sigma = base[dst, src], self.sigma[dst, src]
        link_tail, link_loss = self.tail_prob[dst, src], self.loss_prob[dst, src]
        self._link_params = (
            link_base[:, None], link_sigma[:, None], link_tail, link_loss[:, None]
        )
        if np.any(link_base <= 0):
            raise ValueError("off-diagonal base latencies must be positive")
        for rule, values, ok in (
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
    # Batch path: draws per link, arithmetic per block of links.
    # ------------------------------------------------------------------
    @property
    def is_time_invariant(self) -> bool:
        return not self.slow_nodes

    def _sample_links(
        self,
        ends: tuple,
        params: tuple,
        times: np.ndarray,
        seats: Iterable[np.random.Generator],
        whole_burst: bool,
    ) -> np.ndarray:
        """The one body of the batch path: latencies (lost = ``+inf``) of a
        block of link rows at every send time, shape ``(rows, times)``.

        ``ends`` is the rows' ``(src, dst)`` vectors and ``params`` their
        ``(base, sigma, tail_prob, loss_prob)`` vectors (``base``,
        ``sigma`` and ``loss_prob`` as columns).

        Only the draws happen per link.  ``seats`` yields once per row
        the generator on that row's stream — a trace's one scratch
        generator re-seated, a transport link's own — and the row then
        draws from it, in this order and nothing else:

        1. one normal vector (the log-normal body);
        2. one 2-row uniform block (tail odds, loss);
        3. one Pareto excess per tail hit;
        4. one uniform vector per slow-window block of :meth:`_slow_plan`
           the row is in — its ``dst``'s ("in") before its ``src``'s.

        Everything else is elementwise, so it runs once over the block,
        each link keeping its operand order — body, tail, ``dst``'s slow
        factor, ``src``'s: floating-point products do not reassociate.
        """
        base, sigma, tail_prob, loss_prob = params
        src, dst = ends
        count = len(times)
        plan, row_draws = (
            self._slow_plan(ends, np.asarray(times, dtype=float), whole_burst)
            if self.slow_nodes
            else ((), {})
        )
        latencies = np.empty((len(tail_prob), count))
        uniforms = np.empty((len(tail_prob), 2, count))
        tails = np.empty(latencies.shape, dtype=bool)
        tail_shape = self.tail_shape
        less, count_nonzero = np.less, np.count_nonzero
        excess = []
        for row, rng in enumerate(seats):
            rng.standard_normal(out=latencies[row])
            rng.random(out=uniforms[row])
            hits = count_nonzero(
                less(uniforms[row, 0], tail_prob[row], out=tails[row])
            )
            if hits:
                excess.append(rng.pareto(tail_shape, hits))
            if row in row_draws:
                for vector in row_draws[row]:
                    rng.random(out=vector)

        latencies *= sigma
        np.exp(latencies, out=latencies)
        latencies *= base
        if excess:  # row-major mask order is row order
            factors = np.concatenate(excess) if len(excess) > 1 else excess[0]
            factors += 1.0
            latencies[tails] *= factors
        for touched, draws, slow, active in plan:
            if slow.mode == "scale":
                if draws is not None:
                    active = active & (draws < slow.per_message_prob)
                slowed = latencies[touched]
                np.multiply(slowed, slow.factor, out=slowed, where=active)
                latencies[touched] = slowed
            elif whole_burst:
                # Rank each active round's arrivals (rows are in sender
                # order and the sort is stable, so ties go to the lower
                # pid); each waits its queue position out.
                burst = np.ix_(touched, np.flatnonzero(active))
                order = np.argsort(latencies[burst], axis=0, kind="stable")
                latencies[burst] += slow.queue_unit * np.argsort(order, axis=0)
            else:  # a link on its own: its expected place in the burst
                for row in touched.tolist():
                    latencies[row, active] += slow.queue_unit * (
                        self._expected_rank(src[row], dst[row])
                    )
        latencies[uniforms[:, 1] < loss_prob] = np.inf
        return latencies

    def _slow_plan(
        self, ends: tuple, times: np.ndarray, whole_burst: bool
    ) -> tuple[list, dict[int, list[np.ndarray]]]:
        """``(plan, row_draws)``: how the slow nodes active somewhere in
        ``times`` touch the link rows whose ``(src, dst)`` are ``ends``.

        ``plan`` lists ``(touched rows, draws, slow, active mask)`` in
        application order: every node slowing what it receives (the rows
        whose ``dst`` it is), then every node slowing what it sends, so a
        link's ``dst`` factor lands before its ``src`` factor as in
        :meth:`sample_latency`.  ``draws`` is the uniform block a
        scale-mode node with ``per_message_prob < 1`` decides each
        message by (else ``None``); ``row_draws`` maps a row to the
        vectors of those blocks it fills, in that order.

        Queue-mode slowness needs the rest of the burst.  With
        ``whole_burst`` (a trace: every sender into the node is a row) the
        node ranks its actual arrivals after every slow factor and before
        loss — lost messages still queue, as in
        :meth:`sample_round_latencies`; a link sampled on its own is
        charged its expected rank where :meth:`sample_latency` charges
        it, between the two factors.
        """
        src, dst = ends
        live = [
            (node, slow, active)
            for node, slow in self.slow_nodes.items()
            for active in (slow.active_mask(times),)
            if active.any()
        ]
        plan, ranked, row_draws = [], [], {}
        for role, end in (("in", dst), ("out", src)):
            for node, slow, active in live:
                touched = np.flatnonzero(end == node)
                draws = None
                if slow.mode == "queue":
                    if role == "in":
                        (ranked if whole_burst else plan).append(
                            (touched, None, slow, active)
                        )
                elif slow.direction in (role, "both"):
                    if slow.per_message_prob < 1.0:
                        draws = np.empty((touched.size, times.size))
                        for row, vector in zip(touched.tolist(), draws):
                            row_draws.setdefault(row, []).append(vector)
                    plan.append((touched, draws, slow, active))
        return plan + ranked, row_draws

    def sample_link_block(
        self,
        links: Sequence[tuple],
        times: np.ndarray,
        rngs: Iterable[np.random.Generator],
    ) -> np.ndarray:
        """Any links as rows of :meth:`_sample_links`, each drawn from its
        own generator and sampled on its own (no shared burst)."""
        src, dst = ends = np.array(links).T
        at = dst, src
        params = (
            self.base[at][:, None], self.sigma[at][:, None],
            self.tail_prob[at], self.loss_prob[at][:, None],
        )
        return self._sample_links(ends, params, times, rngs, whole_burst=False)

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
        """Every link as a row of :meth:`_sample_links`, each seated on its
        own substream, laid out as ``(rounds, n, n)``."""
        _, seats = self._trace_streams()
        n = self.n
        src, dst = self._links
        # Whole rows into a link-major block (the diagonal's stay zero),
        # then one transposing copy: cheaper than a strided scatter.
        by_link = np.zeros((n * n, rounds))
        by_link[dst * n + src] = self._sample_links(
            self._links, self._link_params,
            np.arange(rounds) * round_length, seats, whole_burst=True,
        )
        return np.ascontiguousarray(by_link.T).reshape(rounds, n, n)

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
