"""Interfaces of the network substrate.

Two views of the same stochastic network are needed:

- the event-driven transport asks for one latency at a time
  (:class:`LatencyModel.sample_latency`, the :class:`~repro.sim.transport.LinkModel`
  protocol);
- the measurement experiments ask for whole *latency traces*, every
  round of every link at once (:meth:`LatencyModel.sample_trace_batch`),
  and threshold them against a timeout themselves.

A network profile implements both from the same per-link distributions, so
the lockstep experiments and the event-driven round-synchronization runs
see statistically identical networks.
"""

from __future__ import annotations

import abc
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.sim.rng import derive_pcg64_states


#: What a directed ``(src, dst)`` link's substream is hashed from.
_LINK_NAME = b"link:%d->%d"

#: What a ``PCG64`` is built from when its raw state is assigned straight
#: after: the constructor insists on a seed, and mixing a fresh
#: ``SeedSequence(0)`` per bit generator is half of its ~15 µs.
_ANY_SEED = np.random.SeedSequence(0)


def off_diagonal(n: int) -> np.ndarray:
    """The ``(n, n)`` boolean mask of the directed links (no self-links)."""
    return ~np.eye(n, dtype=bool)


class LatencyModel(abc.ABC):
    """A network: per-message latency sampling plus whole-trace sampling.

    Two sampling paths coexist:

    - the *scalar* path (:meth:`sample_latency`,
      :meth:`sample_round_latencies`) draws from the model's shared
      stateful generator, one message or one round at a time;
    - the *batch* path draws each directed link's sends from a per-link
      RNG substream derived by :func:`repro.sim.rng.derive_pcg64_states`
      — counter-style splittable seeding, so what a link draws is a pure
      function of ``(model parameters, seed, link)``, independent of
      sampling order and of which process samples it.  Its two
      primitives come per link and per block of links:
      :meth:`link_stream` / :meth:`link_streams` open the substreams, and
      :meth:`sample_link_batch` / :meth:`sample_link_block` draw one
      link's sends or a ``(links, times)`` block, each row from its own
      generator.  The block is what the consumers call — a whole trace
      (:meth:`sample_trace_batch`: every link a row, one scratch
      generator re-seated per row) and the transport's stream refill (the
      dry links' next chunks, each row on its link's long-lived
      generator).  Here both are generic, one :meth:`sample_link_batch`
      call per row, which serves a model that only knows one link at a
      time; a model whose per-link arithmetic is elementwise keeps only
      the draws per row
      (:class:`~repro.net.hetero.HeterogeneousNetwork`).

    The paths consume randomness differently and therefore do not
    reproduce each other draw-for-draw; they sample identical per-link
    distributions (asserted by ``tests/properties``).
    """

    #: Subclasses that implement :meth:`sample_link_batch` set this True;
    #: consumers use it to choose the batch trace path.
    supports_batch_trace: bool = False

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 2:
            raise ValueError("need at least 2 nodes")
        self.n = n
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        # One scratch bit generator every trace of this model re-seats;
        # see _trace_streams.
        self._scratch_bitgen: Optional[np.random.PCG64] = None

    @abc.abstractmethod
    def sample_latency(self, src: int, dst: int, now: float) -> Optional[float]:
        """Latency (seconds) of one message, or ``None`` if it is lost.

        ``now`` is the send time; profiles with time-varying behaviour
        (load spikes, slow windows) use it.
        """

    def sample_round_latencies(self, now: float) -> np.ndarray:
        """An ``n x n`` matrix of latencies for one all-to-all round.

        Entry ``[dst, src]`` is the latency of the message ``src`` sends to
        ``dst`` at time ``now``; lost messages appear as ``+inf``; the
        diagonal is 0 (self-delivery is immediate).
        """
        latencies = np.zeros((self.n, self.n))
        for src in range(self.n):
            for dst in range(self.n):
                if src == dst:
                    continue
                sample = self.sample_latency(src, dst, now)
                latencies[dst, src] = np.inf if sample is None else sample
        return latencies

    # ------------------------------------------------------------------
    # Batch path: per-link substreams, whole-trace sampling.
    # ------------------------------------------------------------------
    #: Time-invariant models (no slow windows, no load spikes) can be
    #: pre-sampled without knowing send times; the event-driven transport
    #: uses this to consume per-link latency streams.
    @property
    def is_time_invariant(self) -> bool:
        return False

    def link_streams(self, links: Sequence[tuple]) -> list[np.random.Generator]:
        """The independent RNG substream of each directed ``(src, dst)``
        link, as a long-lived generator of its own.

        Seeded by hashing ``(seed, link)``, so every link's stream is
        distinct, stable across runs, and independent of the order links
        are sampled in.

        The hash digest is installed as the raw PCG64 state
        (:func:`~repro.sim.rng.derive_pcg64_states`, one call for the
        block), skipping numpy's seed-sequence mixing pass — SHA-256
        already did the mixing.
        """
        generators = []
        for state in derive_pcg64_states(
            self.seed, [_LINK_NAME % link for link in links]
        ):
            bitgen = np.random.PCG64(_ANY_SEED)
            bitgen.state = state
            generators.append(np.random.Generator(bitgen))
        return generators

    def link_stream(self, src: int, dst: int) -> np.random.Generator:
        """The one-link case of :meth:`link_streams`."""
        return self.link_streams(((src, dst),))[0]

    def _trace_streams(self) -> tuple[list, Iterator[np.random.Generator]]:
        """``(links, seats)`` — the one place a trace's streams are seated.

        ``links`` is every directed link in trace order (``src`` outer,
        no self-links) and ``seats`` yields, once per link, the generator
        that link draws from: one scratch generator, re-seated on the
        link's :meth:`link_streams` state, bit for bit.  Built once per
        trace — the n(n-1) states are derived in one call, and one
        recycled ``PCG64`` takes raw state assignments (~1 µs each) where
        a fresh one costs its construction (~7 µs) — so what
        ``seats`` yields is only good until the next seat; long-lived
        consumers (the transport's per-link streams) use
        :meth:`link_streams`.
        """
        bitgen = self._scratch_bitgen
        if bitgen is None:
            bitgen = self._scratch_bitgen = np.random.PCG64(_ANY_SEED)
        rng = np.random.Generator(bitgen)
        links = [(s, d) for s in range(self.n) for d in range(self.n) if s != d]
        states = derive_pcg64_states(
            self.seed, [_LINK_NAME % link for link in links]
        )
        # Each seat paired with the generator it readied, the generator
        # kept: C iterators throughout, no Python frame per link.
        seats = map(partial(setattr, bitgen, "state"), states)
        return links, map(itemgetter(1), zip(seats, repeat(rng)))

    def sample_link_batch(
        self,
        src: int,
        dst: int,
        times: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Latencies of every message ``src → dst`` sent at ``times``.

        Lost messages appear as ``+inf``.  With no explicit ``rng`` the
        link's own substream (:meth:`link_stream`) is used.  Subclasses
        that override this must also set ``supports_batch_trace``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement batch sampling"
        )

    def sample_link_block(
        self,
        links: Sequence[tuple],
        times: np.ndarray,
        rngs: Iterable[np.random.Generator],
    ) -> np.ndarray:
        """Latencies of every message sent at ``times`` on each ``(src,
        dst)`` of ``links``, shape ``(links, times)``: row ``i`` is what
        :meth:`sample_link_batch` draws for ``links[i]`` from the ``i``-th
        generator of ``rngs``.  Rows are drawn in order, each generator
        taken from ``rngs`` only when its row is about to draw: a trace's
        seats (:meth:`_trace_streams`) ready one scratch generator per
        row as they yield it.

        Generic: one :meth:`sample_link_batch` call per row.
        """
        return np.array([
            self.sample_link_batch(src, dst, times, rng)
            for (src, dst), rng in zip(links, rngs)
        ])

    def sample_trace_batch(self, rounds: int, round_length: float) -> np.ndarray:
        """A whole latency trace, shape ``(rounds, n, n)``, batch-sampled.

        Round ``k`` is sent at ``k * round_length``; entry
        ``[k, dst, src]`` is the latency of ``src``'s message to ``dst``
        (``+inf`` = lost, diagonal 0).  Each link's column comes from its
        own substream, so the result is bit-reproducible across calls and
        across processes — it never touches the model's shared ``_rng``.
        """
        times = np.arange(rounds) * round_length
        trace = np.zeros((rounds, self.n, self.n))
        links, seats = self._trace_streams()
        src, dst = np.array(links).T
        trace[:, dst, src] = self.sample_link_block(links, times, seats).T
        return trace
