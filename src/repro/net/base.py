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
from typing import Iterator, Optional

import numpy as np

from repro.sim.rng import derive_pcg64_state, derive_pcg64_states


def off_diagonal(n: int) -> np.ndarray:
    """The ``(n, n)`` boolean mask of the directed links (no self-links)."""
    return ~np.eye(n, dtype=bool)


class LatencyModel(abc.ABC):
    """A network: per-message latency sampling plus whole-trace sampling.

    Two sampling paths coexist:

    - the *scalar* path (:meth:`sample_latency`,
      :meth:`sample_round_latencies`) draws from the model's shared
      stateful generator, one message or one round at a time;
    - the *batch* path (:meth:`sample_link_batch`,
      :meth:`sample_trace_batch`) draws each directed link's full column
      of rounds from a per-link RNG substream derived by
      :func:`repro.sim.rng.derive_pcg64_states` — counter-style
      splittable seeding, so a whole trace is a pure function of
      ``(model parameters, seed)``, independent of sampling order and of
      which process samples it.  :meth:`sample_trace_batch` here is
      generic, one :meth:`sample_link_batch` call per link; a model whose
      per-link arithmetic is elementwise keeps only the draws per link
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

    def link_stream(self, src: int, dst: int) -> np.random.Generator:
        """The independent RNG substream of the directed link ``src → dst``.

        Seeded by hashing ``(seed, link)``, so every link's stream is
        distinct, stable across runs, and independent of the order links
        are sampled in.

        The hash digest is installed as the raw PCG64 state
        (:func:`~repro.sim.rng.derive_pcg64_state`), skipping numpy's
        seed-sequence mixing pass — SHA-256 already did the mixing.
        """
        bitgen = np.random.PCG64(0)
        bitgen.state = derive_pcg64_state(self.seed, f"link:{src}->{dst}")
        return np.random.Generator(bitgen)

    def _trace_streams(self) -> tuple[np.random.Generator, Iterator]:
        """``(rng, seated)`` — the one place a trace's streams are seated.

        ``seated`` yields ``((src, dst), None)`` per directed link in
        trace order (``src`` outer, no self-links), having re-seated
        ``rng`` on that link's :meth:`link_stream` state: one generator
        draws every link from its own substream, bit for bit.  Built once
        per trace — the n(n-1) states are derived in one call, and one
        recycled ``PCG64`` takes raw state assignments (~1 µs each) where
        a fresh one costs a ``SeedSequence`` pass (~7 µs) — so ``rng`` is
        only good until the next call on this model; long-lived consumers
        (the transport's per-link streams) use :meth:`link_stream`.
        """
        bitgen = self._scratch_bitgen
        if bitgen is None:
            bitgen = self._scratch_bitgen = np.random.PCG64(0)
        links = [(s, d) for s in range(self.n) for d in range(self.n) if s != d]
        states = derive_pcg64_states(
            self.seed, [b"link:%d->%d" % link for link in links]
        )
        seats = map(partial(setattr, bitgen, "state"), states)
        return np.random.Generator(bitgen), zip(links, seats)

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
        rng, seated = self._trace_streams()
        for (src, dst), _ in seated:
            trace[:, dst, src] = self.sample_link_batch(src, dst, times, rng)
        return trace

    def reseed(self, seed: int) -> None:
        """Reset the random state (used to start a new independent run)."""
        self.seed = seed
        self._rng = np.random.default_rng(seed)
