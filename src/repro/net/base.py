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
from typing import Iterator, Optional

import numpy as np

from repro.sim.rng import STREAM_CHUNK, column_generators


def off_diagonal(n: int) -> np.ndarray:
    """The ``(n, n)`` boolean mask of the directed links (no self-links)."""
    return ~np.eye(n, dtype=bool)


class LatencyModel(abc.ABC):
    """A network: per-message latency sampling plus whole-trace sampling.

    Two sampling paths coexist:

    - the *scalar* path (:meth:`sample_latency`,
      :meth:`sample_round_latencies`) draws from the model's shared
      stateful generator, one message or one round at a time;
    - the *batch* path (:meth:`sample_lanes`) draws in *columns*: column
      ``c`` is rounds ``[256c, 256c + 256)`` (:data:`STREAM_CHUNK`) of
      every directed link, each link a *lane* (:attr:`lanes`), drawn by
      one generator per draw kind seated on ``(seed, c, kind)``
      (:func:`~repro.sim.rng.column_generators`) and filled round-major,
      so the first ``h`` rounds of a column are the same bytes whether
      ``h`` or 256 rounds are drawn.  A link's stream is its lane through
      the columns: a pure function of ``(model parameters, seed, link,
      column)``, independent of sampling order and of which process
      samples it.  A trace (:meth:`sample_trace_batch`) is the first
      ``rounds`` rows of the columns; the transport's stream refill is
      one whole column.

    The paths consume randomness differently and therefore do not
    reproduce each other draw-for-draw; they sample identical per-link
    distributions (asserted by ``tests/properties``).
    """

    #: Subclasses that implement :meth:`sample_lanes` set this True;
    #: consumers use it to choose the batch trace path.
    supports_batch_trace: bool = False

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 2:
            raise ValueError("need at least 2 nodes")
        self.n = n
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        #: ``(dst, src)`` of every lane: the directed links in row-major
        #: order of an ``[dst, src]`` matrix.
        self.lanes = np.nonzero(off_diagonal(n))

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
    # Batch path: columns of every link, whole-trace sampling.
    # ------------------------------------------------------------------
    #: Time-invariant models (no slow windows, no load spikes) can be
    #: pre-sampled without knowing send times; the event-driven transport
    #: uses this to consume per-link latency streams.
    @property
    def is_time_invariant(self) -> bool:
        return False

    def lane(self, src: int, dst: int) -> int:
        """The lane of the directed link ``src → dst``."""
        return dst * (self.n - 1) + src - (src > dst)

    def _columns(
        self, start: int, stop: int, kinds: str
    ) -> Iterator[tuple[slice, list[np.random.Generator]]]:
        """Each column rounds ``[start, stop)`` touch, as ``(rows,
        generators)``: the rows of the ``(stop - start, lanes)`` output it
        fills, and its generators, one per character of ``kinds``, seated
        as the column is reached (so good until the next step)."""
        if start % STREAM_CHUNK:
            raise ValueError(
                f"rounds start at a column boundary, not at {start}"
            )
        for first in range(start, stop, STREAM_CHUNK):
            yield (
                slice(first - start, min(first + STREAM_CHUNK, stop) - start),
                column_generators(self.seed, first // STREAM_CHUNK, kinds),
            )

    def sample_lanes(self, start: int, stop: int, round_length: float) -> np.ndarray:
        """Latencies of rounds ``[start, stop)`` on every lane, shape
        ``(stop - start, lanes)`` (lost = ``+inf``).  Round ``k`` is sent
        at ``k * round_length``; ``start`` is a column boundary.
        Subclasses that implement this set ``supports_batch_trace``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement batch sampling"
        )

    def sample_trace_batch(self, rounds: int, round_length: float) -> np.ndarray:
        """A whole latency trace, shape ``(rounds, n, n)``, batch-sampled.

        Round ``k`` is sent at ``k * round_length``; entry
        ``[k, dst, src]`` is the latency of ``src``'s message to ``dst``
        (``+inf`` = lost, diagonal 0): the first ``rounds`` rows of the
        columns, so the result is bit-reproducible across calls and
        across processes — it never touches the model's shared ``_rng``.
        """
        n = self.n
        trace = np.zeros((rounds, n * n))
        # The off-diagonal entries of a row-major (n, n) matrix, in lane
        # order, are the first n of every n + 1 after the first entry.
        trace[:, 1:].reshape(rounds, n - 1, n + 1)[:, :, :n] = self.sample_lanes(
            0, rounds, round_length
        ).reshape(rounds, n - 1, n)
        return trace.reshape(rounds, n, n)
