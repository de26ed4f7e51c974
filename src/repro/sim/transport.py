"""Point-to-point message transport over the event queue.

The transport models an unreliable, unordered datagram network (the paper's
experiments use UDP): each message independently receives a latency from the
installed link model, or is dropped.  Messages may therefore be reordered,
arbitrarily late, or lost — exactly the asynchronous-network assumptions of
the paper's Section 2 — while the *timing model* properties emerge from the
statistics of the link model, not from the transport.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterable, Optional, Protocol, Sequence

import numpy as np

from repro.obs.registry import Counter, MetricsRegistry, registry_or_null
from repro.sim.events import Simulator
from repro.sim.rng import STREAM_CHUNK


class LinkModel(Protocol):
    """Samples per-message latency; ``None`` (or ``+inf``) means the
    message is lost."""

    def sample_latency(self, src: int, dst: int, now: float) -> Optional[float]:
        """Latency in seconds for a message from ``src`` to ``dst`` sent at ``now``."""
        ...


class LinkFaults(Protocol):
    """Per-message fault decisions, consulted by :meth:`Transport.broadcast`.

    A policy may also publish ``last_drop_cause`` — why its most recent
    :meth:`drop` returned ``True`` — to label the drop in telemetry, and
    a ``quiet(now) -> bool`` query: ``True`` promises that at ``now``
    every :meth:`drop` would return ``False`` and every
    :meth:`latency_factor` ``1.0``, with no side effect, so a broadcast
    that finds the policy quiet asks it nothing per message
    (:class:`repro.faults.event.PlanLinkFaults` publishes both).  A
    policy without ``quiet`` is asked about every message.
    """

    def drop(self, src: int, dst: int, now: float) -> bool:
        """Kill the message outright?"""
        ...

    def latency_factor(self, src: int, dst: int, now: float) -> float:
        """Multiplier applied to the sampled latency (1.0 = untouched)."""
        ...


def not_a_delay(model: LinkModel, src: int, dst: int, latency: float) -> ValueError:
    """What the event queue cannot place (NaN, a negative delay),
    reported by link and model."""
    return ValueError(
        f"link {src} → {dst}: {type(model).__name__}"
        f" sampled latency {float(latency)!r}, not a delay in seconds"
    )


class Transport:
    """Delivers payloads between numbered nodes through a :class:`LinkModel`.

    Nodes call :meth:`register` once with their receive callback, then
    :meth:`broadcast` — the unit of sending; :meth:`send` is a broadcast
    to one destination, so one body decides every message's fate.  Local
    (self-addressed) messages are delivered with zero latency and never
    lost, mirroring the paper's convention that a process's link with
    itself is always timely.

    When the installed link model is batch-capable *and* time-invariant
    (no slow windows or load spikes — e.g. a clean
    :class:`~repro.net.hetero.HeterogeneousNetwork` or the Bernoulli
    model), messages consume pre-sampled per-link latency streams.  A
    link's stream is its lane through the model's columns
    (:meth:`~repro.net.base.LatencyModel.sample_lanes`: rounds
    ``[256c, 256c + 256)`` of every link, :data:`STREAM_CHUNK` high), so
    a link's latency sequence is the same as its column of a trace,
    independent of global send interleaving.  When a link runs dry, the
    next column is drawn for the whole table at once and every link
    keeps its own cursor into it; a column is kept only while some
    opened link has yet to read it, so a crashed or idle sender pins
    one column, not every column drawn after it.  A column is checked
    as it is drawn, so a NaN or negative draw raises, naming its link,
    for whichever engine reads the stream.  Dynamic models (a
    :class:`~repro.net.planetlab.PlanetLabProfile` in a slow-Poland
    run) fall back to scalar ``sample_latency`` — time-dependent
    behaviour cannot be pre-sampled.

    :attr:`faults` is the one way a fault reaches a message: assign a
    :class:`LinkFaults` policy (or ``None``) and :meth:`broadcast` asks
    it, once per message in destination order, whether to drop and by
    how much to stretch — whichever source the latency comes from —
    unless the policy says it is quiet at the broadcast's instant.  The
    two sources keep their own draw discipline.  On the stream path
    every message consumes exactly one base draw from its link's
    stream — including messages the policy drops — so the ``i``-th
    message a link carries always sees the link's ``i``-th pre-sampled
    latency, whatever the faults do (which is what lets
    :mod:`repro.sync.batch` pre-sample whole fault windows).  On the
    scalar path the drop is decided first and a dropped message draws
    nothing from the model.

    What the wire did is counted, not recorded: ``messages_sent`` /
    ``messages_lost`` and, with a live ``metrics`` registry, the
    ``transport.*`` counters (drops by cause) and the latency histogram.
    A receiver sees a message only through its registered handler.
    """

    def __init__(
        self,
        simulator: Simulator,
        link_model: LinkModel,
        batch_streams: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._simulator = simulator
        # Deliveries go on the simulator's heap as bare entries: nothing
        # ever cancels a message, so it needs no Event handle.
        self._queue = simulator._queue
        self._link_model = link_model
        self._handlers: dict[int, Callable[[int, Any], None]] = {}
        self._batch_streams = batch_streams
        self._streams: dict[tuple[int, int], list] = {}
        self._columns: dict[int, np.ndarray] = {}
        # Can per-link latency streams be pre-sampled from the model?
        self._streams_usable = bool(
            getattr(link_model, "supports_batch_trace", False)
            and getattr(link_model, "is_time_invariant", False)
        )
        #: The per-message fault policy, or ``None``.  Assignable at any
        #: time; it never touches the link model or its streams.
        self.faults: Optional[LinkFaults] = None
        self.messages_sent = 0
        self.messages_lost = 0
        self._metrics = registry_or_null(metrics)
        self._sent_counter = self._metrics.counter("transport.sent")
        self._delivered_counter = self._metrics.counter("transport.delivered")
        self._latency_hist = self._metrics.histogram("transport.latency_seconds")
        self._drop_counters: dict[str, Counter] = {}

    def count_drops(self, cause: str, count: int = 1) -> None:
        """Account ``count`` lost messages to ``cause``.

        The per-cause counter is created on the first real drop: a
        zero-valued counter that one engine registered and the other
        never needed would break their snapshot equality.
        """
        if not count:
            return
        self.messages_lost += count
        counter = self._drop_counters.get(cause)
        if counter is None:
            counter = self._metrics.counter("transport.dropped", cause=cause)
            self._drop_counters[cause] = counter
        counter.inc(count)

    def count_sends(
        self, sent: int, delivered: int, latencies: np.ndarray
    ) -> None:
        """Account ``sent`` messages at once, as :meth:`send` would one
        by one: ``delivered`` reached a handler, and ``latencies`` holds
        the latency of each one not lost, in send order."""
        self.messages_sent += sent
        self._sent_counter.inc(sent)
        self._delivered_counter.inc(delivered)
        self._latency_hist.observe_many(latencies)

    @property
    def stream_sampling_active(self) -> bool:
        """Whether sends currently consume pre-sampled per-link streams.

        True iff stream consumption is enabled *and* the installed model
        is batch-capable and time-invariant; batched executors
        (:mod:`repro.sync.batch`) require it, since only then do the
        scalar and batched paths draw bit-identical latency sequences.
        """
        return self._batch_streams and self._streams_usable

    @property
    def streams_started(self) -> bool:
        """Whether any per-link stream has already been consumed from."""
        return bool(self._streams)

    @property
    def link_model(self) -> LinkModel:
        """The installed link model."""
        return self._link_model

    def _column(self, column: int) -> np.ndarray:
        """Rounds ``[256 * column, 256 * (column + 1))`` of every lane of
        the model, drawn on first need — the one place a column is drawn
        and its draws checked, so neither engine ever sees a value the
        event queue cannot place.  Drawing one first drops every column no
        opened link has left to read: a link holding its column's floats
        wants the next column, a link holding only a cursor wants the
        column the cursor points into."""
        columns = self._columns
        block = columns.get(column)
        if block is None:
            wanted = {
                state[2] + (1 if state[0] else state[1] // STREAM_CHUNK)
                for state in self._streams.values()
            }
            for stale in columns.keys() - wanted:
                del columns[stale]
            model = self._link_model
            # Time-invariant models ignore send times: any round length
            # draws the same column.
            first = column * STREAM_CHUNK
            block = model.sample_lanes(first, first + STREAM_CHUNK, 0.0)
            if not block.min() >= 0.0:  # NaN or negative; ``+inf`` is a loss
                at, lane = np.argwhere(~(block >= 0.0))[0]
                dst, src = model.lanes
                raise not_a_delay(model, src[lane], dst[lane], block[at, lane])
            columns[column] = block
        return block

    def _refill(self, links: Iterable[tuple[int, int]]) -> None:
        """Give every dry link among ``links`` — its floats read out, or
        never opened — the floats of the column its cursor is in.  A
        link's state is ``[floats, cursor, column]``: its position is
        ``256 * column + cursor``, and ``floats`` is its lane of that
        column as plain Python floats, or empty until a message pops."""
        streams, lane = self._streams, self._link_model.lane
        for link in links:
            state = streams.get(link)
            if state is None:
                state = streams[link] = [[], 0, 0]
            elif state[1] < len(state[0]):
                continue
            column = state[2] + state[1] // STREAM_CHUNK
            state[:] = (
                self._column(column)[:, lane(*link)].tolist(),
                state[1] % STREAM_CHUNK,
                column,
            )

    def next_stream_block(
        self, links: Sequence[tuple[int, int]], counts: Sequence[int]
    ) -> np.ndarray:
        """The next ``counts[i]`` pre-sampled latencies of each (distinct)
        link ``links[i] = (src, dst)`` at once, as row ``i`` of a
        ``(links, max(counts))`` block — a lost message is ``+inf``, as
        is a row's padding past its count — leaving every stream exactly
        where that many per-message pops would (a count of 0 opens no
        stream)."""
        if not self.stream_sampling_active:
            raise ValueError(
                f"{type(self._link_model).__name__} has no pre-sampled link"
                " streams on this transport: it is not batch-capable and"
                " time-invariant, or batch_streams is off"
            )
        if len(set(links)) != len(links):
            raise ValueError("a block takes each link's stream once")
        streams, lane = self._streams, self._link_model.lane
        width = max(counts, default=0)
        out = np.empty((len(links), width))
        # Rows at one position read the same rows of each column: one
        # gather per (position, column), whatever the number of links.
        at: dict[int, list[int]] = {}
        for row, count in enumerate(counts):
            if count:
                state = streams.get(links[row], (None, 0, 0))
                at.setdefault(STREAM_CHUNK * state[2] + state[1], []).append(row)
        for start, rows in at.items():
            stop = start + max(counts[row] for row in rows)
            lanes = [lane(*links[row]) for row in rows]
            for first in range(start - start % STREAM_CHUNK, stop, STREAM_CHUNK):
                column = self._column(first // STREAM_CHUNK)
                lo, hi = max(start, first), min(stop, first + STREAM_CHUNK)
                out[rows, lo - start : hi - start] = (
                    column[lo - first : hi - first, lanes].T
                )
            for row in rows:
                streams[links[row]] = [
                    [], (start + counts[row]) % STREAM_CHUNK,
                    (start + counts[row]) // STREAM_CHUNK,
                ]
        out[np.arange(width) >= np.asarray(counts)[:, None]] = np.inf
        return out

    def stream_latency(
        self, src: int, destinations: Sequence[int], index: int
    ) -> float:
        """The next pre-sampled latency of link ``src -> destinations[index]``
        (``+inf``: the link lost the message) — the one per-message read
        of the streams, for :meth:`broadcast` and for the stepped batched
        engine (:mod:`repro.sync.batch`), which sends the same messages
        in the same order.  ``destinations`` is the sender's whole
        transmission, in order, and ``index`` the message's place in it:
        what finds its link dry refills the dry links of the messages
        behind it too (a heartbeat's seven links run dry together), in
        one call — each would have been on its turn.  Only while
        :attr:`stream_sampling_active`, and never for ``src`` itself."""
        link = (src, destinations[index])
        state = self._streams.get(link)
        if state is None or state[1] >= len(state[0]):
            # Dry, or its column not yet read as floats.
            self._refill(
                (src, later) for later in destinations[index:] if later != src
            )
            state = self._streams[link]
        latency = state[0][state[1]]
        state[1] += 1
        return latency

    def register(self, node: int, handler: Callable[[int, Any], None]) -> None:
        """Install ``handler(src, payload)`` as the receive callback of ``node``."""
        if node in self._handlers:
            raise ValueError(f"node {node} already registered")
        self._handlers[node] = handler

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Send ``payload`` from ``src`` to ``dst``; it may be delayed or lost."""
        self.broadcast(src, (dst,), payload)

    def broadcast(self, src: int, destinations: Sequence[int], payload: Any) -> None:
        """Send ``payload`` to each destination in turn (independent
        loss/latency) — the unit of sending, and the one body that
        decides what happens to a message.  What the messages of one
        broadcast share (the instant, the fault policy, the stream
        table, the instruments) is looked up once."""
        faults, now = self.faults, self._simulator.now
        if faults is not None:
            quiet = getattr(faults, "quiet", None)
            if quiet is not None and quiet(now):
                faults = None
        read = self.stream_latency if self.stream_sampling_active else None
        observe = self._latency_hist.observe
        heap, seqs = self._queue._heap, self._queue._counter
        push, deliver = heapq.heappush, self._deliver
        self.messages_sent += len(destinations)
        self._sent_counter.inc(len(destinations))
        for index, dst in enumerate(destinations):
            cause: Optional[str] = None
            latency: Optional[float] = None
            if src == dst:
                latency = 0.0
            else:
                dropped = faults is not None and faults.drop(src, dst, now)
                guard = read is None  # a stream's chunk was checked when drawn
                if read is not None:
                    # One base draw per message, dropped or not: the policy
                    # decides on top, without perturbing the stream.
                    latency = read(src, destinations, index)
                elif not dropped:
                    latency = self._link_model.sample_latency(src, dst, now)
                if dropped:
                    latency = None
                    cause = getattr(faults, "last_drop_cause", None) or "fault"
                elif latency is not None:
                    if faults is not None:
                        factor = faults.latency_factor(src, dst, now)
                        if factor != 1.0:
                            latency, guard = latency * factor, True
                    # The one door a sampled latency enters by, whichever
                    # source drew it: ``+inf`` is a message the link lost, and
                    # what the event queue cannot place is reported here.
                    if latency == math.inf:
                        latency = None
                    elif guard and not latency >= 0.0:
                        raise not_a_delay(self._link_model, src, dst, latency)
            if latency is None:
                self.count_drops(cause or "link")
                continue
            observe(latency)
            # Every latency is a checked delay by now (a stream chunk
            # when drawn, anything else above), so it goes on the heap as
            # ``schedule_in`` would put it, without the handle.
            push(heap, (now + latency, 0, next(seqs), deliver, (src, dst, payload)))

    def _deliver(self, src: int, dst: int, payload: Any) -> None:
        """A message arrives, at whatever handler ``dst`` has by now."""
        handler = self._handlers.get(dst)
        if handler is None:
            # A destination that never registered cannot receive: the
            # message is lost, and must be counted as such or loss
            # statistics under-report.
            self.count_drops("unregistered")
            return
        self._delivered_counter.inc()
        handler(src, payload)
