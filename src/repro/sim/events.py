"""Deterministic discrete-event queue and simulator loop.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
makes the order total and deterministic: two events scheduled for the same
instant fire in scheduling order, so a run is fully reproducible from its
seed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Raised when the simulator is driven incorrectly."""


class Event:
    """A scheduled callback.

    Attributes:
        time: absolute simulation time at which the event fires.
        priority: tie-breaker before the sequence number; lower fires first.
        seq: global scheduling sequence number (assigned by the queue).
        action: zero-argument callable run when the event fires.
        cancelled: cancelled events stay in the heap but are skipped.
    """

    __slots__ = ("time", "priority", "seq", "action", "cancelled", "_queue")

    def __init__(
        self, time: float, priority: int, seq: int,
        action: Callable[[], None], queue: "EventQueue",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the simulator skips it."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._on_cancel(self)


class EventQueue:
    """A priority queue of :class:`Event` objects.

    The heap holds ``(time, priority, seq, event)`` tuples: ``heapq``
    orders those in C, and since ``seq`` is unique the comparison never
    reaches the event itself.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        # O(1): simulator loops poll the queue length, and a heap scan
        # here turns those loops quadratic.
        return self._live

    def _on_cancel(self, event: Event) -> None:
        """Called exactly once per cancelled in-queue event."""
        self._live -= 1
        event._queue = None

    def push(self, time: float, action: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``action`` at absolute ``time`` and return the event."""
        seq = next(self._counter)
        event = Event(time, priority, seq, action, self)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if not event.cancelled:
                self._live -= 1
                event._queue = None
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, if any."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            # Detached when it was cancelled: ``len(queue) == live events``
            # never depends on an event this queue no longer holds.
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def clear(self) -> None:
        """Discard every pending event, detaching each one so a later
        ``cancel()`` of it is a true no-op."""
        for entry in self._heap:
            entry[3]._queue = None
        self._heap.clear()
        self._live = 0


class Simulator:
    """Runs events in time order.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("hello at t=1.5"))
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events awaiting execution."""
        return len(self._queue)

    def schedule(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at absolute simulation time ``time``.

        Scheduling in the past is an error: the simulator never rewinds.
        So is a NaN time, which the comparison is written to reject — it
        would leave the heap order undefined and turn the clock into NaN.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        return self._queue.push(time, action)

    def schedule_in(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` after ``delay`` units of simulation time."""
        # Written so NaN fails too; ``now + delay`` is then never in the past.
        if not delay >= 0:
            raise SimulationError(f"negative or NaN delay {delay}")
        return self._queue.push(self._now + delay, action)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Process events until the queue drains or a limit is hit.

        Args:
            until: stop once the next event would fire after this time,
                and advance the clock to it — unless it lies in the
                past: then nothing fires and the clock stays (the
                simulator never rewinds).  NaN is an error.
            max_events: stop after this many events fire in this call.
            stop_when: checked on entry and after each event; return
                ``True`` to stop.

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("run() re-entered; the simulator is not reentrant")
        until = math.inf if until is None else until
        max_events = math.inf if max_events is None else max_events
        if math.isnan(until):
            raise SimulationError("cannot run until NaN")
        self._running = True
        queue, heap, pop = self._queue, self._queue._heap, heapq.heappop
        fired = 0
        try:
            # A stop condition that already holds must prevent the first
            # event from firing at all: one extra event can mutate state
            # the caller considers final (e.g. a fault callback after
            # every node has stopped).  After this entry check, the
            # per-event check below is exhaustive — no event can run
            # between it and the next pop.
            if stop_when is not None and stop_when():
                return self._now
            while fired < max_events:
                while heap and heap[0][3].cancelled:
                    pop(heap)
                if not heap:
                    break
                if heap[0][0] > until:
                    self._now = max(self._now, until)
                    break
                time, _, _, event = pop(heap)
                queue._live -= 1
                event._queue = None
                self._now = time
                event.action()
                self._events_processed += 1
                fired += 1
                if stop_when is not None and stop_when():
                    break
        finally:
            self._running = False
        return self._now

    def fast_forward(self, time: float) -> None:
        """Advance the clock to ``time`` without firing anything.

        Used by batched executors (:mod:`repro.sync.batch`) that compute
        a run's outcome outside the event loop and then leave the
        simulator at the instant the scalar loop would have stopped.
        Rewinding (or a NaN time) is an error, exactly as for
        :meth:`schedule`.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot fast-forward to {time} before current time {self._now}"
            )
        self._now = time

    def drain(self) -> None:
        """Discard all pending events (used when tearing a run down).

        Discarded events are detached from the queue so a post-drain
        ``cancel()`` is a true no-op instead of decrementing the live
        count of a queue that no longer holds them.
        """
        self._queue.clear()
