"""Deterministic discrete-event queue and simulator loop.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
makes the order total and deterministic: two events scheduled for the same
instant fire in scheduling order, so a run is fully reproducible from its
seed.

A heap entry is the tuple ``(time, priority, seq, fn, args)`` and firing
it is ``fn(*args)``.  Only timers — what :meth:`Simulator.schedule` and
:meth:`~Simulator.schedule_in` return — can be cancelled, so only they
carry an :class:`Event` handle (as their ``fn``, with no ``args``); a
message delivery is the bare tuple the transport posts.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import partial
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Raised when the simulator is driven incorrectly."""


class Event:
    """A scheduled, cancellable callback (a timer).

    Attributes:
        time: absolute simulation time at which the event fires.
        priority: tie-breaker before the sequence number; lower fires first.
        seq: global scheduling sequence number (assigned by the queue).
        action: zero-argument callable run when the event fires.
        cancelled: whether :meth:`cancel` was called.
    """

    __slots__ = ("time", "priority", "seq", "action", "cancelled", "_queue")

    def __init__(
        self, time: float, priority: int, seq: int,
        action: Callable[[], None], queue: Optional["EventQueue"],
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.cancelled = False
        self._queue = queue

    def __call__(self) -> None:
        """Fire: leave the queue, then run the action."""
        self._queue = None
        self.action()

    def cancel(self) -> None:
        """Make sure the event never fires; a no-op once it has left the
        queue (fired, popped or drained)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._cancelled.add(self.seq)
            self._queue = None


class EventQueue:
    """A priority queue of ``(time, priority, seq, fn, args)`` entries.

    ``heapq`` orders the tuples in C, and since ``seq`` is unique the
    comparison never reaches ``fn``.  A cancelled timer stays in the heap
    and its ``seq`` in :attr:`_cancelled` until it reaches the top, so
    the live count is ``len(heap) - len(cancelled)``.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Callable[..., None], tuple]] = []
        self._counter = itertools.count()
        self._cancelled: set[int] = set()

    def __len__(self) -> int:
        # O(1): simulator loops poll the queue length, and a heap scan
        # here turns those loops quadratic.
        return len(self._heap) - len(self._cancelled)

    def push(self, time: float, action: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``action`` at absolute ``time`` and return the event."""
        seq = next(self._counter)
        event = Event(time, priority, seq, action, self)
        heapq.heappush(self._heap, (time, priority, seq, event, ()))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty.
        An entry that is not a timer comes back as a detached
        :class:`Event` whose action fires it."""
        heap, cancelled = self._heap, self._cancelled
        while heap:
            time, priority, seq, fn, args = heapq.heappop(heap)
            if seq in cancelled:
                cancelled.discard(seq)
                continue
            if isinstance(fn, Event):
                fn._queue = None
                return fn
            return Event(time, priority, seq, partial(fn, *args), None)
        return None

    def clear(self) -> None:
        """Discard every pending entry, detaching each timer so a later
        ``cancel()`` of it is a true no-op."""
        for entry in self._heap:
            if isinstance(entry[3], Event):
                entry[3]._queue = None
        self._heap.clear()
        self._cancelled.clear()


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
        self._stopped = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired by the :meth:`run` calls that have
        returned."""
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

    def stop(self) -> None:
        """Finish the simulation: the running :meth:`run` returns once the
        current event has fired, and no later call fires anything."""
        self._stopped = True

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains, the time limit is
        reached or an event calls :meth:`stop`.

        Args:
            until: stop once the next event would fire after this time,
                and advance the clock to it — unless it lies in the
                past: then nothing fires and the clock stays (the
                simulator never rewinds).  NaN is an error.

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("run() re-entered; the simulator is not reentrant")
        until = math.inf if until is None else until
        if math.isnan(until):
            raise SimulationError("cannot run until NaN")
        self._running = True
        heap, cancelled = self._queue._heap, self._queue._cancelled
        pop, fired = heapq.heappop, 0
        try:
            while heap and not self._stopped:
                entry = pop(heap)
                time, _, seq, fn, args = entry
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                if time > until:
                    heapq.heappush(heap, entry)  # same key: same place
                    self._now = max(self._now, until)
                    break
                self._now = time
                fn(*args)
                fired += 1
        finally:
            self._events_processed += fired
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
        ``cancel()`` is a true no-op instead of marking an entry in a
        queue that no longer holds it.
        """
        self._queue.clear()
