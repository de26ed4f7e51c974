"""Unit tests for the discrete-event queue and simulator loop."""

import pytest

from repro.sim.events import EventQueue, SimulationError, Simulator


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, lambda: fired.append("c"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(2.0, lambda: fired.append("b"))
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self):
        queue = EventQueue()
        order = []
        for label in "abcde":
            queue.push(1.0, lambda lbl=label: order.append(lbl))
        while (event := queue.pop()) is not None:
            event.action()
        assert order == list("abcde")

    def test_priority_breaks_ties_before_sequence(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("low"), priority=5)
        queue.push(1.0, lambda: order.append("high"), priority=0)
        while (event := queue.pop()) is not None:
            event.action()
        assert order == ["high", "low"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append("x"))
        queue.push(2.0, lambda: fired.append("y"))
        event.cancel()
        while (live := queue.pop()) is not None:
            live.action()
        assert fired == ["y"]

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        kept = queue.push(1.0, lambda: None)
        cancelled = queue.push(2.0, lambda: None)
        cancelled.cancel()
        assert len(queue) == 1
        assert kept.cancelled is False

    def test_len_tracks_push_pop_cancel(self):
        queue = EventQueue()
        events = [queue.push(float(t), lambda: None) for t in range(4)]
        assert len(queue) == 4
        queue.pop()
        assert len(queue) == 3
        events[2].cancel()
        assert len(queue) == 2
        while queue.pop() is not None:
            pass
        assert len(queue) == 0

    def test_double_cancel_does_not_corrupt_len(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        event = queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_len(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is first
        popped.cancel()  # fired-then-cancelled must not double-decrement
        assert len(queue) == 1

    def test_len_is_constant_time(self):
        # The live count must be maintained incrementally: polling len()
        # inside a simulator loop was O(heap) and made such loops
        # quadratic in the number of scheduled events.
        queue = EventQueue()
        for t in range(10_000):
            queue.push(float(t), lambda: None)
        import timeit

        elapsed = timeit.timeit(lambda: len(queue), number=10_000)
        assert elapsed < 0.5  # a heap scan would take tens of seconds

    def test_cancelled_events_skimmed_by_pop_stay_detached(self):
        # pop() discards a cancelled head on its way to a live event; the
        # discarded handle has no way back into the queue's bookkeeping.
        queue = EventQueue()
        head = queue.push(1.0, lambda: None)
        kept = queue.push(5.0, lambda: None)
        head.cancel()
        assert queue.pop() is kept
        assert head._queue is None
        head.cancel()  # must stay a no-op after the heap dropped it
        assert len(queue) == 0
        assert queue.pop() is None

    def test_empty_queue_pops_none(self):
        assert EventQueue().pop() is None


class TestSimulator:
    def test_time_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.schedule(7.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5, 7.0]
        assert sim.now == 7.0

    def test_schedule_in_is_relative(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule_in(0.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.5]

    def test_until_limit_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_until_in_the_past_fires_nothing_and_leaves_the_clock(self):
        # Regression: ``run(until=t)`` with ``t < now`` set ``now = t`` —
        # the rewind ``schedule`` and ``fast_forward`` both refuse — after
        # which an event could be scheduled, and fire, "before" one that
        # had already fired.
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(10))
        sim.schedule(20.0, lambda: fired.append(20))
        assert sim.run(until=12.0) == 12.0
        assert sim.run(until=5.0) == 12.0
        assert sim.now == 12.0
        assert fired == [10]
        with pytest.raises(SimulationError):
            sim.schedule(6.0, lambda: fired.append(6))
        sim.run()
        assert fired == [10, 20]

    def test_nan_until_is_rejected(self):
        # ``next_time > nan`` is always False: a NaN limit used to be,
        # silently, no limit at all.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert fired == []
        assert sim.now == 0.0
        sim.run()  # the refused call left the simulator usable
        assert fired == [1]

    def test_events_after_until_survive_for_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run()
        assert fired == [10]

    def test_stop_ends_the_run_after_the_current_event(self):
        sim = Simulator()
        fired = []

        def record(t):
            fired.append(t)
            if len(fired) == 3:
                sim.stop()

        for t in range(5):
            sim.schedule(float(t + 1), lambda t=t: record(t))
        assert sim.run() == 3.0
        assert fired == [0, 1, 2]
        assert sim.events_processed == 3
        assert sim.pending_events == 2

    def test_stop_when_holding_on_entry_fires_nothing(self):
        # A simulator stopped before run() is entered fires nothing: one
        # extra event could mutate state the caller considers final (e.g.
        # a fault callback after every node has stopped and been
        # collected).
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("extra"))
        sim.stop()
        assert sim.run() == 0.0
        assert sim.run(until=10.0) == 0.0
        assert fired == []
        assert sim.pending_events == 1  # the event survives, unfired

    def test_stop_when_entry_check_respects_prior_run_state(self):
        # The stop reached inside one run() holds for every later run():
        # the second call must notice it before popping anything.
        sim = Simulator()
        state = {"done": False, "late": False}

        def finish():
            state["done"] = True
            sim.stop()

        sim.schedule(1.0, finish)
        sim.schedule(2.0, lambda: state.update(late=True))
        assert sim.run() == 1.0
        assert sim.run() == 1.0
        assert state == {"done": True, "late": False}
        assert sim.pending_events == 1

    def test_pending_events_counts_live_events(self):
        sim = Simulator()
        kept = sim.schedule(1.0, lambda: None)
        doomed = sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        doomed.cancel()
        assert sim.pending_events == 1
        kept.cancel()
        assert sim.pending_events == 0

    def test_fast_forward_advances_without_firing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.fast_forward(0.5)
        assert sim.now == 0.5
        assert fired == []
        with pytest.raises(SimulationError):
            sim.fast_forward(0.25)  # the simulator never rewinds
        sim.run()
        assert fired == [1]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_in(-1.0, lambda: None)

    def test_nan_time_is_rejected_before_it_reaches_the_clock(self):
        # NaN compares false with everything, so a ``time < now`` guard
        # lets it through: the heap order becomes undefined and ``now``
        # turns NaN when the event fires, disarming every later guard.
        sim = Simulator()
        nan = float("nan")
        with pytest.raises(SimulationError):
            sim.schedule(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_in(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.fast_forward(nan)
        assert sim.pending_events == 0
        assert sim.now == 0.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(4):
            sim.schedule(float(t), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_drain_discards_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.drain()
        sim.run()
        assert fired == []

    def test_cancel_after_drain_is_a_true_noop(self):
        # drain() replaces the queue; events discarded with it must be
        # detached, or a later cancel() decrements the *dead* queue's live
        # count through the stale back-reference (and pins that queue in
        # memory for as long as the event handle lives).
        sim = Simulator()
        drained = sim.schedule(1.0, lambda: None)
        sim.drain()
        fired = []
        sim.schedule(2.0, lambda: fired.append("kept"))
        drained.cancel()
        drained.cancel()
        assert drained._queue is None
        assert len(sim._queue) == 1
        sim.run()
        assert fired == ["kept"]

    def test_drain_then_cancel_does_not_affect_new_queue_bookkeeping(self):
        sim = Simulator()
        old = [sim.schedule(float(t + 1), lambda: None) for t in range(3)]
        sim.drain()
        replacement = sim.schedule(5.0, lambda: None)
        for event in old:
            event.cancel()
        assert len(sim._queue) == 1
        replacement.cancel()
        assert len(sim._queue) == 0

    def test_cascading_events_keep_relative_order(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule_in(0.0, lambda: log.append("nested"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: log.append("second"))
        sim.run()
        # The nested zero-delay event was scheduled after "second".
        assert log == ["first", "second", "nested"]
