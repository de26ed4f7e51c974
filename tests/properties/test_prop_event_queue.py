"""Property tests of the event queue: live count, detachment, order.

``len(queue)`` must always equal the number of live (pushed, not popped,
not cancelled) events, under *any* interleaving of push / cancel / pop /
peek — including the sequences that used to corrupt it: double cancels,
cancels after pop, and cancels of events that ``peek_time`` silently
dropped from the heap while skimming a cancelled prefix.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.events import EventQueue

#: One operation: push(time), or cancel/pop/peek.  Cancel targets are an
#: index into everything ever pushed (live or not), so stale handles —
#: popped events, already-cancelled events, events the heap has dropped —
#: get cancelled too, which is exactly where the bookkeeping can break.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.floats(0.0, 10.0, allow_nan=False)),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("peek"), st.just(0)),
    ),
    max_size=60,
)


@given(ops=OPS)
@settings(max_examples=300, deadline=None)
def test_len_always_equals_live_event_count(ops):
    queue = EventQueue()
    pushed = []  # every event handle ever created
    popped = set()
    for op, arg in ops:
        if op == "push":
            pushed.append(queue.push(arg, lambda: None))
        elif op == "cancel" and pushed:
            pushed[arg % len(pushed)].cancel()
        elif op == "pop":
            event = queue.pop()
            if event is not None:
                assert not event.cancelled
                popped.add(id(event))
        elif op == "peek":
            time = queue.peek_time()
            if time is not None:
                live = [
                    e for e in pushed
                    if not e.cancelled and id(e) not in popped
                ]
                assert time == min(e.time for e in live)
        live_count = sum(
            1
            for e in pushed
            if not e.cancelled and id(e) not in popped
        )
        assert len(queue) == live_count

    # Drain what's left: every remaining live event must actually pop.
    remaining = len(queue)
    drained = 0
    while queue.pop() is not None:
        drained += 1
    assert drained == remaining
    assert len(queue) == 0


@given(ops=OPS)
@settings(max_examples=150, deadline=None)
def test_events_leaving_the_queue_are_detached(ops):
    """An event that has left the queue — popped, cancelled, or dropped
    by peek_time's cancelled-prefix skim — has no way back into its
    bookkeeping: whatever is done with the handle afterwards, the queue
    counts and holds exactly the live events."""
    queue = EventQueue()
    pushed = []
    popped = set()
    for op, arg in ops:
        if op == "push":
            pushed.append(queue.push(arg, lambda: None))
        elif op == "cancel" and pushed:
            pushed[arg % len(pushed)].cancel()
        elif op == "pop":
            event = queue.pop()
            if event is not None:
                popped.add(id(event))
        elif op == "peek":
            queue.peek_time()
    live = [e for e in pushed if not e.cancelled and id(e) not in popped]
    for event in pushed:
        if event.cancelled or id(event) in popped:
            assert event._queue is None
            event.cancel()  # a stale handle: must change nothing
            assert len(queue) == len(live)
    drained = []
    while (event := queue.pop()) is not None:
        drained.append(event)
    assert sorted(map(id, drained)) == sorted(map(id, live))


#: Times from a handful of values, so most pushes tie with an earlier one
#: and the order is decided by priority, then by scheduling sequence.
TIED_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.integers(-2, 2)),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("peek"), st.just(0)),
    ),
    max_size=80,
)


@given(ops=TIED_OPS)
@settings(max_examples=300, deadline=None)
def test_pop_order_is_time_then_priority_then_scheduling_order(ops):
    """Every pop returns the live event least in ``(time, priority,
    seq)`` — the total order a run's determinism rests on — under
    duplicated times, mixed priorities, cancels and peeks; and ``seq``
    is the scheduling order (FIFO among full ties)."""

    def key(event):
        return (event.time, event.priority, event.seq)

    queue = EventQueue()
    pushed = []
    live = []
    for op, arg in ops:
        if op == "push":
            time, priority = arg
            event = queue.push(time, lambda: None, priority=priority)
            assert (event.time, event.priority) == (time, priority)
            pushed.append(event)
            live.append(event)
        elif op == "cancel" and pushed:
            target = pushed[arg % len(pushed)]
            target.cancel()
            if target in live:
                live.remove(target)
        elif op == "pop":
            event = queue.pop()
            if live:
                assert event is min(live, key=key)
                live.remove(event)
            else:
                assert event is None
        elif op == "peek":
            expected = min(live, key=key).time if live else None
            assert queue.peek_time() == expected
    assert [e.seq for e in pushed] == sorted(e.seq for e in pushed)
    assert len({e.seq for e in pushed}) == len(pushed)
    rest = []
    while (event := queue.pop()) is not None:
        rest.append(event)
    assert rest == sorted(live, key=key)
