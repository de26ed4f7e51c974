"""Property tests of the event queue: live count, detachment, order.

``len(queue)`` must always equal the number of live (pushed, not popped,
not cancelled) events, under *any* interleaving of push / cancel / pop —
including the sequences that used to corrupt it: double cancels, cancels
after pop, and cancels of events the heap dropped while skimming a
cancelled prefix.  The last property drives the simulator as a run does:
transport deliveries posted as bare heap entries among cancellable
timers, with ``until`` cut-offs and drains.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.events import EventQueue

#: One operation: push(time), or cancel/pop.  Cancel targets are an
#: index into everything ever pushed (live or not), so stale handles —
#: popped events, already-cancelled events, events the heap has dropped —
#: get cancelled too, which is exactly where the bookkeeping can break.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.floats(0.0, 10.0, allow_nan=False)),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop"), st.just(0)),
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
    by pop's cancelled-prefix skim — has no way back into its
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
    ),
    max_size=80,
)


@given(ops=TIED_OPS)
@settings(max_examples=300, deadline=None)
def test_pop_order_is_time_then_priority_then_scheduling_order(ops):
    """Every pop returns the live event least in ``(time, priority,
    seq)`` — the total order a run's determinism rests on — under
    duplicated times, mixed priorities and cancels; and ``seq``
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
    assert [e.seq for e in pushed] == sorted(e.seq for e in pushed)
    assert len({e.seq for e in pushed}) == len(pushed)
    rest = []
    while (event := queue.pop()) is not None:
        rest.append(event)
    assert rest == sorted(live, key=key)


class _ScriptedLink:
    """A scalar-sampled link model: each message takes the latency the
    test queued for it."""

    def __init__(self) -> None:
        self.queued: list[float] = []

    def sample_latency(self, src, dst, now):
        return self.queued.pop(0)


#: Instants from a handful of values, so entries pile up on the same
#: instant and the order among them is the scheduling sequence.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0])

RUN_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.tuples(st.integers(0, 2), DELAYS)),
        st.tuples(st.just("timer"), st.tuples(DELAYS, st.booleans(), DELAYS)),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("run"), DELAYS),
        st.tuples(st.just("drain"), st.just(0)),
    ),
    max_size=60,
)


@given(ops=RUN_OPS)
@settings(max_examples=300, deadline=None)
def test_posted_deliveries_and_timers_fire_in_time_then_scheduling_order(ops):
    """Deliveries (bare heap entries) and cancellable timers share one
    ``(time, priority, seq)`` order: every firing is greater in it than
    the last, a run fires exactly the live entries up to its ``until``,
    a cancelled timer — cancelled before it fires, after, or after a
    drain — never fires, ``pending_events`` counts the live entries and
    ``events_processed`` only those that fired."""
    from repro.sim.events import Simulator
    from repro.sim.transport import Transport

    sim = Simulator()
    link = _ScriptedLink()
    transport = Transport(sim, link)
    fired: list[tuple[float, int]] = []  # (instant, scheduling seq)
    live: dict[int, float] = {}  # seq -> due instant, for live entries
    timers: list[tuple[int, object]] = []  # (seq, handle), ever created
    seqs = iter(range(10**6))  # mirrors the queue's one counter

    def fire(seq: int) -> None:
        assert sim.now == live.pop(seq)
        fired.append((sim.now, seq))

    for dst in range(3):
        transport.register(dst, lambda src, seq: fire(seq))

    def send(dst: int, latency: float) -> None:
        seq = next(seqs)
        live[seq] = sim.now + latency
        link.queued.append(latency)
        transport.send(3, dst, seq)  # from a fourth node: never self-addressed

    def start_timer(delay: float, then_send: bool, latency: float) -> None:
        seq = next(seqs)
        live[seq] = sim.now + delay

        def action() -> None:
            fire(seq)
            if then_send:  # posted from inside the loop
                send(1, latency)

        timers.append((seq, sim.schedule_in(delay, action)))

    for op, arg in ops:
        if op == "send":
            send(*arg)
        elif op == "timer":
            start_timer(*arg)
        elif op == "cancel" and timers:
            seq, handle = timers[arg % len(timers)]
            handle.cancel()
            live.pop(seq, None)
        elif op == "run":
            until = sim.now + arg
            before = sim.now
            sim.run(until=until)
            assert all(due > until for due in live.values())
            assert sim.now == (until if live else max(
                [before] + [t for t, _ in fired]))
        elif op == "drain":
            sim.drain()
            live.clear()
        assert fired == sorted(fired)
        assert len({seq for _, seq in fired}) == len(fired)
        assert sim.pending_events == len(live)
        assert sim.events_processed == len(fired)
    sim.run()
    assert not live
    assert fired == sorted(fired)
    assert sim.events_processed == len(fired)
