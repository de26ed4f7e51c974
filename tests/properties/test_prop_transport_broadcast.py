"""``broadcast(src, dsts, p)`` ≡ ``for dst in dsts: send(src, dst, p)``.

The broadcast is the unit of sending — one body decides what happens to
a message, looking up once what all the messages of a round share — and
``send`` is a broadcast to one destination.  Nothing a run can observe
may tell the two apart: on twin transports fed the same schedule of
sends, one through ``broadcast`` and one message by message, the stream
cursors, the totals, the counters and histogram of a live registry, the
handler calls (who heard what from whom, when) and what a fault policy
is asked (one ``drop`` per message in destination order — its burst
counters advance per query) are all equal.
"""

from hypothesis import given, settings, strategies as st

from repro.faults.event import PlanLinkFaults
from repro.faults.plan import FaultPlan, LossBurst, Partition, SlowNode
from repro.net import planetlab_profile
from repro.obs.registry import MetricsRegistry
from repro.sim import Simulator, Transport

N = 8
TIMEOUT = 0.2
UNREGISTERED = N - 1  # a pid the network knows and no handler serves

PLAN = FaultPlan(
    n=N,
    loss_bursts=(LossBurst(2, 3, drop_prob=0.6),),
    partitions=(
        Partition(groups=((0, 1, 2, 3), (4, 5, 6, 7)), start_round=5, heal_round=7),
    ),
    slow_nodes=(SlowNode(pid=1, start_round=8, end_round=9, factor=2.5),),
    seed=7,
)


class Recording:
    """A fault policy that notes every question it is asked, then lets
    the wrapped policy answer."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = []

    @property
    def last_drop_cause(self):
        return self.inner.last_drop_cause

    def drop(self, src, dst, now):
        self.asked.append(("drop", src, dst, now))
        return self.inner.drop(src, dst, now)

    def latency_factor(self, src, dst, now):
        self.asked.append(("factor", src, dst, now))
        return self.inner.latency_factor(src, dst, now)


class Twin:
    def __init__(self, seed, streams, faulted):
        self.simulator = Simulator()
        self.metrics = MetricsRegistry()
        self.model = planetlab_profile(seed=seed, slow_run_prob=0.0)
        self.transport = Transport(
            self.simulator, self.model, batch_streams=streams, metrics=self.metrics,
        )
        assert self.transport.stream_sampling_active == streams
        self.policy = None
        if faulted:
            self.policy = Recording(PlanLinkFaults(PLAN, TIMEOUT, metrics=self.metrics))
            self.transport.faults = self.policy
        self.received = []
        for pid in range(N):
            if pid != UNREGISTERED:
                self.transport.register(pid, self.handler(pid))

    def handler(self, pid):
        return lambda src, payload: self.received.append(
            (self.simulator.now, pid, src, payload)
        )

    def observed(self):
        """Everything the schedule left behind, then what is still to
        fire (running the queue dry), then the streams' next draws."""
        transport = self.transport
        facts = {
            "pending": self.simulator.pending_events,
            "sent": transport.messages_sent,
            "lost before delivery": transport.messages_lost,
            "asked": self.policy.asked if self.policy else None,
        }
        self.simulator.run()
        facts.update(
            received=self.received,
            lost=transport.messages_lost,
            metrics=self.metrics.snapshot(),
        )
        if transport.stream_sampling_active:
            links = [(src, dst) for src in range(N) for dst in range(N) if src != dst]
            facts["next draws"] = transport.next_stream_block(
                links, [5] * len(links)
            ).tolist()
        else:
            facts["next draws"] = [self.model.sample_latency(0, 1, 0.0) for _ in range(5)]
        return facts


SCHEDULE = st.lists(
    st.tuples(
        st.floats(0.0, 0.7),  # time to let pass first: crosses plan rounds
        st.integers(0, N - 1),  # src
        st.lists(st.integers(0, N - 1), max_size=N + 2),  # may repeat, hold src
    ),
    min_size=1,
    max_size=12,
)


def run_twins(schedule, seed, streams, faulted):
    """Feed one schedule to twin transports — whole broadcasts to one,
    message by message to the other — and return what each observed.
    A payload names its broadcast and the instant it was sent."""
    whole = Twin(seed, streams, faulted)
    piecewise = Twin(seed, streams, faulted)
    for index, (wait, src, destinations) in enumerate(schedule):
        for twin in (whole, piecewise):
            twin.simulator.run(until=twin.simulator.now + wait)
        payload = ("payload", index, whole.simulator.now)
        whole.transport.broadcast(src, destinations, payload)
        for dst in destinations:
            piecewise.transport.send(src, dst, payload)
    return whole.observed(), piecewise.observed()


def assert_indistinguishable(a, b):
    assert a.keys() == b.keys()
    for facet in a:
        assert a[facet] == b[facet], facet


@given(
    schedule=SCHEDULE,
    seed=st.integers(0, 2**31 - 1),
    streams=st.booleans(),
    faulted=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_broadcast_equals_a_loop_of_sends(schedule, seed, streams, faulted):
    a, b = run_twins(schedule, seed, streams, faulted)
    assert_indistinguishable(a, b)
    assert a["sent"] == sum(len(destinations) for _, _, destinations in schedule)
    if faulted:
        # One ``drop`` per message that crosses the wire, in destination order.
        assert [q[1:3] for q in a["asked"] if q[0] == "drop"] == [
            (src, dst)
            for _, src, destinations in schedule
            for dst in destinations
            if dst != src
        ]


def test_the_property_reaches_every_fate_of_a_message():
    """One fixed schedule through the same twins, checked to contain a
    self-addressed message, an unregistered destination, a burst drop, a
    partition drop, a stretched latency and a stream refill in the
    middle of a broadcast — the property above, where Hypothesis's short
    schedules cannot reach, and not vacuous on any of these."""
    everyone = list(range(N))
    schedule = [(0.05, src, everyone) for src in range(N)] * 6
    schedule += [(0.0, 0, [1, 0, 2, UNREGISTERED])] * 300
    a, b = run_twins(schedule, seed=3, streams=True, faulted=True)
    assert_indistinguishable(a, b)
    counters = a["metrics"]["counters"]
    assert counters["transport.dropped{cause=loss-burst}"] > 0
    assert counters["transport.dropped{cause=partition}"] > 0
    assert counters["transport.dropped{cause=unregistered}"] > 0
    # A self-addressed message arrives the instant it is sent.
    assert any(
        pid == src and now == payload[2]
        for now, pid, src, payload in a["received"]
    )
    policy = PlanLinkFaults(PLAN, TIMEOUT)
    assert {
        policy.latency_factor(src, dst, now)
        for kind, src, dst, now in a["asked"]
        if kind == "factor"
    } == {1.0, 2.5}
    # Every message on the wire is asked about once: link 0 → 1 carried
    # more than a column's worth, so its stream was refilled.
    assert sum(q[:3] == ("drop", 0, 1) for q in a["asked"]) > 256
