"""Unit tests for the message transport."""

import tracemalloc

import numpy as np
import pytest

from repro.net.base import LatencyModel
from repro.net.hetero import uniform_wan_profile
from repro.net.iid import BernoulliLinkModel
from repro.net.planetlab import planetlab_profile
from repro.obs.registry import MetricsRegistry
from repro.sim.events import Simulator
from repro.sim.transport import STREAM_CHUNK, Transport
from tests.conftest import FixedLatency


class Arrivals:
    """A receive handler noting when each message arrived, under its
    payload (a send index).  Messages are sent at t = 0, so a message's
    arrival instant is its latency, bit for bit; a lost message is one
    that never arrives (``None``)."""

    def __init__(self, sim):
        self.sim = sim
        self.at = {}

    def __call__(self, src, payload):
        self.at[payload] = self.sim.now

    def latencies(self, indices):
        return [self.at.get(index) for index in indices]


class TestTransport:
    def test_delivers_after_latency(self):
        sim = Simulator()
        transport = Transport(sim, FixedLatency(0.25))
        received = []
        transport.register(1, lambda src, payload: received.append((sim.now, src, payload)))
        sim.schedule(1.0, lambda: transport.send(0, 1, "hello"))
        sim.run()
        assert received == [(1.25, 0, "hello")]

    def test_lost_messages_never_arrive(self):
        sim = Simulator()
        transport = Transport(sim, FixedLatency(None))
        received = []
        transport.register(1, lambda src, payload: received.append(payload))
        transport.send(0, 1, "x")
        sim.run()
        assert received == []
        assert transport.messages_lost == 1

    def test_self_send_is_immediate_and_reliable(self):
        sim = Simulator()
        model = FixedLatency(None)  # even a fully lossy network
        transport = Transport(sim, model)
        received = []
        transport.register(0, lambda src, payload: received.append((sim.now, payload)))
        transport.send(0, 0, "self")
        sim.run()
        assert received == [(0.0, "self")]
        # The link model is never consulted for self-sends.
        assert model.asked == []

    def test_broadcast_sends_to_each_destination(self):
        sim = Simulator()
        transport = Transport(sim, FixedLatency(0.1))
        received = {1: [], 2: []}
        transport.register(1, lambda src, payload: received[1].append(payload))
        transport.register(2, lambda src, payload: received[2].append(payload))
        transport.broadcast(0, [1, 2], "b")
        sim.run()
        assert received == {1: ["b"], 2: ["b"]}
        assert transport.messages_sent == 2

    def test_unregistered_destination_counts_as_lost(self):
        sim = Simulator()
        metrics = MetricsRegistry()
        transport = Transport(sim, FixedLatency(0.1), metrics=metrics)
        transport.send(0, 9, "void")
        sim.run()  # must not raise
        assert transport.messages_lost == 1
        assert metrics.value("transport.dropped", cause="unregistered") == 1
        assert metrics.value("transport.delivered") == 0

    def test_late_registration_before_delivery_still_receives(self):
        sim = Simulator()
        transport = Transport(sim, FixedLatency(0.5))
        received = []
        transport.send(0, 1, "early")
        # The destination registers after the send but before delivery
        # fires: the message must arrive and not be counted lost.
        sim.schedule(0.1, lambda: transport.register(
            1, lambda src, payload: received.append(payload)
        ))
        sim.run()
        assert received == ["early"]
        assert transport.messages_lost == 0

    def test_double_registration_rejected(self):
        sim = Simulator()
        transport = Transport(sim, FixedLatency(0.1))
        transport.register(0, lambda s, p: None)
        with pytest.raises(ValueError):
            transport.register(0, lambda s, p: None)

    def test_trace_records_deliveries_and_losses(self):
        sim = Simulator()
        toggling = FixedLatency(0.5)
        transport = Transport(sim, toggling)
        arrivals = Arrivals(sim)
        transport.register(1, arrivals)
        transport.send(0, 1, 0)
        toggling.latency = None
        transport.send(0, 1, 1)
        sim.run()
        assert arrivals.latencies(range(2)) == [0.5, None]
        assert (transport.messages_sent, transport.messages_lost) == (2, 1)


class TestBatchStreams:
    """Pre-sampled per-link latency streams (batch-capable link models)."""

    @staticmethod
    def model(seed=11):
        return BernoulliLinkModel(4, p=0.7, timeout=0.1, seed=seed)

    def test_stream_latencies_come_from_the_link_substream(self):
        sim = Simulator()
        transport = Transport(sim, self.model())
        arrivals = Arrivals(sim)
        transport.register(1, arrivals)
        for index in range(20):
            transport.send(0, 1, index)
        sim.run()
        # A link's stream is its column of a trace: the transport draws
        # whole STREAM_CHUNK-round columns, a 20-round trace their head.
        reference = self.model().sample_trace_batch(20, 0.1)[:, 1, 0]
        observed = arrivals.latencies(range(20))
        expected = [None if np.isinf(v) else float(v) for v in reference]
        assert observed == expected  # bit-identical: same stream

    def test_bulk_draw_then_pops_equal_pops_alone(self):
        # The batched engine takes a link's latencies in bulk where the
        # event loop pops them one by one; a stream must not be able to
        # tell — across the STREAM_CHUNK refill boundary included.  A
        # per-message pop is a send, read back as its latency once the
        # simulator has delivered it (every send is at t = 0).
        total = STREAM_CHUNK + 40

        def link():
            sim = Simulator()
            transport = Transport(sim, self.model())
            arrivals = Arrivals(sim)
            transport.register(1, arrivals)
            return sim, transport, arrivals

        def pops(sim, transport, arrivals, count):
            for index in range(count):
                transport.send(0, 1, index)
            sim.run()
            return [
                np.inf if latency is None else latency
                for latency in arrivals.latencies(range(count))
            ]

        def bulk(transport, count):
            (row,) = transport.next_stream_block([(0, 1)], [count])
            assert row.shape == (count,)
            return row.tolist()

        popped = link()
        alone = pops(*popped, total)
        after = bulk(popped[1], STREAM_CHUNK)
        for count in (0, 7, STREAM_CHUNK - 1, STREAM_CHUNK, STREAM_CHUNK + 5):
            mixed = link()
            head = bulk(mixed[1], count)
            assert head + pops(*mixed, total - count) == alone, count
            # Same cursor: the next bulk draw is equal too.
            assert bulk(mixed[1], STREAM_CHUNK) == after
        # A crashed source sends nothing: drawing nothing opens no stream.
        untouched = Transport(Simulator(), self.model())
        assert untouched.next_stream_block([(0, 1), (2, 3)], [0, 0]).shape == (2, 0)
        assert untouched.next_stream_block([], []).shape == (0, 0)
        assert not untouched.streams_started

    def test_an_idle_link_pins_no_column_drawn_after_it(self):
        # A column is drawn for the whole table, but kept only while an
        # opened link has it left to read: a sender that stopped after
        # one message (a crash) must not hold every later column alive.
        transport = Transport(Simulator(), uniform_wan_profile(n=8, seed=3))
        transport.register(1, lambda s, p: None)
        transport.send(0, 1, "m")

        def read_columns(count):
            for _ in range(count):
                transport.next_stream_block([(2, 3)], [STREAM_CHUNK])

        # Trace from before the warm-up, so the column held at the baseline
        # is traced too and its release is counted against its successor.
        tracemalloc.start()
        try:
            read_columns(4)
            before = tracemalloc.get_traced_memory()[0]
            read_columns(32)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        column_bytes = STREAM_CHUNK * 8 * 7 * 8
        assert retained < column_bytes

    def test_a_block_pads_short_rows_and_takes_each_link_once(self):
        transport = Transport(Simulator(), self.model())
        block = transport.next_stream_block([(0, 1), (2, 3), (1, 0)], [3, 0, 5])
        assert block.shape == (3, 5)
        assert np.isinf(block[0, 3:]).all() and np.isinf(block[1]).all()
        lone = Transport(Simulator(), self.model())
        assert block[2].tolist() == lone.next_stream_block([(1, 0)], [5])[0].tolist()
        with pytest.raises(ValueError, match="once"):
            transport.next_stream_block([(0, 1), (0, 1)], [1, 1])

    @pytest.mark.parametrize("why", ["time-varying", "streams-off"])
    def test_a_transport_without_streams_has_no_block_to_give(self, why):
        # It used to draw a chunk "sent at" 256 zeros — slow windows and
        # all — and hand it over as if it were the link's stream.
        model = time_varying_model() if why == "time-varying" else self.model()
        transport = Transport(
            Simulator(), model, batch_streams=why != "streams-off"
        )
        assert not transport.stream_sampling_active
        with pytest.raises(ValueError, match=type(model).__name__):
            transport.next_stream_block([(0, 1)], [4])
        assert not transport.streams_started

    def test_link_sequence_independent_of_interleaving(self):
        # The whole point of per-link substreams: what 2->3 traffic does
        # must not perturb the 0->1 latency sequence.
        def run(interleave):
            sim = Simulator()
            transport = Transport(sim, self.model())
            arrivals = Arrivals(sim)
            transport.register(1, arrivals)
            transport.register(3, lambda s, p: None)
            for index in range(10):
                transport.send(0, 1, index)
                if interleave:
                    transport.send(2, 3, "noise")
            sim.run()
            return arrivals.latencies(range(10))

        assert run(interleave=False) == run(interleave=True)

    def test_batch_streams_opt_out_uses_scalar_path(self):
        sim = Simulator()
        model = self.model()
        asked = []
        original = model.sample_latency
        model.sample_latency = lambda src, dst, now: (
            asked.append((src, dst)) or original(src, dst, now)
        )
        transport = Transport(sim, model, batch_streams=False)
        transport.register(1, lambda s, p: None)
        transport.send(0, 1, "m")
        sim.run()
        assert asked == [(0, 1)]

    def test_time_varying_models_never_stream(self):
        # Slow windows make latency depend on the send time, which a
        # pre-sampled stream cannot know; such models must stay scalar.
        from repro.net.lan import LanProfile

        assert not Transport(Simulator(), LanProfile(seed=0)).stream_sampling_active
        assert Transport(Simulator(), self.model()).stream_sampling_active


class SecondMessagePolicy:
    """A fault policy that touches only the second message it is asked
    about: drops it (naming ``cause`` if given) or stretches it."""

    def __init__(self, drop=False, factor=1.0, cause=None):
        self._drop, self._factor, self._cause = drop, factor, cause
        self._asked = 0
        self._second = False
        if cause is not None:
            self.last_drop_cause = None

    def drop(self, src, dst, now):
        self._asked += 1
        self._second = self._asked == 2
        dropped = self._drop and self._second
        if self._cause is not None:
            self.last_drop_cause = self._cause if dropped else None
        return dropped

    def latency_factor(self, src, dst, now):
        return self._factor if self._second else 1.0


def streamable_model():
    return BernoulliLinkModel(4, p=0.7, timeout=0.1, seed=11)


def streamable_draws():
    return streamable_model().sample_trace_batch(3, 0.1)[:, 1, 0].tolist()


def time_varying_model():
    # A slow-run PlanetLab profile has time-dependent windows: it can
    # never be pre-sampled, so the transport samples it per message.
    return planetlab_profile(seed=3, slow_run_prob=1.0)


def time_varying_draws():
    model = time_varying_model()
    return [float(model.sample_latency(0, 1, 0.0)) for _ in range(3)]


class ScriptedStream(LatencyModel):
    """A batch-capable, time-invariant model whose every draw on link
    0 → 1 is one scripted value — a streamed link with a known next
    latency — and 1 s on the other link."""

    is_time_invariant = True

    def __init__(self, value):
        super().__init__(n=2)
        self.value = value

    def sample_latency(self, src, dst, now):
        raise AssertionError("a streamed link draws whole chunks")

    def sample_lanes(self, start, stop, round_length):
        lanes = np.ones((stop - start, 2))
        lanes[:, self.lane(0, 1)] = self.value
        return lanes


class Stretch:
    """A fault policy that drops nothing and stretches every message."""

    def __init__(self, factor):
        self.factor = factor

    def drop(self, src, dst, now):
        return False

    def latency_factor(self, src, dst, now):
        return self.factor


class TestFaultSite:
    """``Transport.faults`` is the one place a fault touches a message,
    for both latency sources, and each source keeps its draw discipline:
    a streamed link spends one base draw per message even when the
    policy drops it; a scalar-sampled link decides the drop first and a
    dropped message draws nothing.  Three messages go down one link and
    the policy touches only the second, so the third message's latency
    shows how many base draws the first two consumed."""

    MODELS = {
        "streamable": (streamable_model, streamable_draws, True),
        "time-varying": (time_varying_model, time_varying_draws, False),
    }

    # policy name -> (policy factory, expected drop cause, the three
    # latencies as a function of the link's base draws ``d`` on a
    # streamed link, the same on a scalar-sampled link).  None = lost.
    POLICIES = {
        "pass": (
            lambda: None, None,
            lambda d: [d[0], d[1], d[2]], lambda d: [d[0], d[1], d[2]],
        ),
        "inert policy": (
            SecondMessagePolicy, None,
            lambda d: [d[0], d[1], d[2]], lambda d: [d[0], d[1], d[2]],
        ),
        "drop": (
            lambda: SecondMessagePolicy(drop=True, cause="partition"),
            "partition",
            lambda d: [d[0], None, d[2]], lambda d: [d[0], None, d[1]],
        ),
        "drop, cause unpublished": (
            lambda: SecondMessagePolicy(drop=True), "fault",
            lambda d: [d[0], None, d[2]], lambda d: [d[0], None, d[1]],
        ),
        "stretch": (
            lambda: SecondMessagePolicy(factor=2.5), None,
            lambda d: [d[0], d[1] * 2.5, d[2]],
            lambda d: [d[0], d[1] * 2.5, d[2]],
        ),
    }

    @pytest.mark.parametrize("policy_name", list(POLICIES))
    @pytest.mark.parametrize("model_name", list(MODELS))
    def test_fault_site(self, model_name, policy_name):
        model_factory, draws_factory, streams = self.MODELS[model_name]
        policy_factory, cause, streamed, scalar = self.POLICIES[policy_name]
        draws = draws_factory()
        assert all(np.isfinite(draws))  # no natural loss in the script
        metrics = MetricsRegistry()
        sim = Simulator()
        transport = Transport(sim, model_factory(), metrics=metrics)
        assert transport.stream_sampling_active == streams
        transport.faults = policy_factory()
        arrivals = Arrivals(sim)
        transport.register(1, arrivals)
        for index in range(3):
            transport.send(0, 1, index)
        sim.run()

        expected = (streamed if streams else scalar)(draws)
        assert arrivals.latencies(range(3)) == expected
        lost = expected.count(None)
        assert transport.messages_lost == lost
        dropped = {
            key: value
            for key, value in metrics.snapshot()["counters"].items()
            if key.startswith("transport.dropped")
        }
        assert dropped == (
            {f"transport.dropped{{cause={cause}}}": lost} if lost else {}
        )

    SOURCES = {
        "scalar": lambda value: FixedLatency(value),
        "streamed": lambda value: ScriptedStream(value),
    }

    @pytest.mark.parametrize("stretched", [False, True], ids=["plain", "stretched"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5, -0.0])
    @pytest.mark.parametrize("source", list(SOURCES))
    def test_sampled_latency_boundary(self, source, value, stretched):
        """What a link model may hand :meth:`Transport.send`, on either
        source, stretched by a fault policy or not: ``+inf`` is a message
        the link lost, zero (of either sign) is a delay, and NaN or a
        negative number is the model's bug, reported as one."""
        metrics = MetricsRegistry()
        sim = Simulator()
        model = self.SOURCES[source](value)
        transport = Transport(sim, model, metrics=metrics)
        assert transport.stream_sampling_active == (source == "streamed")
        if stretched:
            transport.faults = Stretch(3.0)
        received = []
        transport.register(1, lambda src, payload: received.append(sim.now))

        if value != value or value < 0:
            with pytest.raises(ValueError) as raised:
                transport.send(0, 1, "m")
            assert "0 → 1" in str(raised.value)
            assert type(model).__name__ in str(raised.value)
            assert sim.pending_events == 0
            return
        transport.send(0, 1, "m")
        sim.run(until=10)
        lost = value == float("inf")
        assert sim.pending_events == 0
        assert received == ([] if lost else [0.0])
        assert (transport.messages_sent, transport.messages_lost) == (1, int(lost))
        assert metrics.value("transport.dropped", cause="link") == (
            1 if lost else None
        )
        # A lost message's latency never reaches the histogram, whose
        # total and mean one ``inf`` would poison.
        latencies = metrics.snapshot()["histograms"]["transport.latency_seconds"]
        assert latencies.get("total", 0.0) == 0.0
        assert latencies["count"] == int(not lost)

    @staticmethod
    def planted_profile(value, link):
        """A clean PlanetLab profile whose column sampler — the entry the
        transport refills through — writes ``value`` as the sixth draw
        of ``link``."""
        profile = planetlab_profile(seed=3, slow_run_prob=0.0)
        draw = profile.sample_lanes

        def planted(start, stop, round_length):
            lanes = draw(start, stop, round_length)
            if start <= 5 < stop:
                lanes[5 - start, profile.lane(*link)] = value
            return lanes

        profile.sample_lanes = planted
        return profile

    @pytest.mark.parametrize("mode", ["scalar", "batch"])
    @pytest.mark.parametrize("value", [float("nan"), -0.5])
    def test_bad_stream_draw_is_refused_by_both_engines(self, value, mode):
        """A stream's draws are checked where the block is drawn, so the
        engine that takes them in bulk refuses what the event loop
        refuses, in the same words.  (The batched engine used to return
        a result, silently, for a chunk the scalar loop raised on.)"""
        from repro.giraf.oracle import NullOracle
        from repro.sync import HeartbeatAlgorithm, SyncRun

        profile = self.planted_profile(value, (1, 2))
        run = SyncRun(
            8,
            lambda pid: HeartbeatAlgorithm(pid, 8),
            NullOracle(),
            lambda sim: Transport(sim, profile),
            timeout=0.21,
            latency_table=np.zeros((8, 8)),
            max_rounds=20,
        )
        with pytest.raises(ValueError) as raised:
            # "batch" names the engine expected of the default ``auto``.
            run.run(mode="scalar" if mode == "scalar" else "auto")
        assert run.executed_mode == mode
        assert "1 → 2" in str(raised.value)
        assert "PlanetLabProfile" in str(raised.value)
        assert repr(value) in str(raised.value)

    def test_a_bad_draw_in_a_block_is_reported_by_its_own_link(self):
        # One check over the whole column must still name the draw's
        # link, not the first link of the block or of the call.
        links = [(src, dst) for src in range(8) for dst in range(8) if src != dst]
        transport = Transport(Simulator(), self.planted_profile(-0.5, (5, 2)))
        with pytest.raises(ValueError) as raised:
            transport.next_stream_block(links, [20] * len(links))
        assert "link 5 → 2:" in str(raised.value)
        assert "-0.5" in str(raised.value)

    def test_policy_assignment_leaves_the_streams_alone(self):
        # Assigning (or clearing) the policy mid-run must not reset the
        # link's position in its substream — unlike swapping the model.
        draws = streamable_draws()
        sim = Simulator()
        transport = Transport(sim, streamable_model())
        arrivals = Arrivals(sim)
        transport.register(1, arrivals)
        transport.send(0, 1, 0)
        transport.faults = SecondMessagePolicy()
        transport.send(0, 1, 1)
        transport.faults = None
        transport.send(0, 1, 2)
        sim.run()
        assert arrivals.latencies(range(3)) == draws
