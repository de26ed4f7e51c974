"""Unit tests for the named random streams."""

from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(1)
        assert streams.stream("latency") is streams.stream("latency")

    def test_streams_are_reproducible_across_instances(self):
        a = RandomStreams(42).stream("loss").random(5)
        b = RandomStreams(42).stream("loss").random(5)
        assert (a == b).all()

    def test_different_names_are_independent(self):
        streams = RandomStreams(42)
        a = streams.stream("a").random(5)
        b = streams.stream("b").random(5)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random(5)
        b = RandomStreams(2).stream("x").random(5)
        assert not (a == b).all()

    def test_creation_order_does_not_matter(self):
        forward = RandomStreams(7)
        first = forward.stream("one").random(3)
        forward.stream("two")
        backward = RandomStreams(7)
        backward.stream("two")
        second = backward.stream("one").random(3)
        assert (first == second).all()

    def test_spawn_derives_independent_child(self):
        parent = RandomStreams(5)
        child = parent.spawn("run-0")
        assert child.seed != parent.seed
        # Child streams reproducible from the same spawn path.
        again = RandomStreams(5).spawn("run-0")
        assert (child.stream("x").random(4) == again.stream("x").random(4)).all()

