"""Unit tests for the named random streams."""

import numpy as np

from repro.sim.rng import RandomStreams, derive_seed, derive_seed_heads


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


class TestDeriveSeedHeads:
    def test_heads_are_derive_seed_of_each_name(self):
        suffixes = [0, 1, 9, 10, 255, 10**12]
        heads = derive_seed_heads(2**40 + 3, "faults:x:1:2:", suffixes)
        assert len(heads) == 8 * len(suffixes)
        assert np.frombuffer(heads, ">u8").tolist() == [
            derive_seed(2**40 + 3, f"faults:x:1:2:{s}") for s in suffixes
        ]
        assert int.from_bytes(heads[:8], "big") == derive_seed(
            2**40 + 3, "faults:x:1:2:0"
        )
        assert derive_seed_heads(1, "stem:", range(0)) == b""
