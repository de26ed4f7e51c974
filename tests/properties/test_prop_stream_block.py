"""``next_stream_block`` and ``send`` ≡ each link's column of a trace.

A link's transport stream is its lane through the model's 256-round
columns: the transport draws the next column of the whole table when any
link runs dry and keeps a cursor per link.  So for every time-invariant
model that streams (``HeterogeneousNetwork``, the Granular wrapper that
clamps its base's columns, the IID model), any mix of block reads —
counts of zero, under a column, exact multiples, uneven across links —
and per-message ``send`` pops reads each link's stream as
``trace[:, dst, src]`` of one long trace of a model of its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    BernoulliLinkModel,
    granular_wan_profile,
    planetlab_profile,
    uniform_wan_profile,
)
from repro.sim import Simulator, Transport
from repro.sim.transport import STREAM_CHUNK

N = 8
MODELS = {
    "planetlab": lambda seed: planetlab_profile(seed=seed, slow_run_prob=0.0),
    "uniform": lambda seed: uniform_wan_profile(n=N, seed=seed),
    "granular": lambda seed: granular_wan_profile(n=N, seed=seed),
    "bernoulli": lambda seed: BernoulliLinkModel(
        N, p=0.8, timeout=0.1, seed=seed, loss_prob=0.05
    ),
}


class ReferenceStreams:
    """Every link's stream, read off one trace long enough for it."""

    def __init__(self, model):
        self.model = model
        self.trace = model.sample_trace_batch(0, 0.1)
        self.read = {}

    def take(self, link, count):
        start = self.read.get(link, 0)
        self.read[link] = stop = start + count
        if stop > len(self.trace):
            self.trace = self.model.sample_trace_batch(2 * stop, 0.1)
        src, dst = link
        return self.trace[start:stop, dst, src]


LINKS = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)).filter(
    lambda link: link[0] != link[1]
)
COUNTS = st.one_of(
    st.sampled_from(
        [0, 1, STREAM_CHUNK - 1, STREAM_CHUNK, STREAM_CHUNK + 1, 2 * STREAM_CHUNK]
    ),
    st.integers(0, 3 * STREAM_CHUNK),
)
BLOCK = st.tuples(
    st.just("block"),
    st.lists(st.tuples(LINKS, COUNTS), unique_by=lambda row: row[0], max_size=12),
)
SENDS = st.tuples(st.just("sends"), st.tuples(LINKS, st.integers(1, 300)))
STEPS = st.lists(st.one_of(BLOCK, SENDS), min_size=1, max_size=5)


def assert_steps_read_the_reference(name, seed, steps):
    """Block reads are checked as they are made; a send's payload is its
    index, and its latency is read off its arrival instant once the
    simulator has delivered everything (every send is at t = 0, so the
    instant is the latency bit for bit; a lost message never arrives)."""
    simulator = Simulator()
    transport = Transport(simulator, MODELS[name](seed))
    arrived = {}
    for pid in range(N):
        transport.register(
            pid, lambda src, index: arrived.__setitem__(index, simulator.now)
        )
    reference = ReferenceStreams(MODELS[name](seed))
    sends = []  # (link, the send indices, what the reference says)
    for kind, step in steps:
        if kind == "block":
            links = [link for link, _ in step]
            counts = [count for _, count in step]
            block = transport.next_stream_block(links, counts)
            assert block.shape == (len(links), max(counts, default=0))
            for row, link, count in zip(block, links, counts):
                expected = reference.take(link, count)
                assert row[:count].tobytes() == expected.tobytes(), link
                assert np.isinf(row[count:]).all()
        else:
            link, count = step
            first = transport.messages_sent
            for index in range(first, first + count):
                transport.send(*link, index)
            sends.append(
                (link, range(first, first + count), reference.take(link, count))
            )
    simulator.run()
    for link, indices, expected in sends:
        popped = [arrived.get(index, np.inf) for index in indices]
        assert popped == expected.tolist(), link


@pytest.mark.parametrize("name", sorted(MODELS))
@given(seed=st.integers(0, 2**31 - 1), steps=STEPS)
@settings(max_examples=40, deadline=None)
def test_blocks_and_pops_read_each_links_stream(name, seed, steps):
    assert_steps_read_the_reference(name, seed, steps)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_the_whole_table_with_a_crashed_sender_and_a_part_read_link(name):
    """The batched engine's shape, past what short Hypothesis lists
    reach: all 56 links at once after some traffic, a sender that stops
    early, exact multiples of the chunk, then a second block and pops."""
    links = [(src, dst) for src in range(N) for dst in range(N) if src != dst]
    counts = [
        {0: 3 * STREAM_CHUNK, 1: 40, 2: 0}.get(src, 2 * STREAM_CHUNK + 88)
        for src, _ in links
    ]
    assert_steps_read_the_reference(
        name,
        5,
        [
            ("sends", ((3, 4), 300)),
            ("sends", ((0, 1), STREAM_CHUNK)),
            ("block", list(zip(links, counts))),
            ("sends", ((1, 0), 250)),
            ("block", list(zip(links, counts[::-1]))),
            ("sends", ((3, 4), 10)),
        ],
    )
