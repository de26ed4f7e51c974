"""Golden digests of the batch sampler's bytes.

Every digest below was taken at the commit before the sampler was
restated as "draws per link, arithmetic per trace" (DESIGN.md, "Batch
trace generation") and pins what ``TRACE_SAMPLER_VERSION = "batch1"``
means: the trace cache keys on that tag, so a cached record is only a
valid hit while the sampler still produces these bytes.  **A digest may
move only together with a version bump** — a change that moves one
without bumping the tag silently serves stale traces.

The grid covers each rider of the batch path: the two paper profiles
through the measurement entry points (one WAN seed whose decider picks a
slow-Poland run, one clean), the uniform WAN, the Granular wrapper over
it, the IID model (which rides ``LatencyModel``'s generic per-link
loop), and a hand-built network whose slow nodes meet on shared links —
a queue-mode node plus two scale-mode nodes with ``per_message_prob``
below 1, so the per-link draw order (normal vector, uniform block,
Pareto excess, slow-window uniforms ``dst`` then ``src``) and the
operand order of the slow factors are both load-bearing.  The single
link digests pin ``sample_link_batch`` — the expected-rank queue charge
lands between the two slow factors — and the transport's 256-draw
stream chunks, read out of a block refill of the whole table.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.measurement import (
    TRACE_SAMPLER_VERSION,
    sample_lan_trace,
    sample_wan_trace,
)
from repro.net import (
    BernoulliLinkModel,
    granular_wan_profile,
    planetlab_profile,
    uniform_wan_profile,
)
from repro.net.hetero import HeterogeneousNetwork, SlowWindows
from repro.net.planetlab import PlanetLabProfile
from repro.sim import Simulator, Transport
from repro.sim.transport import STREAM_CHUNK

#: PlanetLab seeds whose run decider does / does not draw a slow Poland.
SLOW_WAN_SEED = 3
CLEAN_WAN_SEED = 2


def crowded_network(seed=17):
    """Queue-mode node 2; scale-mode nodes 1 ("both", p 0.5) and 4
    ("out", p 0.7).  Links 4→1 and 1→4 carry both scale nodes, links
    1→2 and 4→2 a scale sender into the queue node."""
    n = 5
    grid = np.add.outer(np.arange(n), 2.0 * np.arange(n))
    base = 0.010 + 0.003 * grid
    np.fill_diagonal(base, 0.0)
    return HeterogeneousNetwork(
        base=base,
        sigma=0.1 + 0.02 * (grid % 4),
        tail_prob=0.03 + 0.01 * (grid % 3),
        tail_shape=1.15,
        loss_prob=np.full((n, n), 0.01),
        slow_nodes={
            2: SlowWindows(
                period=0.5, duty=0.6, phase=0.1, mode="queue", queue_unit=0.004
            ),
            1: SlowWindows(
                factor=3.0, period=0.7, duty=0.5, per_message_prob=0.5,
                direction="both",
            ),
            4: SlowWindows(
                factor=1.7, period=0.9, duty=0.8, phase=0.3,
                per_message_prob=0.7, direction="out",
            ),
        },
        seed=seed,
    )


TRACES = {
    "wan-slow": lambda rounds: sample_wan_trace(rounds, 0.21, SLOW_WAN_SEED),
    "wan-clean": lambda rounds: sample_wan_trace(rounds, 0.21, CLEAN_WAN_SEED),
    "lan": lambda rounds: sample_lan_trace(rounds, 0.0005, 7),
    "uniform": lambda rounds: uniform_wan_profile(
        n=6, seed=23
    ).sample_trace_batch(rounds, 0.05),
    "granular": lambda rounds: granular_wan_profile(
        n=8, seed=29
    ).sample_trace_batch(rounds, 0.05),
    "bernoulli": lambda rounds: BernoulliLinkModel(
        5, p=0.8, timeout=0.1, seed=31, loss_prob=0.05
    ).sample_trace_batch(rounds, 0.1),
    "crowded": lambda rounds: crowded_network().sample_trace_batch(rounds, 0.05),
}

TRACE_DIGESTS = {
    ("wan-slow", 1): "d10fb3ef998c2f22ad88c02dd7769c7467dc2aaf09730342355558dda4ba8290",
    ("wan-slow", 37): "3c270ef83d5df207082346a753abf49981fa031b4d549dc1fc4959cf5577b458",
    ("wan-slow", 300): "286e2bc92ce371fe33a83d462a17924b912b4a394a209b00cebedaf225620c0e",
    ("wan-clean", 300): "86c1b0b3ebecb5bd8cd52e21c35dc44072c8303b89e2548669b2eaa6fbe65182",
    ("lan", 1): "79d901fecdbd16eddc5824f0ca338e80403ae23957437bb7f302c694590ae814",
    ("lan", 37): "ba98f80cef5998bf1f4efd94a651ae5855aa54fa6e3a9dc30d1206f59c8dfee9",
    ("lan", 100): "64a7cfac81cce36918365d69571dbb1f850fb14c5da8b61924a8939accb69b74",
    ("uniform", 1): "14ca3782aec4a664e67b3ea41db4ba240148e872d3491ad5581ac7422db7f1ed",
    ("uniform", 37): "fa30b85ddc9bbc3f5d290a5e9244cf929c84c69b3cd8e652b239ed3f10484d29",
    ("uniform", 300): "c5375486b1d5508650695734ae848a9a37b4becf510fadc662dbd1fa9f15f1c0",
    ("granular", 37): "114a824988281d7a49c5953375452405c7f225f9f1d4517513f8067a32e8f98c",
    ("bernoulli", 1): "03a8dc0c620f41beb30bf718b4decf092256257e4a1629e2e2b2035b86c79197",
    ("bernoulli", 37): "7402f9364bd123e5ef20bb39ba196fcf4e04e3e447e782b805d43e9b59c1893a",
    ("bernoulli", 300): "dd4925dbd0755c98256f383467b9296323d5e8b4c870584bb37b243eabf73c9e",
    ("crowded", 1): "10d8f61db671e6f0ebabdb7ce9d0fedd99e1b92b0f5c464a8e9f3e4adccdca3e",
    ("crowded", 37): "ef5a46521b741c5b105c0e5903d65b1e6da600c58ab11baf305dc0be7554e8f7",
    ("crowded", 300): "13152281e7f271edb33124eaeb5be89177003e789de5a0d1e9c7eb4d72d1beb5",
}

#: ``crowded_network().sample_link_batch(src, dst, 300 send times)`` on
#: the link's own substream.
LINK_DIGESTS = {
    (4, 1): "17d3600beb1156a82f32be70a95b52a1620ae22dd791e1942c4bfd1446730ba2",
    (1, 4): "98c08fec6886862aed81ca995d676f809b285ade0d21932730f87b68bed80f78",
    (1, 2): "ab4d017c4bbef836375d9d16f8f1a7f7341b608078592a6af278e07db741eee3",
    (4, 2): "9b392e7301242941ebb7efb1d841157e8d617efe1ec6f1a196c801370f40f507",
    (0, 2): "1998d56caab4b9c090f7d4048049d3c7039af05d66e1ec6805959d8e5a3595e1",
    (3, 0): "65cf045cde7edf5c56cabb16b48f7e4204563fa19ee9c3284e6955867c9378df",
}

#: Three consecutive ``STREAM_CHUNK`` draws of the transport's stream on
#: ``planetlab_profile(seed=9, slow_run_prob=0.0)``.
CHUNK_DIGESTS = {
    (0, 1): [
        "41169df6cdc29ef309b7a11f998193698759dd4fb940fe87ae3bcf6dace146bf",
        "c66a19812a3650c75f7040469c9cf9668ec7f11e46c747656ae61b67fb7478ae",
        "9bf5fd114605dc34bc075533e4094e984507405dc712bd1dc607da5e2f0d9e5c",
    ],
    (4, 6): [
        "55c4cf789726043e5fe21b6fb75c721baba3a3500a25f525cff23c0c8d5b719c",
        "e1d515232c598e8ff674b409f882d15705de5c879f15204662e35dbbbf482d77",
        "e3a6e32678425352afa087ff1e514ed6d298614dc87ea5347d52d1ade288a0fb",
    ],
}


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def test_the_digests_are_those_of_sampler_version_batch1():
    assert TRACE_SAMPLER_VERSION == "batch1"


def test_wan_seeds_cover_a_slow_and_a_clean_run():
    assert PlanetLabProfile(seed=SLOW_WAN_SEED).slow_run
    assert not PlanetLabProfile(seed=CLEAN_WAN_SEED).slow_run


@pytest.mark.parametrize(
    "name,rounds", sorted(TRACE_DIGESTS), ids=lambda value: str(value)
)
def test_trace_bytes(name, rounds):
    assert digest(TRACES[name](rounds)) == TRACE_DIGESTS[name, rounds]


@pytest.mark.parametrize("src,dst", sorted(LINK_DIGESTS))
def test_single_link_bytes(src, dst):
    times = np.arange(300) * 0.05
    column = crowded_network().sample_link_batch(src, dst, times)
    assert digest(column) == LINK_DIGESTS[src, dst]


@pytest.mark.parametrize("src,dst", sorted(CHUNK_DIGESTS))
def test_transport_stream_chunks(src, dst):
    # Taken with every other link of the table, in one block: a link's
    # bytes do not depend on what refills beside it.
    transport = Transport(
        Simulator(), planetlab_profile(seed=9, slow_run_prob=0.0)
    )
    links = [(s, d) for s in range(8) for d in range(8) if s != d]
    block = transport.next_stream_block(links, [3 * STREAM_CHUNK] * len(links))
    chunks = np.split(block[links.index((src, dst))], 3)
    assert [digest(chunk) for chunk in chunks] == CHUNK_DIGESTS[src, dst]
