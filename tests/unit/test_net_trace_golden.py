"""Golden digests of the batch sampler's bytes.

Every digest below was re-taken when the sampler's unit of drawing
became the 256-round column of the whole link table (DESIGN.md, "Batch
trace generation") — the bump to ``TRACE_SAMPLER_VERSION = "batch2"``,
which also retired every cached ``batch1`` trace.  They pin what
``batch2`` means: the trace cache keys on that tag, so a cached record is
only a valid hit while the sampler still produces these bytes.  **A
digest may move only together with a version bump** — a change that
moves one without bumping the tag silently serves stale traces.

The grid covers each rider of the batch path: the two paper profiles
through the measurement entry points (one WAN seed whose decider picks a
slow-Poland run, one clean), the uniform WAN, the Granular wrapper over
it, the IID model, and a hand-built network with a slow node in each
form: a queue-mode node plus two scale-mode nodes with windows of their
own.  The ``crowded`` digests were re-taken when a slow node became slow
to receive only: the per-message and send-side switches they pinned no
longer exist, so no cached trace could hold their bytes (the sampler
before that change gives the new network the same bytes).  Traces of
300 rounds span a full and a partial column.  The single-link digests
pin a link's lane of the second column drawn on its own, and the chunk
digests the transport's stream, read out of a block refill of the whole
table.  The scalar path's pins close the file.
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
    measure_latency_table,
    planetlab_profile,
    uniform_wan_profile,
)
from repro.net.hetero import HeterogeneousNetwork, SlowWindows
from repro.net.planetlab import CH, PL, SE, UK, PlanetLabProfile
from repro.sim import Simulator, Transport
from repro.sim.transport import STREAM_CHUNK

#: PlanetLab seeds whose run decider does / does not draw a slow Poland.
SLOW_WAN_SEED = 3
CLEAN_WAN_SEED = 2


def crowded_network(seed=17):
    """Queue-mode node 2; scale-mode nodes 1 and 4, each slow to receive
    in windows of its own.  Links 4→1 and 1→4 join the two scale nodes,
    links 1→2 and 4→2 a scale node to the queue node."""
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
            1: SlowWindows(factor=3.0, period=0.7, duty=0.5),
            4: SlowWindows(factor=1.7, period=0.9, duty=0.8, phase=0.3),
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
    ("wan-slow", 1): "34efa7eef39f6c5c299010a0c8ce26b2060a1426bd2517b0e814eb032f62be92",
    ("wan-slow", 37): "bbd40b3c235796eb2814469a04441ed6257c604852a71b336776ba1a61910581",
    ("wan-slow", 300): "0a918bf4b97564de43d431eb0a918a989021dd95a13a70cdb8252bc913381947",
    ("wan-clean", 300): "64ccafebf19cf6be564c9c81cf2dc36f1266e9d59b7bb818fdda83dcdeffcd16",
    ("lan", 1): "c0d54398ba2a5ac6657242eecebbf7def05809507c70c45de77a246d2be24480",
    ("lan", 37): "98cd8c5f16d6e0d84473e5d92aa46df8e0abcffb87b7d12c5e97851fffecf7ad",
    ("lan", 100): "3525e90fb7d699b2ebe95891474c717eed26ad6d8c8db0ed9b87b91f10763fae",
    ("uniform", 1): "d531b5f8e8c52f8f02321f33a2e345d8b4aed497325045dbf072d170ceb340ca",
    ("uniform", 37): "257d0502e73461ba5b29da8251d6cfbd6fd70d510bc62be434fbb157f7ad0d8f",
    ("uniform", 300): "92a0e59c970cba5bf7c632be3d52b93ba95575bc4a0c755a77bc258390729866",
    ("granular", 37): "ff8af256ca5c5124e9b4612013a73ec11b4be3b7d161fc27422916f787f7ef22",
    ("bernoulli", 1): "ee0308c50d8d1cfee27f18cedc0f5b7d635d15f552e7dd669707d98a5e00cbd1",
    ("bernoulli", 37): "94c3b3472c7c3f45928efee1412af1389f42a94c56afe868beabcabe7d573e43",
    ("bernoulli", 300): "f91f169fcae0b1409d19985c332540bdbc4411dd162aeda8beab499278c46ac4",
    ("crowded", 1): "1a2b71e39e338d944d9e1ccfcf4df9761aa03b24ac22f54d4aba005538bb444c",
    ("crowded", 37): "bb28a9a7eb9451a4272743663fa29703044cec81c48361af1ba8d3e59e1d5ecb",
    ("crowded", 300): "32716db068067e0fe9c579d7697353360215aa491484db63faad8dbd697e5098",
}

#: The lane of ``src → dst`` in ``crowded_network().sample_lanes(256,
#: 300, 0.05)``: the second column, drawn on its own.
LINK_DIGESTS = {
    (4, 1): "8383f1b74a72ee5e39ba18c97597944935d1634ee6e52535654c67ee18b110ef",
    (1, 4): "5ac773791286a1689e1fac007c9a1ebe45b7ec2333cbe270c44396eb1f7d9705",
    (1, 2): "a2b0998ab20356aa30f51b218d797dd523278ab1d7346707318ec998fc684373",
    (4, 2): "21096094ce3f4f7f885c188077c0b26ff1fa5a8254810ba86f58d2bfa7cee4f3",
    (0, 2): "a7c931e80b8e070aa627b5ed8e71ae81c6bc41d0750a1b8d3a680bde582b95ad",
    (3, 0): "b6f7a0f46e146dac10e9a5e9de5c9722daf0009b5d8b93b5d6fca97f3998dd8a",
}

#: Three consecutive ``STREAM_CHUNK`` draws of the transport's stream on
#: ``planetlab_profile(seed=9, slow_run_prob=0.0)``.
CHUNK_DIGESTS = {
    (0, 1): [
        "729a60246592f8ca1c8ecc03f1e8144a57addd25739fa5689ef703d08da0f56e",
        "9a361b79d47570802a22e4f5acfd906e42267d8511ab48945a6b1f9baf0e5062",
        "98b20472fb1eb6468776a882af22e5e0848c5652b6246f43fefa991fd83ea655",
    ],
    (4, 6): [
        "76ce19f6c03258d87867235fb121276ab31eb5a6d0f1a47d684d85e31c9ee3af",
        "fdb7c0c026cb919b034e4d92830a1fdc76517ec8cd116e50dca200d856b0d9d4",
        "a2c102cd3d538ff6514e632e3958b488b9b61b44579fafff4cf978fcc81910e0",
    ],
}


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def test_the_digests_are_those_of_sampler_version_batch2():
    assert TRACE_SAMPLER_VERSION == "batch2"


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
    network = crowded_network()
    lane = network.sample_lanes(256, 300, 0.05)[:, network.lane(src, dst)]
    assert digest(lane) == LINK_DIGESTS[src, dst]


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


#: PlanetLab seed of a slow-Poland run whose window covers the first
#: 1.4 s, so every ping of a 15-ping table and every message below
#: reaches Poland while it is slow.
SLOW_PING_SEED = 1

#: The scalar path's pins: a slow-run 15-ping table, and 12 rounds of
#: ``UK → Poland`` then ``Switzerland → Sweden`` sent 0.1 s apart.  A
#: message entering an active scale-mode window takes one uniform of
#: the shared generator, so the message after it depends on that draw.
PING_TABLE_DIGEST = (
    "4c65b71c9c199c541aa55c2e71cc215df97e1fc7dfe6340b827b7efa83bdac9f"
)
MESSAGE_DIGEST = (
    "eadc02b43880e4b9bb43418ca7826b38acb8b3ba5f2a1c8f919475a452bfe43d"
)


def test_slow_run_ping_table_bytes():
    profile = PlanetLabProfile(seed=SLOW_PING_SEED)
    slow = profile.slow_nodes[PL]
    assert all(slow.active(0.1 * k) for k in range(15))
    assert digest(measure_latency_table(profile, pings=15)) == PING_TABLE_DIGEST


def test_slow_window_messages_bytes():
    profile = PlanetLabProfile(seed=SLOW_PING_SEED)
    samples = [
        profile.sample_latency(src, dst, 0.1 * k)
        for k in range(12)
        for src, dst in ((UK, PL), (CH, SE))
    ]
    assert None not in samples
    assert digest(np.array(samples)) == MESSAGE_DIGEST
