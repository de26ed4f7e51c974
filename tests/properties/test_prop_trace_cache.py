"""A damaged cache serves what was stored, or nothing; a cell's record
is its thresholded trace.

The cache is a directory of append-only segments, one per writer
(:mod:`repro.experiments.cache`).  Whatever two writers interleave on
one root — duplicate keys included — and wherever a segment is then cut
short and a byte of one flipped, every ``load``, by a fresh reader or by
a writer whose index predates the damage, returns bytes that were stored
under that very key, or ``None``: never another key's array, never a
half-read one, never an exception.  And the damage heals: a key stored
again is loaded again.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.experiments import measurement
from repro.experiments.cache import TraceCache, cached_timely, trace_key
from repro.experiments.config import LAN_TIMEOUTS, WAN_TIMEOUTS
from repro.experiments.figures import WanRun
from repro.experiments.measurement import timely_matrices

KEYS = ("a", "b", "c", "ab")

#: One store: which of the two writers, under which key, which content.
STORES = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from(KEYS), st.integers(0, 3)),
    min_size=1,
    max_size=12,
)


def content(key: str, salt: int) -> np.ndarray:
    """A small array that differs for every (key, salt)."""
    return np.arange(6.0).reshape(1, 2, 3) + 10 * KEYS.index(key) + salt / 4


@settings(max_examples=150, deadline=None)
@given(
    stores=STORES,
    cut=st.tuples(st.integers(0, 1), st.integers(0, 4095)),
    flip=st.tuples(st.integers(0, 1), st.integers(0, 4095), st.integers(1, 255)),
)
def test_every_load_is_what_was_stored_or_a_miss(stores, cut, flip):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        writers = (TraceCache(root), TraceCache(root))
        stored = {key: [] for key in KEYS}
        for writer, key, salt in stores:
            writers[writer].store("wan", key, content(key, salt))
            stored[key].append(content(key, salt).tobytes())

        paths = sorted(root.glob("*.traces"))
        victim = paths[cut[0] % len(paths)]
        os.truncate(victim, cut[1] % (victim.stat().st_size + 1))
        victim = paths[flip[0] % len(paths)]
        blob = bytearray(victim.read_bytes())
        if blob:
            blob[flip[1] % len(blob)] ^= flip[2]
            victim.write_bytes(blob)

        for cache in (TraceCache(root), *writers):
            for key in KEYS:
                loaded = cache.load("wan", key)
                assert loaded is None or loaded.tobytes() in stored[key]
            assert cache.hits + cache.misses == len(KEYS)

        healer = TraceCache(root)
        for key in KEYS:
            healer.store("wan", key, content(key, 0))
        for cache in (healer, TraceCache(root)):
            for key in KEYS:
                loaded = cache.load("wan", key)
                assert loaded is not None
                assert loaded.tobytes() in stored[key] + [
                    content(key, 0).tobytes()
                ]


@settings(max_examples=60, deadline=None)
@given(
    profile=st.sampled_from(["wan", "lan"]),
    rounds=st.integers(0, 40),
    grid_index=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_cell_record_is_its_thresholded_trace(profile, rounds, grid_index, seed):
    """A sweep cell's record (``cached_timely``) holds exactly the timely
    graphs of the trace it stands for, cold and warm; its p is the
    trace-based count; and a float latency record stored under the same
    parameters' ``trace_key`` is a miss, never a served cell."""
    timeout = (WAN_TIMEOUTS if profile == "wan" else LAN_TIMEOUTS)[grid_index]
    trace = getattr(measurement, f"sample_{profile}_trace")(rounds, timeout, seed)
    reference = timely_matrices(trace.copy(), timeout)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        # The old record kind, under the old key: not a cell.
        TraceCache(root).store(
            profile, trace_key(profile, 8, rounds, timeout, seed), trace
        )
        cache = TraceCache(root)
        cold = cached_timely(profile, 8, rounds, timeout, seed, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        for reader in (cache, TraceCache(root)):
            warm = cached_timely(profile, 8, rounds, timeout, seed, cache=reader)
            assert warm.dtype == cold.dtype == np.bool_
            assert warm.tobytes() == cold.tobytes() == reference.tobytes()
            assert reader.hits == 1
        assert TraceCache(root).entries() == 2

    # p as the trace-based count it replaced: off-diagonal latencies
    # under the timeout, over rounds * n * (n - 1).
    links = rounds * 8 * 7
    if links:
        timely = trace < timeout
        own = np.count_nonzero(timely.diagonal(axis1=1, axis2=2))
        expected = float((np.count_nonzero(timely) - own) / links)
    else:
        expected = float("nan")
    assert repr(WanRun.of(cold).p) == repr(expected)
