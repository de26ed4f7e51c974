"""A damaged trace cache serves what was stored, or nothing.

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

from repro.experiments.cache import TraceCache

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
