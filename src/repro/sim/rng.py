"""Named, independently seeded random streams.

Every stochastic component of a run (each column of link latencies, the
loss process, clock skews, workload arrival, ...) draws from its own stream so
that changing one component does not perturb the randomness seen by the
others.  This keeps A/B comparisons between models paired: the same seed
produces the same latency realization regardless of which consensus
algorithm observes it.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Iterable

import numpy as np


_LOW_128 = (1 << 128) - 1

#: Rounds per column: the unit a latency model's batch sampler draws in
#: (:func:`column_generators`) and the transport refills its streams by.
STREAM_CHUNK = 256

#: Per thread, one scratch generator per draw kind a column can have,
#: re-seated for every column: a raw state assignment costs ~1 µs where
#: a fresh ``PCG64`` costs its ~12 µs of seed mixing.  Per thread,
#: because sweep cells may sample on worker threads.
_column_seats = threading.local()


def derive_seed(root: int, name: str) -> int:
    """Derive a child seed from ``(root, name)`` by SHA-256.

    This is the one seed-derivation rule in the codebase: unlike linear
    combinations (``root * K + index``), hashed derivation cannot collide
    across purposes or indices for any choice of root seed, so every
    (cell, purpose) pair of an experiment gets a provably distinct stream.
    """
    digest = hashlib.sha256(f"{int(root)}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seed_heads(root: int, stem: str, suffixes: Iterable[int]) -> bytes:
    """:func:`derive_seed` of ``(root, f"{stem}{suffix}")`` for every
    ``suffix``, as its 8 big-endian bytes, joined: ``int.from_bytes`` of
    one head or ``np.frombuffer(heads, ">u8")`` of many reads back the
    seeds.  The shared ``<root>:<stem>`` prefix is hashed once and each
    name continues a copy of that state, so a long run of names costs
    little more than its suffixes."""
    prefix = hashlib.sha256(f"{int(root)}:{stem}".encode())
    heads = []
    for suffix in suffixes:
        name = prefix.copy()
        name.update(b"%d" % suffix)
        heads.append(name.digest()[:8])
    return b"".join(heads)


def column_generators(root: int, column: int, kinds: str) -> list[np.random.Generator]:
    """One generator per draw kind (a character of ``kinds``) of column
    ``column`` — rounds ``[STREAM_CHUNK * column, STREAM_CHUNK * (column
    + 1))`` of a model seeded ``root``.

    Each is seated on the SHA-256 digest of ``pcg64:<root>:<column>:<kind>``
    used as the raw PCG64 state: 128 bits of state plus a 128-bit stream
    increment (forced odd, as the PCG setseq variant requires).  SHA-256
    already is the mixer, so numpy's ``SeedSequence`` pass is skipped.
    The generators are the calling thread's scratch ones, re-seated by
    its next call: draw what the column needs before asking for another.
    """
    seats = getattr(_column_seats, "generators", None)
    if seats is None:
        seats = _column_seats.generators = [
            np.random.Generator(np.random.PCG64(kind)) for kind in range(4)
        ]
    head = b"pcg64:%d:%d:" % (root, column)
    for kind, rng in zip(kinds.encode(), seats):
        digest = int.from_bytes(hashlib.sha256(head + bytes((kind,))).digest(), "big")
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": digest >> 128, "inc": digest & _LOW_128 | 1},
            "has_uint32": 0,
            "uinteger": 0,
        }
    return seats[: len(kinds)]


class RandomStreams:
    """A factory of named, reproducible :class:`numpy.random.Generator` objects."""

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory was built from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The per-stream seed is derived by hashing ``(root seed, name)``, so
        streams are stable across runs and independent of creation order.
        """
        generator = self._streams.get(name)
        if generator is None:
            generator = np.random.default_rng(derive_seed(self._seed, name))
            self._streams[name] = generator
        return generator

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child factory, e.g. one per repetition of an experiment."""
        return RandomStreams(derive_seed(self._seed, f"spawn:{name}"))
