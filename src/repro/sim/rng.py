"""Named, independently seeded random streams.

Every stochastic component of a run (each link's latency sampler, the loss
process, clock skews, workload arrival, ...) draws from its own stream so
that changing one component does not perturb the randomness seen by the
others.  This keeps A/B comparisons between models paired: the same seed
produces the same latency realization regardless of which consensus
algorithm observes it.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np


_LOW_128 = (1 << 128) - 1


def derive_seed(root: int, name: str) -> int:
    """Derive a child seed from ``(root, name)`` by SHA-256.

    This is the one seed-derivation rule in the codebase: unlike linear
    combinations (``root * K + index``), hashed derivation cannot collide
    across purposes or indices for any choice of root seed, so every
    (cell, purpose) pair of an experiment gets a provably distinct stream.
    """
    digest = hashlib.sha256(f"{int(root)}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_pcg64_states(root: int, names: Iterable[bytes]) -> list[dict]:
    """Raw PCG64 states derived from ``(root, name)`` by SHA-256, one per
    (encoded) name.

    Seeding ``PCG64(seed)`` runs a ``SeedSequence`` entropy-mixing pass
    (~10x the cost of a raw state assignment), which dominates batch trace
    sampling — every directed link of every model needs its own stream.
    SHA-256 already *is* a high-quality mixer, so the 256-bit digest of
    ``pcg64:<root>:<name>`` is used directly: 128 bits of state plus a
    128-bit stream increment (forced odd, as the PCG setseq variant
    requires).  Each dict can be assigned to ``PCG64.state`` in about a
    microsecond.  A trace derives its n(n-1) link states in one call, so
    the per-name work is three C calls and no Python frame.
    """
    head = f"pcg64:{int(root)}:".encode()
    digests = [
        int.from_bytes(hashlib.sha256(head + name).digest(), "big")
        for name in names
    ]
    return [
        {
            "bit_generator": "PCG64",
            "state": {"state": digest >> 128, "inc": digest & _LOW_128 | 1},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for digest in digests
    ]


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
