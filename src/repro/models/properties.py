"""Round-based timeliness predicates.

The building blocks are the paper's Section 2 properties:

- ``p`` is a *j-source* in round ``k`` if there are ``j`` processes to
  which it has timely outgoing links (its own link counts; recipients need
  not be correct).
- A correct ``p`` is a *j-destination* in round ``k`` if it has ``j``
  timely incoming links from correct processes (again counting itself).

A round satisfies a model if the required per-process properties all hold
for that round's matrix.  ``correct`` defaults to "everyone", which is the
relevant case: the paper evaluates stable periods, where by definition no
process fails.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.models.matrix import majority


def _correct_indices(n: int, correct: Optional[Iterable[int]]) -> np.ndarray:
    if correct is None:
        return np.arange(n)
    indices = np.asarray(sorted(set(correct)), dtype=int)
    if indices.size == 0:
        raise ValueError("correct set must not be empty")
    if indices.min() < 0 or indices.max() >= n:
        raise ValueError(f"correct set {indices} out of range for n={n}")
    return indices


def is_j_source(matrix: np.ndarray, pid: int, j: int) -> bool:
    """Does ``pid`` have timely outgoing links to at least ``j`` processes?

    Recipients' correctness is irrelevant (paper, Section 2), so the whole
    column is counted.  The diagonal entry (self-link) is part of the count.
    """
    return int(np.count_nonzero(matrix[:, pid])) >= j


def is_j_destination(
    matrix: np.ndarray,
    pid: int,
    j: int,
    correct: Optional[Iterable[int]] = None,
) -> bool:
    """Does ``pid`` have timely incoming links from at least ``j`` correct processes?"""
    n = matrix.shape[0]
    senders = _correct_indices(n, correct)
    return int(np.count_nonzero(matrix[pid, senders])) >= j


def satisfies_es(matrix: np.ndarray, correct: Optional[Iterable[int]] = None) -> bool:
    """ES: all links between correct processes are timely."""
    n = matrix.shape[0]
    idx = _correct_indices(n, correct)
    return bool(np.all(matrix[np.ix_(idx, idx)]))


def satisfies_lm(
    matrix: np.ndarray,
    leader: int,
    correct: Optional[Iterable[int]] = None,
) -> bool:
    """Eventual LM: leader is an n-source; every correct process is a
    (majority)-destination.
    """
    n = matrix.shape[0]
    idx = _correct_indices(n, correct)
    maj = majority(n)
    # Leader's message reaches every correct process.
    if not bool(np.all(matrix[idx, leader])):
        return False
    # Every correct process hears from a majority of correct processes.
    counts = np.count_nonzero(matrix[np.ix_(idx, idx)], axis=1)
    return bool(np.all(counts >= maj))


def satisfies_wlm(
    matrix: np.ndarray,
    leader: int,
    correct: Optional[Iterable[int]] = None,
) -> bool:
    """Eventual WLM (the paper's new model): leader is an n-source and a
    (majority)-destination.  Only the leader's row and column matter.
    """
    n = matrix.shape[0]
    idx = _correct_indices(n, correct)
    maj = majority(n)
    if not bool(np.all(matrix[idx, leader])):
        return False
    return int(np.count_nonzero(matrix[leader, idx])) >= maj


def satisfies_afm(matrix: np.ndarray, correct: Optional[Iterable[int]] = None) -> bool:
    """Eventual AFM (simplified, per the paper): every correct process is a
    (majority)-destination and a (majority)-source.
    """
    n = matrix.shape[0]
    idx = _correct_indices(n, correct)
    maj = majority(n)
    in_counts = np.count_nonzero(matrix[np.ix_(idx, idx)], axis=1)
    if not bool(np.all(in_counts >= maj)):
        return False
    # Sources may count arbitrary recipients (not only correct ones).
    out_counts = np.count_nonzero(matrix[:, idx], axis=0)
    return bool(np.all(out_counts >= maj))


# ----------------------------------------------------------------------
# Batched forms: one call evaluates every round of a trace.
#
# Each ``batch_satisfies_*`` takes a stack of round matrices with shape
# ``(rounds, n, n)`` and returns a boolean vector of length ``rounds``,
# bit-identical to mapping the scalar predicate over the stack but
# without the per-round Python loop (the figures evaluate a timeout's
# whole sweep, ~10 000 rounds, per call).  A ``correct`` subset is
# indexed only when one is given: the default, everyone, reads the
# stack in place.
# ----------------------------------------------------------------------
def _count_timely(matrices: np.ndarray, axis: int) -> np.ndarray:
    """Timely entries along ``axis`` of a boolean stack, per remaining
    index: on a ``(rounds, n, n)`` stack ``axis=2`` counts each
    destination's timely senders, ``axis=1`` each source's timely
    recipients.

    One ``einsum`` over a ``uint8`` view of the booleans (no copy).  Its
    accumulator is the view's ``uint8`` while fewer than 256 entries are
    summed, so no count can wrap, and ``intp`` from 256 on.
    """
    flags = np.asarray(matrices, dtype=bool).view(np.uint8)
    labels = "rij"[: flags.ndim]
    kept = labels.replace(labels[axis], "")
    dtype = None if flags.shape[axis] < 256 else np.intp
    return np.einsum(f"{labels}->{kept}", flags, dtype=dtype)


def _all_timely(matrices: np.ndarray, axis: int) -> np.ndarray:
    """Is every entry along ``axis`` timely?  A full count, which reads a
    strided row or column faster than ``all`` does."""
    return _count_timely(matrices, axis) == matrices.shape[axis]


def _correct_subset(matrices: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The ``(rounds, c, c)`` stack of links between correct processes."""
    return matrices[:, idx[:, None], idx]


def batch_satisfies_es(
    matrices: np.ndarray, correct: Optional[Iterable[int]] = None
) -> np.ndarray:
    """Vectorized :func:`satisfies_es` over a ``(rounds, n, n)`` stack."""
    if correct is not None:
        idx = _correct_indices(matrices.shape[1], correct)
        matrices = _correct_subset(matrices, idx)
    return matrices.all(axis=(1, 2))


def _majority_destinations(
    matrices: np.ndarray, idx: Optional[np.ndarray]
) -> np.ndarray:
    """Per round: is every correct process a (majority)-destination,
    counting only correct senders?"""
    maj = majority(matrices.shape[1])
    if idx is None:
        return (_count_timely(matrices, axis=2) >= maj).all(axis=1)
    in_counts = _count_timely(matrices[:, :, idx], axis=2)[:, idx]
    return (in_counts >= maj).all(axis=1)


def batch_satisfies_lm(
    matrices: np.ndarray,
    leader: int,
    correct: Optional[Iterable[int]] = None,
) -> np.ndarray:
    """Vectorized :func:`satisfies_lm` over a ``(rounds, n, n)`` stack."""
    idx = None if correct is None else _correct_indices(matrices.shape[1], correct)
    reached = matrices[:, :, leader] if idx is None else matrices[:, idx, leader]
    return _all_timely(reached, axis=1) & _majority_destinations(matrices, idx)


def batch_satisfies_wlm(
    matrices: np.ndarray,
    leader: int,
    correct: Optional[Iterable[int]] = None,
) -> np.ndarray:
    """Vectorized :func:`satisfies_wlm` over a ``(rounds, n, n)`` stack."""
    n = matrices.shape[1]
    maj = majority(n)
    if correct is None:
        reached, heard = matrices[:, :, leader], matrices[:, leader, :]
    else:
        idx = _correct_indices(n, correct)
        reached, heard = matrices[:, idx, leader], matrices[:, leader, idx]
    return _all_timely(reached, axis=1) & (_count_timely(heard, axis=1) >= maj)


def batch_satisfies_afm(
    matrices: np.ndarray, correct: Optional[Iterable[int]] = None
) -> np.ndarray:
    """Vectorized :func:`satisfies_afm` over a ``(rounds, n, n)`` stack."""
    idx = None if correct is None else _correct_indices(matrices.shape[1], correct)
    # Sources may count arbitrary recipients (not only correct ones).
    out_counts = _count_timely(matrices, axis=1)
    if idx is not None:
        out_counts = out_counts[:, idx]
    sources = (out_counts >= majority(matrices.shape[1])).all(axis=1)
    return _majority_destinations(matrices, idx) & sources


# ----------------------------------------------------------------------
# Granular Synchrony (arxiv 2408.12853): instead of one network-wide
# assumption, each directed link carries its own contract — ``sync``
# (always timely), ``psync`` (timely after an unknown stabilization
# time, with a known bound), or ``async`` (no guarantee).  A round
# satisfies the granular model when every *guaranteed* (sync or psync)
# link between correct processes is timely; async links are best-effort
# and never required.
#
# The canonical assumption matrix is hub-based: a designated hub's
# outgoing links are sync, and every process additionally has psync
# incoming links from the ``n // 2`` processes preceding it on a ring.
# Counting the self-link, every process is therefore guaranteed to be a
# majority-destination, and the hub is guaranteed to be an n-source —
# so a satisfying granular round is also an eventual-LM round with the
# statically known hub as leader.  That is what lets the 3-round LM
# algorithm decide under granular synchrony without waiting on an
# Omega failure detector: the assumption matrix itself is the leader
# certificate.
# ----------------------------------------------------------------------

#: Per-link assumption codes, ordered by strength.
LINK_ASYNC = 0
LINK_PSYNC = 1
LINK_SYNC = 2

#: The canonical granular matrix designates process 0 as the sync hub.
GS_HUB = 0


@lru_cache(maxsize=None)
def canonical_granular_assumptions(n: int, hub: int = GS_HUB) -> np.ndarray:
    """The canonical hub-based assumption matrix for ``n`` processes.

    Entry ``[dst, src]`` follows the delivery-matrix orientation.  The
    diagonal and the hub's outgoing column are ``sync``; each process's
    incoming links from its ``n // 2`` ring predecessors are ``psync``;
    everything else is ``async``.  The returned array is read-only (it
    is cached and shared between callers).
    """
    if not 0 <= hub < n:
        raise ValueError(f"hub {hub} out of range for n={n}")
    assumptions = np.full((n, n), LINK_ASYNC, dtype=np.int8)
    dst = np.arange(n)
    for k in range(1, n // 2 + 1):
        assumptions[dst, (dst - k) % n] = LINK_PSYNC
    assumptions[:, hub] = LINK_SYNC
    np.fill_diagonal(assumptions, LINK_SYNC)
    assumptions.setflags(write=False)
    return assumptions


def granular_guaranteed(assumptions: np.ndarray) -> np.ndarray:
    """Boolean mask of the links the granular model requires to be timely."""
    return np.asarray(assumptions) >= LINK_PSYNC


@lru_cache(maxsize=None)
def _canonical_guaranteed(n: int) -> np.ndarray:
    mask = granular_guaranteed(canonical_granular_assumptions(n)).copy()
    mask.setflags(write=False)
    return mask


def granular_link_count(n: int) -> int:
    """Number of guaranteed entries in the canonical matrix (diagonal included).

    This is the exponent of the closed form ``P_GS = p ** granular_link_count(n)``
    under IID link timeliness, mirroring ``P_ES = p ** n**2``.
    """
    return int(np.count_nonzero(_canonical_guaranteed(n)))


def satisfies_granular(
    matrix: np.ndarray,
    guaranteed: np.ndarray,
    correct: Optional[Iterable[int]] = None,
) -> bool:
    """GS against an explicit guaranteed-link mask: every guaranteed link
    between correct processes is timely.
    """
    n = matrix.shape[0]
    idx = _correct_indices(n, correct)
    sub = np.ix_(idx, idx)
    return bool(np.all(matrix[sub][guaranteed[sub]]))


def batch_satisfies_granular(
    matrices: np.ndarray,
    guaranteed: np.ndarray,
    correct: Optional[Iterable[int]] = None,
) -> np.ndarray:
    """Vectorized :func:`satisfies_granular` over a ``(rounds, n, n)`` stack."""
    if correct is not None:
        idx = _correct_indices(matrices.shape[1], correct)
        guaranteed = guaranteed[np.ix_(idx, idx)]
        matrices = _correct_subset(matrices, idx)
    return matrices[:, guaranteed].all(axis=1)


def satisfies_gs(matrix: np.ndarray, correct: Optional[Iterable[int]] = None) -> bool:
    """GS with the canonical hub-based assumption matrix for this ``n``."""
    return satisfies_granular(matrix, _canonical_guaranteed(matrix.shape[0]), correct)


def batch_satisfies_gs(
    matrices: np.ndarray, correct: Optional[Iterable[int]] = None
) -> np.ndarray:
    """Vectorized :func:`satisfies_gs` over a ``(rounds, n, n)`` stack."""
    return batch_satisfies_granular(
        matrices, _canonical_guaranteed(matrices.shape[1]), correct
    )
