"""On-disk cache of what a sweep cell reads: its timely graphs.

A measured cell counts a message in a round iff its latency is below the
cell's timeout (Section 5.2), so every figure, the model selector and the
faults table read one thing from it: its per-round timely matrices
``[round, dst, src]`` at its own timeout.  Sampling the latencies behind
them is the expensive half of every measured figure, and they are pure
functions of ``(profile, n, rounds, timeout, seed)`` — so
:func:`cached_timely` caches them by a content hash of those
parameters, bit-packed (``np.packbits``: one bit a link, 2.4 kB for a
paper-scale cell instead of its 150 kB float64 trace), and reloads them
bit-identically on every later run.  Re-running ``python -m
repro.experiments`` (with ``--charts``, a new figure, or a different
analysis) then never re-simulates an unchanged cell.  A consumer that needs the latencies
themselves samples them again: a trace is a pure function of its seed.

Layout and invalidation
-----------------------

The cache is a log-structured store (the Bitcask shape).  A
:class:`TraceCache` that stores appends records to *its own* segment,
``<root>/<pid>-<random>.traces``, created on its first store and never
reopened for writing by anyone else.  One record is a fixed header
(magic, meta length, payload length, CRC-32 of meta + payload), the meta
(``"<profile>/<key>"``, dtype, shape) and the array's bytes, written
with one ``writev``.  A reader builds its index by walking the record
headers of every ``*.traces`` under the root (two small reads per
record), and a later scan walks only what is new since: segments it has
not seen and the growth of those it has; it stops a segment at the first
record whose magic is wrong or whose declared extent passes end-of-file,
keeps *every* candidate per key, and a load reads candidates into a
fresh array until one passes its CRC.  So a torn tail or a flipped byte
is a miss, never wrong bits: the caller resamples and appends a
good record, which later loads find.
Loads copy (``preadv``) rather than map the file, so resident memory
stays one record, not the segment.

A cell's key (:func:`timely_key`) is a :func:`content_key` of kind
``timely`` over the cell's parameters, the timeout included, and a
``sampler=`` field carrying
:data:`repro.experiments.measurement.TRACE_SAMPLER_VERSION`, so a change
to the sampler's draw order retires entries sampled by older code.
Changing *any* parameter — including the root seed — changes the key,
so stale entries are never read, only orphaned.  A float64 latency
record that older code stored under a :func:`trace_key` (kind ``trace``)
hashes a different blob, so it is a miss, never unpacked as bits.

Concurrent sweep workers never share a segment, so they cannot tear each
other's records; two that race on one key both append the same bytes.
An index does not see what *other* writers append after its last scan
(the first load, or an :meth:`TraceCache.entries` count) — that is a
miss and a duplicate record, not an error.  Nothing is ever
rewritten or compacted: segments accumulate one per writer that missed
(a reader holds one descriptor per segment it has walked), and
deleting the cache directory — always safe — is the whole reclamation
story.  A directory in the older one-file-per-trace layout is simply not
read.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import struct
import threading
import zlib
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

import numpy as np

from repro.experiments import measurement

#: Profiles the cache knows how to (re)sample, by name.
PROFILE_SAMPLERS = ("wan", "lan")


def _digest(blob: str) -> str:
    """The cache's canonical hash: sha256, truncated to 32 hex chars."""
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def content_key(kind: str, version: str, **params: object) -> str:
    """A content hash over a canonical ``kind:version:k=v:...`` blob.

    The same discipline as :func:`trace_key`, generalized: every
    parameter that could change the result is folded into the hash in
    sorted order (via ``repr``, so floats keep full precision), and a
    version field retires keys when the computation itself changes.
    The sweep service (:mod:`repro.service`) uses this for its in-flight
    dedup keys, so "the same request" means exactly what it means for
    cached traces: identical parameters, hence bit-identical results.
    """
    parts = ":".join(f"{k}={params[k]!r}" for k in sorted(params))
    return _digest(f"{kind}:{version}:{parts}")


def trace_key(
    profile: str, n: int, rounds: int, round_length: float, seed: int
) -> str:
    """Content hash identifying one latency trace's full parameter set."""
    blob = (
        f"trace:v2:sampler={measurement.TRACE_SAMPLER_VERSION}"
        f":{profile}:n={int(n)}:rounds={int(rounds)}"
        f":round_length={float(round_length)!r}:seed={int(seed)}"
    )
    return _digest(blob)


def timely_key(
    profile: str, n: int, rounds: int, timeout: float, seed: int
) -> str:
    """Content hash identifying one cell's timely graphs: its trace's
    parameters, the timeout both its round length and its threshold."""
    return content_key(
        "timely", "v1", profile=profile, n=int(n), rounds=int(rounds),
        timeout=float(timeout), seed=int(seed),
        sampler=measurement.TRACE_SAMPLER_VERSION,
    )


_SEGMENT_SUFFIX = ".traces"

#: A record is this header, then ``meta_len`` bytes of JSON meta
#: (``["<profile>/<key>", dtype, shape]``), then ``payload_len`` bytes of
#: C-ordered array data.  The CRC covers meta and payload, so a flipped
#: byte cannot serve one key's latencies under another key's name.
_MAGIC = b"TRC1"
_HEADER = struct.Struct("<4sIQI")  # magic, meta_len, payload_len, crc32
#: The dtypes a record may declare: fixed-size numbers, nothing that
#: holds references or needs a parser of its own.
_DTYPE = re.compile(r"[<>|][biufc]\d+")


class _Segment:
    """One open segment file; collecting the object closes it."""

    def __init__(self, descriptor: int) -> None:
        self.descriptor = descriptor

    def __del__(self, _close=os.close) -> None:  # bound early: runs at exit too
        _close(self.descriptor)


class _Record(NamedTuple):
    """Where one stored array lies, and what its bytes must hash to."""

    segment: _Segment
    offset: int  # of the payload
    dtype: np.dtype
    shape: tuple[int, ...]
    meta_crc: int
    crc: int


def _bytes_of(array: np.ndarray) -> np.ndarray:
    """A C-contiguous array's memory as a flat byte view (no copy)."""
    return array.reshape(-1).view(np.uint8)


def _parse_meta(
    meta: bytes, payload_len: int
) -> Optional[tuple[str, np.dtype, tuple[int, ...]]]:
    """``(name, dtype, shape)`` of a record, or ``None`` if malformed.

    The CRC vouches for the meta only once the payload is read, so what
    a scan believes before that is checked here: a plain numeric dtype
    and a shape that accounts for exactly the payload's bytes.
    """
    try:
        name, dtype_str, shape = json.loads(meta)
        if not _DTYPE.fullmatch(dtype_str):  # TypeError unless a string
            return None
        dtype = np.dtype(dtype_str)
    except (ValueError, TypeError):
        return None
    if (
        not isinstance(name, str)
        or not isinstance(shape, list)
        or not all(type(extent) is int and extent >= 0 for extent in shape)
        or math.prod(shape) * dtype.itemsize != payload_len
    ):
        return None
    return name, dtype, tuple(shape)


def _walk(segment: _Segment, start: int) -> Iterator[tuple[str, _Record, int]]:
    """Every well-formed record of ``segment`` from offset ``start`` on, in
    file order, with the offset just past it.

    Stops at the first record whose magic is wrong or whose declared
    extent passes end-of-file: that is a torn tail, and since a writer
    never appends to a file it did not create, nothing valid follows it.
    A record whose meta does not parse is skipped, not trusted.
    """
    descriptor = segment.descriptor
    size = os.fstat(descriptor).st_size
    while start + _HEADER.size <= size:
        header = os.pread(descriptor, _HEADER.size, start)
        if len(header) < _HEADER.size:
            return  # cut short since the fstat
        magic, meta_len, payload_len, crc = _HEADER.unpack(header)
        offset = start + _HEADER.size + meta_len
        if magic != _MAGIC or offset + payload_len > size:
            return
        meta = os.pread(descriptor, meta_len, start + _HEADER.size)
        start = offset + payload_len
        parsed = _parse_meta(meta, payload_len)
        if parsed is not None:
            name, dtype, shape = parsed
            yield name, _Record(
                segment, offset, dtype, shape, zlib.crc32(meta), crc
            ), start


def _read(record: _Record) -> Optional[np.ndarray]:
    """The record's array, or ``None`` if its bytes fail the CRC."""
    trace = np.empty(record.shape, record.dtype)
    raw = _bytes_of(trace)
    try:
        got = os.preadv(record.segment.descriptor, [raw], record.offset)
    except OSError:
        return None
    if got != raw.size or zlib.crc32(raw, record.meta_crc) != record.crc:
        return None
    return trace


class TraceCache:
    """A directory of append-only array segments, keyed by content hash
    (:func:`timely_key`, :func:`trace_key`).

    ``hits`` / ``misses`` and the index are guarded by one lock, so
    totals are exact under concurrent :meth:`load` calls.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        # name -> every record stored under it, oldest first; built by
        # the first load or entries(), then extended by this instance's
        # own stores and by what later scans find new on disk.
        self._index: Optional[dict[str, list[_Record]]] = None
        # Segment file name -> (its segment, the offset its indexed
        # records end at): a scan walks a segment only past that offset.
        self._walked: dict[str, tuple[_Segment, int]] = {}
        # This instance's own segment, its name and its length, once it
        # has stored.
        self._writer: Optional[_Segment] = None
        self._writer_name = ""
        self._end = 0

    def _scan(self) -> dict[str, list[_Record]]:
        """Bring the index up to date with the segments under the root
        and return it (call with the lock held).  A segment is walked
        only past the records already indexed from it: a new one whole,
        a grown one from where the last walk stopped, an unchanged one
        (this instance's own included) not at all.  Segments only grow;
        if one has vanished, the index is rebuilt."""
        try:
            names = sorted(
                name for name in os.listdir(self.root)
                if name.endswith(_SEGMENT_SUFFIX)
            )
        except OSError:
            names = []  # no directory (yet): nothing stored
        if self._index is None or not self._walked.keys() <= set(names):
            self._index, self._walked = {}, {}
        for filename in names:
            segment, end = self._walked.get(filename, (None, 0))
            try:
                if segment is None:
                    segment = _Segment(os.open(self.root / filename, os.O_RDONLY))
                if os.fstat(segment.descriptor).st_size == end:
                    continue
                # A skipped or torn record is walked again next time.
                for name, record, end in _walk(segment, end):
                    self._index.setdefault(name, []).append(record)
            except OSError:
                continue  # unreadable from here on: the rest are misses
            self._walked[filename] = (segment, end)
        return self._index

    def load(self, profile: str, key: str) -> Optional[np.ndarray]:
        """The cached array, or ``None`` on a miss (never raises)."""
        with self._lock:
            index = self._index if self._index is not None else self._scan()
            candidates = tuple(index.get(f"{profile}/{key}", ()))
        # Newest first: a record re-appended after a failed read is the
        # one most likely to verify.  A torn or bit-flipped candidate is
        # passed over; with none left the caller resamples and appends.
        trace = None
        for record in reversed(candidates):
            trace = _read(record)
            if trace is not None:
                break
        with self._lock:
            if trace is None:
                self.misses += 1
            else:
                self.hits += 1
        return trace

    def store(self, profile: str, key: str, trace: np.ndarray) -> None:
        """Append the array ``trace`` under ``key`` to this instance's
        segment."""
        trace = np.ascontiguousarray(trace)
        if not _DTYPE.fullmatch(trace.dtype.str):
            raise TypeError(
                f"the trace cache stores plain numeric arrays, not {trace.dtype}"
            )
        name = f"{profile}/{key}"
        meta = json.dumps([name, trace.dtype.str, trace.shape]).encode()
        raw = _bytes_of(trace)
        meta_crc = zlib.crc32(meta)
        crc = zlib.crc32(raw, meta_crc)
        header = _HEADER.pack(_MAGIC, len(meta), raw.size, crc)
        with self._lock:
            if self._writer is None:
                self.root.mkdir(parents=True, exist_ok=True)
                unique = f"{os.getpid()}-{os.urandom(6).hex()}{_SEGMENT_SUFFIX}"
                self._writer_name = unique
                self._writer = _Segment(os.open(
                    self.root / unique,
                    os.O_RDWR | os.O_CREAT | os.O_EXCL | os.O_APPEND,
                    0o644,
                ))
                self._end = 0
            segment = self._writer
            pending = [memoryview(header), memoryview(meta), memoryview(raw)]
            try:
                while pending:
                    written = os.writev(segment.descriptor, pending)
                    while pending and written >= len(pending[0]):
                        written -= len(pending.pop(0))
                    if pending:
                        pending[0] = pending[0][written:]
            except BaseException:
                # Whatever reached the file is a torn tail; nothing may
                # follow it, so the next store starts a new segment.
                self._writer = None
                raise
            offset = self._end + len(header) + len(meta)
            self._end = offset + raw.size
            if self._index is not None:
                self._index.setdefault(name, []).append(_Record(
                    segment, offset, trace.dtype, trace.shape, meta_crc, crc
                ))
                # Indexed as stored: no scan need walk it again.
                self._walked[self._writer_name] = (segment, self._end)

    def entries(self) -> int:
        """Number of distinct keys currently on disk.

        Scans the directory rather than trusting this instance's index
        as it stands: pool workers each append to a segment of their
        own.  The scan walks only what this instance has not indexed
        yet, and what it finds serves later loads too.
        """
        with self._lock:
            return len(self._scan())


#: The process-wide active cache; ``None`` means caching is off.
_active: Optional[TraceCache] = None


def activate(root: Path | str) -> TraceCache:
    """Install (and return) the process-wide cache rooted at ``root``."""
    global _active
    _active = TraceCache(root)
    return _active


def deactivate() -> None:
    """Turn caching off for this process."""
    global _active
    _active = None


def active_cache() -> Optional[TraceCache]:
    """The process-wide cache, if one is active."""
    return _active


def cached_timely(
    profile: str,
    n: int,
    rounds: int,
    timeout: float,
    seed: int,
    cache: Optional[TraceCache] = None,
) -> np.ndarray:
    """One cell's timely matrices ``[round, dst, src]``, from cache when
    possible: its ``rounds``-round trace of round length ``timeout``,
    thresholded at ``timeout`` (:func:`~repro.experiments.measurement.
    timely_matrices`, diagonal timely).

    With no cache (neither ``cache`` nor an active process-wide one) this
    samples and thresholds.  A cache stores ``np.packbits`` of the
    boolean stack, and a hit unpacks it bit for bit.
    """
    if cache is None:
        cache = _active
    if cache is not None:
        key = timely_key(profile, n, rounds, timeout, seed)
        packed = cache.load(profile, key)
        if packed is not None:
            shape = (int(rounds), int(n), int(n))
            bits = np.unpackbits(packed, count=math.prod(shape))
            return bits.view(bool).reshape(shape)
    trace = cached_trace(profile, n, rounds, timeout, seed)
    matrices = measurement.timely_matrices(trace, timeout)
    if cache is not None:
        cache.store(profile, key, np.packbits(matrices))
    return matrices


def cached_trace(
    profile: str, n: int, rounds: int, round_length: float, seed: int
) -> np.ndarray:
    """The latency trace for these parameters, sampled afresh: the cache
    holds the cells' timely graphs (:func:`cached_timely`), and a trace
    is a pure function of its seed.  (The name is the benchmark ledger's.)

    The sampler is looked up on :mod:`repro.experiments.measurement` at
    call time so test spies installed there observe (the absence of)
    re-simulation.
    """
    if profile not in PROFILE_SAMPLERS:
        raise KeyError(
            f"unknown trace profile {profile!r}; known: {PROFILE_SAMPLERS}"
        )
    sampler = getattr(measurement, f"sample_{profile}_trace")
    return _validated_n(profile, sampler(rounds, round_length, seed), n)


def _validated_n(profile: str, trace: np.ndarray, n: int) -> np.ndarray:
    """Reject an ``n`` the profile's sampler cannot honor.

    ``n`` is hashed into the cache keys but the profile samplers draw
    traces of their own fixed size (the paper's 8 nodes), so a mismatched
    ``n`` used to mint a *distinct* cache entry holding a trace of the
    wrong size — silently, since nothing downstream rechecked the shape.
    Raising here keeps the key's contract honest: every parameter in the
    hash is a parameter of the stored bytes.
    """
    if trace.shape[1] != int(n):
        raise ValueError(
            f"profile {profile!r} samples {trace.shape[1]}-node traces, "
            f"but n={n} was requested; the profile's node count is fixed"
        )
    return trace
