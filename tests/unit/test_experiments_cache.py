"""Unit tests for the on-disk cache of the sweep cells' timely graphs."""

import errno
import gc
import os
import resource
import sys
import threading

import numpy as np
import pytest

from repro.experiments import cache as cache_module
from repro.experiments import measurement
from repro.experiments.cache import (
    TraceCache,
    cached_timely,
    cached_trace,
    timely_key,
    trace_key,
)


def segments(root):
    """The cache directory's segment files, sorted."""
    return sorted(root.glob("*.traces"))


def packed(matrices):
    """The record ``cached_timely`` stores for a cell's matrices."""
    return np.packbits(matrices)


class TestTraceKey:
    def test_deterministic(self):
        assert trace_key("wan", 8, 100, 0.2, 7) == trace_key("wan", 8, 100, 0.2, 7)

    def test_sensitive_to_every_parameter(self):
        base = trace_key("wan", 8, 100, 0.2, 7)
        assert trace_key("lan", 8, 100, 0.2, 7) != base
        assert trace_key("wan", 9, 100, 0.2, 7) != base
        assert trace_key("wan", 8, 101, 0.2, 7) != base
        assert trace_key("wan", 8, 100, 0.21, 7) != base
        assert trace_key("wan", 8, 100, 0.2, 8) != base

    def test_round_length_uses_full_precision(self):
        # repr, not a formatted float: nearby timeouts must not collide.
        assert trace_key("wan", 8, 100, 0.1, 7) != trace_key(
            "wan", 8, 100, 0.1 + 1e-12, 7
        )

    def test_sampler_version_is_part_of_the_key(self, monkeypatch):
        # Bumping TRACE_SAMPLER_VERSION must orphan entries produced by
        # the older sampler (e.g. the pre-batch per-round draw order).
        base = trace_key("wan", 8, 100, 0.2, 7)
        monkeypatch.setattr(measurement, "TRACE_SAMPLER_VERSION", "future99")
        assert trace_key("wan", 8, 100, 0.2, 7) != base


class TestTimelyKey:
    def test_sensitive_to_every_parameter_and_the_sampler(self, monkeypatch):
        base = timely_key("wan", 8, 100, 0.2, 7)
        assert timely_key("wan", 8, 100, 0.2, 7) == base
        assert timely_key("lan", 8, 100, 0.2, 7) != base
        assert timely_key("wan", 9, 100, 0.2, 7) != base
        assert timely_key("wan", 8, 101, 0.2, 7) != base
        assert timely_key("wan", 8, 100, 0.2 + 1e-12, 7) != base
        assert timely_key("wan", 8, 100, 0.2, 8) != base
        monkeypatch.setattr(measurement, "TRACE_SAMPLER_VERSION", "future99")
        assert timely_key("wan", 8, 100, 0.2, 7) != base

    def test_never_a_trace_key(self):
        """A float latency record must never be unpacked as bits."""
        assert timely_key("wan", 8, 100, 0.2, 7) != trace_key("wan", 8, 100, 0.2, 7)


class TestTraceCache:
    def test_store_load_roundtrip_is_bit_identical(self, tmp_path):
        cache = TraceCache(tmp_path)
        trace = measurement.sample_wan_trace(5, 0.2, seed=3)
        cache.store("wan", "k", trace)
        loaded = cache.load("wan", "k")
        assert loaded.dtype == trace.dtype
        assert np.array_equal(loaded, trace)

    def test_load_missing_returns_none_and_counts_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.load("wan", "absent") is None
        assert cache.misses == 1
        assert cache.hits == 0

    @pytest.mark.parametrize("cut", ["empty", "torn-header", "torn-body"])
    def test_torn_entry_is_a_miss_and_gets_overwritten(self, tmp_path, cut):
        """A segment cut inside its last record — 0 bytes of it left, part
        of its header, or part of its payload — loses that record only:
        the earlier ones still hit, the torn one is a miss (``load``
        never raises) and is re-appended, to a fresh segment."""
        writer = TraceCache(tmp_path)
        cells = [
            cached_timely("wan", 8, 5, 0.2, seed, cache=writer)
            for seed in (1, 2, 3)
        ]
        traces = [packed(matrices) for matrices in cells]
        keys = [timely_key("wan", 8, 5, 0.2, seed) for seed in (1, 2, 3)]
        [segment] = segments(tmp_path)
        whole = segment.stat().st_size
        third = whole - whole // 3  # equal-sized records: the last one's start
        os.truncate(segment, {
            "empty": third, "torn-header": third + 10, "torn-body": whole - 3,
        }[cut])

        # Both a fresh reader and the writer, whose index predates the cut.
        for cache in (TraceCache(tmp_path), writer):
            before = (cache.hits, cache.misses)
            for key, trace in zip(keys[:2], traces[:2]):
                assert np.array_equal(cache.load("wan", key), trace)
            assert cache.load("wan", keys[2]) is None
            assert (cache.hits, cache.misses) == (before[0] + 2, before[1] + 1)
        assert TraceCache(tmp_path).entries() == 2

        healer = TraceCache(tmp_path)
        assert np.array_equal(
            cached_timely("wan", 8, 5, 0.2, 3, cache=healer), cells[2]
        )
        assert (healer.hits, healer.misses) == (0, 1)
        for cache in (healer, TraceCache(tmp_path)):
            assert np.array_equal(cache.load("wan", keys[2]), traces[2])
        assert len(segments(tmp_path)) == 2  # nothing follows a torn tail
        assert sorted(tmp_path.rglob("*")) == segments(tmp_path)

    def test_flipped_payload_byte_is_a_miss_then_heals(self, tmp_path):
        """Regression: one flipped byte in a stored record's body was
        served as a hit with wrong contents — only the header was
        checked.  The record CRC makes it a miss, the resample restores
        the exact bits, and a reader that meets the bad record first
        still ends on the good copy."""
        cache = TraceCache(tmp_path)
        key = timely_key("wan", 8, 5, 0.2, 3)
        matrices = cached_timely("wan", 8, 5, 0.2, 3, cache=cache)
        trace = packed(matrices)
        [segment] = segments(tmp_path)
        blob = bytearray(segment.read_bytes())
        blob[-trace.nbytes // 2] ^= 0x01
        segment.write_bytes(blob)

        for reader in (cache, TraceCache(tmp_path)):
            before = (reader.hits, reader.misses)
            assert reader.load("wan", key) is None
            assert (reader.hits, reader.misses) == (before[0], before[1] + 1)
        healed = cached_timely("wan", 8, 5, 0.2, 3, cache=TraceCache(tmp_path))
        assert healed.tobytes() == matrices.tobytes()
        # Whichever of the bad and the good segment a scan lists first.
        for names in (("0.traces", "1.traces"), ("1.traces", "0.traces")):
            for path, name in zip(segments(tmp_path), names):
                path.rename(tmp_path / f"{name}.moving")
            for path in tmp_path.glob("*.moving"):
                path.rename(path.with_suffix(""))
            fresh = TraceCache(tmp_path)
            assert np.array_equal(fresh.load("wan", key), trace)
            assert fresh.entries() == 1

    def test_flipped_key_byte_serves_no_other_keys_trace(self, tmp_path):
        """The CRC covers the record's name, not just its payload: a
        flip that turns key ``a`` into ``c`` must not make ``c`` a hit."""
        TraceCache(tmp_path).store("wan", "a", np.arange(8.0).reshape(2, 2, 2))
        [segment] = segments(tmp_path)
        blob = segment.read_bytes()
        assert blob.count(b'"wan/a"') == 1
        segment.write_bytes(blob.replace(b'"wan/a"', b'"wan/c"'))
        reader = TraceCache(tmp_path)
        assert reader.load("wan", "c") is None
        assert reader.load("wan", "a") is None

    def test_counters_are_exact_under_concurrent_loads(self, tmp_path):
        """The ledger's verdict is ``(hits, misses) == (cells, 0)``: a
        lost ``+=`` between sweep threads would fail a correct run."""
        cache = TraceCache(tmp_path)
        cache.store("wan", "present", np.arange(12.0).reshape(3, 2, 2))
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait(timeout=30)
            for turn in range(200):
                cache.load("wan", "present" if turn % 2 else "absent")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (cache.hits, cache.misses) == (800, 800)

    def test_two_writers_get_two_segments_a_third_reads_both(
        self, tmp_path, monkeypatch
    ):
        first, second = TraceCache(tmp_path), TraceCache(tmp_path)
        stored = {}
        for seed in range(6):
            writer = (first, second)[seed % 2]
            stored[seed] = cached_timely("lan", 8, 3, 0.001, seed, cache=writer)
        # A key both have written: ``first`` has not scanned since
        # ``second`` stored it, so it misses and appends its own copy.
        again = cached_timely("lan", 8, 3, 0.001, 1, cache=first)
        assert np.array_equal(again, stored[1])
        assert (first.hits, first.misses) == (0, 4)
        assert len(segments(tmp_path)) == 2

        def forbidden(*args):
            raise AssertionError("a stored cell was re-simulated")

        monkeypatch.setattr(measurement, "sample_lan_trace", forbidden)
        third = TraceCache(tmp_path)
        assert third.entries() == 6
        for seed, matrices in stored.items():
            loaded = cached_timely("lan", 8, 3, 0.001, seed, cache=third)
            assert loaded.tobytes() == matrices.tobytes()
        assert (third.hits, third.misses) == (6, 0)

    def test_short_writes_are_completed(self, tmp_path, monkeypatch):
        real = os.writev
        monkeypatch.setattr(
            cache_module.os, "writev",
            lambda fd, buffers: real(fd, [bytes(buffers[0][:7])]),
        )
        cache = TraceCache(tmp_path)
        trace = np.arange(20.0).reshape(5, 2, 2)
        cache.store("wan", "a", trace)
        cache.store("wan", "b", trace + 1)
        reader = TraceCache(tmp_path)
        assert np.array_equal(reader.load("wan", "a"), trace)
        assert np.array_equal(reader.load("wan", "b"), trace + 1)

    def test_failed_write_abandons_the_segment(self, tmp_path, monkeypatch):
        """A store that dies mid-record leaves a torn tail; the writer
        must not append after it, where no reader would ever look."""
        real = os.writev
        trace = np.arange(20.0).reshape(5, 2, 2)
        cache = TraceCache(tmp_path)
        cache.store("wan", "before", trace)

        def disk_full(fd, buffers):
            real(fd, [bytes(buffers[0][:5])])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cache_module.os, "writev", disk_full)
        with pytest.raises(OSError):
            cache.store("wan", "lost", trace)
        monkeypatch.setattr(cache_module.os, "writev", real)
        cache.store("wan", "after", trace + 1)

        assert len(segments(tmp_path)) == 2
        for reader in (cache, TraceCache(tmp_path)):
            assert np.array_equal(reader.load("wan", "before"), trace)
            assert reader.load("wan", "lost") is None
            assert np.array_equal(reader.load("wan", "after"), trace + 1)

    def test_dropped_caches_release_their_descriptors(self, tmp_path):
        """Nothing calls ``close()`` on a ``TraceCache`` — the ledger and
        these tests just drop them — so collection must close every
        segment handle.  The limit is what is open already plus a margin,
        so descriptors held elsewhere in the process (by earlier tests,
        say) neither fail the test nor hide a leak."""
        trace = np.arange(8.0).reshape(2, 2, 2)
        for number in range(3):
            TraceCache(tmp_path).store("wan", f"k{number}", trace)
        assert len(segments(tmp_path)) == 3
        gc.collect()
        limits = resource.getrlimit(resource.RLIMIT_NOFILE)
        in_use = len(os.listdir("/proc/self/fd"))
        resource.setrlimit(resource.RLIMIT_NOFILE, (in_use + 32, limits[1]))
        try:
            for number in range(500):
                loaded = TraceCache(tmp_path).load("wan", f"k{number % 3}")
                assert np.array_equal(loaded, trace)
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, limits)

    def test_whatever_else_is_under_the_root_is_not_read(self, tmp_path):
        """An old one-file-per-trace directory, a stray file and even a
        directory named like a segment are misses, never errors."""
        (tmp_path / "wan").mkdir()
        np.save(tmp_path / "wan" / "old.npy", np.zeros((1, 2, 2)))
        (tmp_path / "notes.txt").write_text("not a segment")
        (tmp_path / "folder.traces").mkdir()
        (tmp_path / "noise.traces").write_bytes(b"TRC1" + bytes(range(64)))
        cache = TraceCache(tmp_path)
        assert cache.load("wan", "old") is None
        assert cache.entries() == 0
        cache.store("wan", "old", np.ones((1, 2, 2)))
        assert np.array_equal(cache.load("wan", "old"), np.ones((1, 2, 2)))
        assert TraceCache(tmp_path).entries() == 1

    @pytest.mark.parametrize("meta", [
        b"nope!", b"7", b"[1, 2, 3]", b'{"a": 1, "b": 2, "c": 3}',
        b'["wan/k", "|O", [1]]', b'["wan/k", ["<f8"], [1]]',
        b'["wan/k", "<f8", [Infinity]]', b'["wan/k", "<f8", [-1, -1]]',
        b'["wan/k", "<f8", [4096, 4096, 4096]]', b'["wan/k", "<f8", 1]',
    ])
    def test_malformed_meta_is_skipped_not_trusted(self, tmp_path, meta):
        """A record whose extents are sane but whose meta is not: the
        scan steps over it (no exception, no giant allocation) and still
        finds the well-formed record behind it."""
        trace = np.arange(8.0).reshape(2, 2, 2)
        TraceCache(tmp_path).store("wan", "good", trace)
        [segment] = segments(tmp_path)
        bad = cache_module._HEADER.pack(cache_module._MAGIC, len(meta), 8, 0)
        segment.write_bytes(bad + meta + bytes(8) + segment.read_bytes())
        reader = TraceCache(tmp_path)
        assert reader.load("wan", "k") is None
        assert np.array_equal(reader.load("wan", "good"), trace)
        assert reader.entries() == 1

    def test_only_plain_numeric_arrays_are_stored(self, tmp_path):
        cache = TraceCache(tmp_path)
        with pytest.raises(TypeError, match="plain numeric"):
            cache.store("wan", "a", np.array([object()]))
        for dtype in (np.float32, np.int16, np.bool_, np.complex128, ">f8"):
            array = np.arange(6).reshape(1, 2, 3).astype(dtype)
            cache.store("wan", np.dtype(dtype).str, array)
            loaded = TraceCache(tmp_path).load("wan", np.dtype(dtype).str)
            assert loaded.dtype == array.dtype and np.array_equal(loaded, array)

    def test_entries_counts_stored_traces(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.entries() == 0
        cache.store("wan", "a", np.zeros((1, 2, 2)))
        cache.store("lan", "b", np.zeros((1, 2, 2)))
        assert cache.entries() == 2

    def test_counting_walks_only_what_is_new(self, tmp_path, monkeypatch):
        """A serial store-then-count parses no record twice: the count
        walks only segments that are new or have grown since this
        instance indexed them, and its own stores are indexed already.
        Another writer's appends are still counted, and found by loads."""
        parsed = []
        real_parse = cache_module._parse_meta

        def counting_parse(meta, payload_len):
            parsed.append(meta)
            return real_parse(meta, payload_len)

        monkeypatch.setattr(cache_module, "_parse_meta", counting_parse)
        trace = np.arange(8.0).reshape(2, 2, 2)
        cache = TraceCache(tmp_path)
        assert cache.entries() == 0
        for key in "abc":
            cache.store("wan", key, trace)
        assert cache.entries() == 3
        assert parsed == []
        other = TraceCache(tmp_path)
        other.store("wan", "d", trace)
        other.store("wan", "e", trace)
        assert cache.entries() == 5
        assert len(parsed) == 2  # the other segment, once
        assert cache.entries() == 5
        other.store("wan", "f", trace)  # the other segment grows
        assert cache.entries() == 6
        assert len(parsed) == 3
        assert np.array_equal(cache.load("wan", "f"), trace)
        assert TraceCache(tmp_path).entries() == 6

    def test_a_vanished_segment_is_no_longer_counted(self, tmp_path):
        """Deleting the cache directory is always safe: a live instance's
        count follows the disk, not its index."""
        cache = TraceCache(tmp_path)
        cache.store("wan", "a", np.zeros((1, 2, 2)))
        TraceCache(tmp_path).store("wan", "b", np.zeros((1, 2, 2)))
        assert cache.entries() == 2
        for segment in segments(tmp_path):
            segment.unlink()
        assert cache.entries() == 0

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("wan", "a", np.zeros((1, 2, 2)))
        assert sorted(tmp_path.rglob("*")) == segments(tmp_path)


class TestCachedTrace:
    """A cell's record (:func:`cached_timely`, what the sweep reads), and
    the latency trace behind it (:func:`cached_trace`, sampled afresh)."""

    def test_without_cache_delegates_to_sampler(self, monkeypatch):
        calls = []
        real = measurement.sample_wan_trace

        def spy(rounds, round_length, seed):
            calls.append(seed)
            return real(rounds, round_length, seed)

        monkeypatch.setattr(measurement, "sample_wan_trace", spy)
        for cached in (cached_timely, cached_trace):
            cached("wan", 8, 5, 0.2, seed=1)
            cached("wan", 8, 5, 0.2, seed=1)
        assert calls == [1, 1, 1, 1]  # no cache: sampled every time
        assert np.array_equal(
            cached_timely("wan", 8, 5, 0.2, seed=1),
            measurement.timely_matrices(real(5, 0.2, 1), 0.2),
        )

    def test_second_call_hits_cache_with_zero_resimulation(
        self, tmp_path, monkeypatch
    ):
        cache = TraceCache(tmp_path)
        calls = []
        real = measurement.sample_wan_trace

        def spy(rounds, round_length, seed):
            calls.append(seed)
            return real(rounds, round_length, seed)

        monkeypatch.setattr(measurement, "sample_wan_trace", spy)
        first = cached_timely("wan", 8, 5, 0.2, seed=1, cache=cache)
        second = cached_timely("wan", 8, 5, 0.2, seed=1, cache=cache)
        assert calls == [1]
        assert first.dtype == second.dtype == np.bool_
        assert np.array_equal(first, second)

    def test_uses_process_wide_cache_when_activated(self, tmp_path):
        cache_module.activate(tmp_path)
        cached_timely("lan", 8, 4, 0.001, seed=2)
        active = cache_module.active_cache()
        assert active is not None
        assert active.entries() == 1
        cached_trace("lan", 8, 4, 0.001, seed=2)  # traces are not cached
        assert active.entries() == 1

    def test_unknown_profile_rejected(self, tmp_path):
        for cached in (cached_timely, cached_trace):
            with pytest.raises(KeyError):
                cached("martian", 8, 5, 0.2, seed=1)
        cache = TraceCache(tmp_path)
        with pytest.raises(KeyError):
            cached_timely("martian", 8, 5, 0.2, seed=1, cache=cache)
        assert cache.entries() == 0

    def test_mismatched_n_rejected(self, tmp_path):
        """Regression: ``n`` is hashed into the key but the profile
        samplers draw their own fixed node count, so ``n=9`` used to
        mint a distinct cache entry silently holding an 8-node trace."""
        cache = TraceCache(tmp_path)
        with pytest.raises(ValueError, match="n=9"):
            cached_timely("wan", 9, 5, 0.2, seed=1, cache=cache)
        assert cache.entries() == 0  # nothing mislabeled was stored
        # No cache in the loop: still rejected.
        for cached in (cached_timely, cached_trace):
            with pytest.raises(ValueError, match="n=9"):
                cached("lan", 9, 5, 0.001, seed=1)
        # The profile's true size passes, both cold and warm.
        cold = cached_timely("wan", 8, 5, 0.2, seed=1, cache=cache)
        warm = cached_timely("wan", 8, 5, 0.2, seed=1, cache=cache)
        assert np.array_equal(cold, warm)


class TestContentKey:
    def test_deterministic_and_order_insensitive(self):
        from repro.experiments.cache import content_key

        assert content_key("job", "v1", a=1, b=2.5) == content_key(
            "job", "v1", b=2.5, a=1
        )

    def test_sensitive_to_kind_version_and_every_param(self):
        from repro.experiments.cache import content_key

        base = content_key("job", "v1", a=1, b=2.5)
        assert content_key("other", "v1", a=1, b=2.5) != base
        assert content_key("job", "v2", a=1, b=2.5) != base
        assert content_key("job", "v1", a=2, b=2.5) != base
        assert content_key("job", "v1", a=1, b=2.5 + 1e-12) != base
