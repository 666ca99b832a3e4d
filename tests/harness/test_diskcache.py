"""Tests for the persistent on-disk result cache."""
import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.harness.diskcache import ResultCache, code_version_salt, parse_size
from repro.harness.runner import RunRecord


def record(**overrides) -> RunRecord:
    fields = dict(
        kernel="saxpy", letter="C", isa="uve", committed=100, cycles=50.0,
        ipc=2.0, rename_blocks_per_cycle=0.1, bus_utilization=0.5,
        dram_bytes=4096, mispredict_rate=0.01, fifo_occupancy=3.0,
        l1_miss_rate=0.2, l2_miss_rate=0.3,
    )
    fields.update(overrides)
    return RunRecord(**fields)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        cache.store("key-1", record())
        assert cache.load("key-1") == record()
        assert cache.hits == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        assert cache.load("never-stored") is None
        assert cache.misses == 1

    def test_corrupted_entry_is_a_miss_and_recoverable(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        cache.store("key-1", record())
        path = Path(cache._path("key-1"))
        path.write_text("{ not json")
        assert cache.load("key-1") is None
        cache.store("key-1", record(cycles=99.0))  # overwrite heals it
        assert cache.load("key-1").cycles == 99.0

    def test_schema_incompatible_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        cache.store("key-1", record())
        path = Path(cache._path("key-1"))
        payload = json.loads(path.read_text())
        payload["record"]["no_such_field"] = 1
        path.write_text(json.dumps(payload))
        assert cache.load("key-1") is None

    def test_salt_separates_code_versions(self, tmp_path):
        old = ResultCache(tmp_path, salt="v1")
        new = ResultCache(tmp_path, salt="v2")
        old.store("key-1", record())
        assert new.load("key-1") is None
        assert old.load("key-1") is not None

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        for i in range(5):
            cache.store(f"key-{i}", record())
        assert not list(tmp_path.rglob("*.tmp"))

    def test_unwritable_root_degrades_silently(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        cache = ResultCache(blocked / "cache", salt="s")
        cache.store("key-1", record())  # must not raise
        assert cache.load("key-1") is None

    def test_default_salt_is_stable(self):
        assert code_version_salt() == code_version_salt()
        assert len(code_version_salt()) == 64


class TestPrune:
    """Size-bounded GC: LRU-by-mtime eviction for long sweep campaigns."""

    def _age(self, cache, key, mtime):
        os.utime(cache._path(key), (mtime, mtime))

    def test_under_limit_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        cache.store("k1", record())
        stats = cache.prune(max_bytes=10 ** 9)
        assert (stats.scanned, stats.removed) == (1, 0)
        assert cache.load("k1") is not None

    def test_evicts_oldest_first_until_fit(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        for i in range(5):
            cache.store(f"k{i}", record())
            self._age(cache, f"k{i}", 1000.0 + i)
        entry_size = os.path.getsize(cache._path("k0"))
        stats = cache.prune(max_bytes=2 * entry_size)
        assert stats.removed == 3
        assert stats.bytes_after <= 2 * entry_size
        # The two most recently used entries survive.
        assert cache.load("k0") is None
        assert cache.load("k1") is None
        assert cache.load("k2") is None
        assert cache.load("k3") is not None
        assert cache.load("k4") is not None

    def test_hit_counts_as_recent_use(self, tmp_path):
        """load() touches mtime, so a hot entry survives eviction even
        if it was written first."""
        cache = ResultCache(tmp_path, salt="s")
        for i in range(3):
            cache.store(f"k{i}", record())
            self._age(cache, f"k{i}", 1000.0 + i)
        assert cache.load("k0") is not None  # touch: now most recent
        entry_size = os.path.getsize(cache._path("k0"))
        cache.prune(max_bytes=entry_size)
        assert cache.load("k0") is not None
        assert cache.load("k2") is None

    def test_prune_to_zero_clears_and_campaign_recovers(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        for i in range(4):
            cache.store(f"k{i}", record())
        stats = cache.prune(max_bytes=0)
        assert stats.removed == 4
        assert cache.size_bytes() == 0
        # Empty shard dirs were cleaned up too.
        assert not [p for p in tmp_path.iterdir() if p.is_dir()]
        cache.store("k0", record())  # store after prune still works
        assert cache.load("k0") is not None

    def test_orphaned_temp_file_is_evicted(self, tmp_path):
        """A writer killed between mkstemp and its rename leaves a temp
        file in the shard: GC counts it and evicts it, oldest first,
        with the entries, and removes the emptied shard directory."""
        cache = ResultCache(tmp_path, salt="s")
        cache.store("k0", record())
        self._age(cache, "k0", 2000.0)
        entry = Path(cache._path("k0"))
        orphan = entry.parent / f"{entry.stem}abc123.tmp"
        orphan.write_bytes(b"x" * 5000)
        os.utime(orphan, (1000.0, 1000.0))
        entry_size = entry.stat().st_size
        assert cache.size_bytes() == entry_size + 5000
        stats = cache.prune(max_bytes=entry_size)
        assert (stats.removed, stats.bytes_after) == (1, entry_size)
        assert not orphan.exists()
        assert cache.load("k0") is not None
        stats = cache.prune(max_bytes=0)
        assert (stats.removed, stats.bytes_after) == (1, 0)
        assert not [p for p in tmp_path.iterdir() if p.is_dir()]

    def test_prune_spans_salts(self, tmp_path):
        """Stale-salt entries (old code versions) share the root and are
        GC'd by the same pass — they are the best eviction candidates."""
        old = ResultCache(tmp_path, salt="v1")
        new = ResultCache(tmp_path, salt="v2")
        old.store("k", record())
        self._age(old, "k", 1000.0)
        new.store("k", record())
        entry_size = os.path.getsize(new._path("k"))
        new.prune(max_bytes=entry_size)
        assert old.load("k") is None
        assert new.load("k") is not None

    def test_parse_size(self):
        assert parse_size("1024") == 1024
        assert parse_size("2K") == 2048
        assert parse_size("1.5M") == int(1.5 * 1024 ** 2)
        assert parse_size("2G") == 2 * 1024 ** 3
        with pytest.raises(ValueError):
            parse_size("banana")
        with pytest.raises(ValueError):
            parse_size("-1M")


class TestExecutorDiskIntegration:
    def test_executor_reads_through_and_populates(
            self, tmp_path, monkeypatch):
        from repro.harness.executor import CampaignExecutor
        from repro.harness.runner import Runner, RunSpec

        spec = RunSpec("saxpy", "uve")
        key = spec.key(0.1, 0)
        cache = ResultCache(tmp_path, salt="s")
        first = CampaignExecutor(scale=0.1, jobs=1, cache=cache)
        first.run_specs({key: spec})
        rec = first.runner.cached(key)
        assert cache.load(key) == rec
        # A fresh executor with no records loads from disk instead of
        # simulating.
        monkeypatch.setattr(Runner, "simulate", lambda *a, **k: pytest.fail(
            "a cached run simulated"
        ))
        second = CampaignExecutor(scale=0.1, jobs=1, cache=cache)
        second.run_specs({key: spec})
        assert second.runner.cached(key) == rec
        assert [e.status for e in second.events] == ["hit-disk"]
