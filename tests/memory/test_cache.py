"""Unit tests for the cache timing model."""
from collections import OrderedDict

from repro.cpu.config import CacheConfig
from repro.memory.cache import Cache
from repro.memory.coherence import LineState


class FakeNext:
    """Fixed-latency next level recording accesses."""

    def __init__(self, latency=100):
        self.latency = latency
        self.accesses = []

    def access(self, line, now, is_write):
        self.accesses.append((line, now, is_write))
        return now + self.latency


def make_cache(size=1024, assoc=2, hit=4, mshrs=4, prefetcher=None, latency=100):
    nxt = FakeNext(latency)
    cache = Cache(CacheConfig("T", size, assoc, hit, mshrs), nxt, prefetcher)
    return cache, nxt


class TestLazySets:
    def test_fresh_cache_builds_no_set(self):
        cache, _ = make_cache()
        assert not any(isinstance(s, OrderedDict) for s in cache._sets)
        assert not cache.contains(5)
        assert cache.line_state(5) is LineState.INVALID

    def test_first_fill_builds_only_its_set(self):
        cache, _ = make_cache()
        cache.access(5, now=0)
        cache.warm(6)
        built = [i for i, s in enumerate(cache._sets)
                 if isinstance(s, OrderedDict)]
        assert built == [5 % cache.config.num_sets, 6 % cache.config.num_sets]
        assert cache.contains(5) and cache.contains(6)
        assert not cache.contains(7)
        assert cache.line_state(7) is LineState.INVALID


class TestHitMiss:
    def test_cold_miss_goes_to_next_level(self):
        cache, nxt = make_cache()
        done = cache.access(5, now=0)
        assert nxt.accesses == [(5, 4, False)]  # after lookup latency
        assert done == 4 + 100 + 1

    def test_hit_after_fill(self):
        cache, nxt = make_cache()
        t1 = cache.access(5, now=0)
        t2 = cache.access(5, now=t1)
        assert t2 == t1 + 4
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_late_hit_waits_for_inflight_fill(self):
        cache, _ = make_cache()
        t1 = cache.access(5, now=0)
        # Second access arrives while the fill is still in flight.
        t2 = cache.access(5, now=1)
        assert t2 >= t1 - 1  # waits for fill, then hit latency
        assert cache.stats.late_hits == 1

    def test_lru_eviction(self):
        cache, _ = make_cache(size=256, assoc=2)  # 2 sets, 2 ways
        s = cache.config.num_sets
        cache.access(0, 0)
        cache.access(s, 0)  # same set as 0
        cache.access(0, 500)  # touch 0 -> line s becomes LRU
        cache.access(2 * s, 600)  # evicts line s
        assert cache.contains(0)
        assert not cache.contains(s)
        assert cache.contains(2 * s)

    def test_write_allocates_modified(self):
        cache, _ = make_cache()
        cache.access(7, 0, is_write=True)
        assert cache.line_state(7) is LineState.MODIFIED

    def test_read_allocates_exclusive(self):
        cache, _ = make_cache()
        cache.access(7, 0)
        assert cache.line_state(7) is LineState.EXCLUSIVE

    def test_write_hit_upgrades_to_modified(self):
        cache, _ = make_cache()
        t = cache.access(7, 0)
        cache.access(7, t, is_write=True)
        assert cache.line_state(7) is LineState.MODIFIED

    def test_dirty_eviction_writes_back(self):
        cache, nxt = make_cache(size=256, assoc=2)
        s = cache.config.num_sets
        t = cache.access(0, 0, is_write=True)
        t = cache.access(s, t)
        t = cache.access(2 * s, t)  # evicts dirty line 0
        assert cache.stats.writebacks == 1
        assert any(w for (_, __, w) in nxt.accesses)


class TestMshrs:
    def test_mshr_saturation_delays_misses(self):
        cache, _ = make_cache(mshrs=2, latency=100)
        t0 = cache.access(0, 0)
        t1 = cache.access(1 + cache.config.num_sets, 0)
        t2 = cache.access(2 + 2 * cache.config.num_sets, 0)
        assert t0 == t1  # two MSHRs -> both overlap
        assert t2 > t1  # third miss waits for an MSHR


class TestPrefetcherIntegration:
    class SequentialPf:
        def observe(self, pc, addr):
            return [addr // 64 + 1]

    def test_prefetch_fills_next_line(self):
        cache, _ = make_cache(prefetcher=self.SequentialPf())
        cache.access(0, 0)
        assert cache.contains(1)
        assert cache.stats.prefetch_fills == 1

    def test_prefetch_hit_counted(self):
        cache, _ = make_cache(prefetcher=self.SequentialPf())
        cache.access(0, 0)
        cache.access(1, 1000)
        assert cache.stats.prefetch_hits == 1

    def test_prefetched_line_in_flight_gives_late_hit(self):
        cache, _ = make_cache(prefetcher=self.SequentialPf(), latency=100)
        cache.access(0, 0)
        done = cache.access(1, 2)  # prefetch of line 1 still in flight
        assert cache.stats.late_hits == 1
        assert done > 2 + cache.config.hit_latency
