"""Unit tests for the Streaming Engine timing model."""
import math

import pytest

from repro.common.types import ElementType
from repro.cpu.config import EngineConfig
from repro.engine.engine import StreamingEngine
from repro.engine.scheduler import StreamScheduler
from repro.errors import ConfigError, StreamError
from repro.sim.trace import StreamTraceInfo
from repro.streams.pattern import Direction, MemLevel


class FakeTlb:
    walk_latency = 20

    def translate(self, addr):
        return 0

    def probe(self, addr):
        return True

    def stream_translate(self, addr):
        return True, 0


class FakeHierarchy:
    """Fixed-latency memory with access logging."""

    line_bytes = 64

    def __init__(self, latency=10):
        self.latency = latency
        self.reads = []
        self.writes = []
        self.tlb = FakeTlb()

        class _L1:
            @staticmethod
            def can_accept(now):
                return True

        self.l1d = _L1()

    def stream_read(self, line, now, level):
        self.reads.append((line, now, level))
        return now + self.latency

    def stream_write(self, line, now, level):
        self.writes.append((line, now))
        return now + 1


def make_info(uid=0, reg=0, n_chunks=4, lines_per_chunk=1,
              direction=Direction.LOAD, flags=None):
    info = StreamTraceInfo(
        uid=uid, reg=reg, direction=direction, etype=ElementType.F32,
        mem_level=MemLevel.L2, ndims=2, storage_bytes=48,
    )
    for c in range(n_chunks):
        base = c * lines_per_chunk * 64
        info.chunks.append(
            [base + i * 64 for i in range(lines_per_chunk)]
        )
        info.origin_reads.append([])
        info.chunk_flags.append(flags[c] if flags else 0)
    info.chunk_flags[-1] = info.ndims - 1
    return info


def make_engine(latency=10, **cfg):
    hierarchy = FakeHierarchy(latency)
    engine = StreamingEngine(EngineConfig(**cfg), hierarchy)
    return engine, hierarchy


class TestConfiguration:
    def test_scrob_serializes_configs(self):
        engine, _ = make_engine()
        t0 = engine.configure(make_info(uid=0), now=5)
        t1 = engine.configure(make_info(uid=1, reg=1), now=5)
        assert t1 == t0 + 1  # one configuration per cycle, in order

    def test_stream_limit_enforced(self):
        engine, _ = make_engine(max_streams=2)
        engine.configure(make_info(uid=0, reg=0), 0)
        engine.configure(make_info(uid=1, reg=1), 0)
        with pytest.raises(StreamError):
            engine.configure(make_info(uid=2, reg=2), 0)

    def test_finished_streams_recycled(self):
        engine, _ = make_engine(max_streams=1)
        engine.configure(make_info(uid=0, n_chunks=1), 0)
        for cycle in range(30):
            engine.tick(cycle)
        engine.commit_read(engine.streams[0], 0)
        engine.configure(make_info(uid=1, reg=1), 40)  # recycles uid 0
        assert 1 in engine.streams

    def test_duplicate_uid_rejected(self):
        engine, _ = make_engine()
        engine.configure(make_info(uid=3, reg=0), 0)
        with pytest.raises(StreamError, match="uid 3 is already configured"):
            engine.configure(make_info(uid=3, reg=1), 0)
        assert engine.stats.configs == 1


class TestFetchAhead:
    def test_fetches_up_to_fifo_depth(self):
        engine, hier = make_engine(fifo_depth=2, processing_modules=1)
        engine.configure(make_info(n_chunks=8), 0)
        for cycle in range(50):
            engine.tick(cycle)
        # Only 2 chunks (= 2 lines) may be in flight before any commit.
        assert len(hier.reads) == 2

    def test_commit_frees_fifo_and_resumes(self):
        engine, hier = make_engine(fifo_depth=2, processing_modules=1)
        engine.configure(make_info(n_chunks=8), 0)
        for cycle in range(20):
            engine.tick(cycle)
        engine.commit_read(engine.streams[0], 0)
        for cycle in range(20, 40):
            engine.tick(cycle)
        assert len(hier.reads) == 3

    def test_chunk_ready_latency(self):
        engine, hier = make_engine(latency=10)
        engine.configure(make_info(), 0)
        for cycle in range(5):
            engine.tick(cycle)
        ready = engine.streams[0].ready_cycle(0)
        line, issued_at, _ = hier.reads[0]
        assert ready == issued_at + 10 + 2  # latency + fill/forward

    def test_unfetched_chunk_is_infinite(self):
        engine, _ = make_engine(fifo_depth=2)
        engine.configure(make_info(n_chunks=8), 0)
        engine.tick(0)
        assert math.isinf(engine.streams[0].ready_cycle(7))

    def test_multi_line_chunks_issue_one_line_per_cycle(self):
        engine, hier = make_engine(processing_modules=1)
        engine.configure(make_info(n_chunks=1, lines_per_chunk=3), 0)
        for cycle in range(10):
            engine.tick(cycle)
        issue_times = [t for (_, t, __) in hier.reads]
        assert len(issue_times) == 3
        assert issue_times[1] > issue_times[0]

    def test_request_queue_bounds_pathological_backlog(self):
        # The queue stages requests for the arbiter; in-flight misses are
        # tracked by cache MSHRs, so only a pathological backlog (far-
        # future completions piling up beyond 4x the queue) stalls
        # generation.
        engine, hier = make_engine(
            latency=100_000, memory_request_queue=1, processing_modules=2,
            fifo_depth=16,
        )
        engine.configure(make_info(n_chunks=16), 0)
        for cycle in range(30):
            engine.tick(cycle)
        assert len(hier.reads) == 4  # 4 x memory_request_queue
        assert engine.stats.request_queue_stalls > 0

    def test_mem_level_override(self):
        engine, hier = make_engine(mem_level_override="mem")
        engine.configure(make_info(), 0)
        for cycle in range(5):
            engine.tick(cycle)
        assert hier.reads[0][2] is MemLevel.MEM


class TestSpeculationSupport:
    def test_squash_reverts_to_commit_point(self):
        engine, _ = make_engine()
        engine.configure(make_info(), 0)
        stream = engine.streams[0]
        stream.rename_read(0)
        stream.rename_read(1)
        assert stream.spec_head == 2
        engine.squash(0, 0)
        assert stream.spec_head == 0  # reverted to commit point

    def test_squashed_data_stays_buffered(self):
        # A3: miss-speculatively consumed chunks remain valid — ready time
        # is unchanged after a squash, no re-fetch happens.
        engine, hier = make_engine()
        engine.configure(make_info(), 0)
        for cycle in range(10):
            engine.tick(cycle)
        stream = engine.streams[0]
        before = stream.ready_cycle(0)
        reads_before = len(hier.reads)
        stream.rename_read(0)
        engine.squash(0, 0)
        for cycle in range(10, 15):
            engine.tick(cycle)
        assert stream.ready_cycle(0) == before
        assert len(hier.reads) == reads_before + 0  # no duplicate loads


class TestStores:
    def make_store(self, engine, n_chunks=4, lines_per_chunk=1):
        info = make_info(direction=Direction.STORE, n_chunks=n_chunks,
                         lines_per_chunk=lines_per_chunk)
        engine.configure(info, 0)
        return engine.streams[info.uid]

    def test_reserve_until_full(self):
        engine, _ = make_engine(fifo_depth=2)
        stream = self.make_store(engine)
        assert stream.reserve_store()
        assert stream.reserve_store()
        assert not stream.reserve_store()

    def test_commit_write_drains_and_frees(self):
        engine, hier = make_engine(fifo_depth=1)
        stream = self.make_store(engine)
        assert stream.reserve_store()
        engine.commit_write(stream, 0, now=5)
        assert engine.stores_pending
        engine.tick(6)
        assert not engine.stores_pending
        assert hier.writes == [(0, 6)]
        assert stream.reserve_store()  # entry freed after drain

    def test_drain_rate_one_line_per_port(self):
        engine, hier = make_engine(fifo_depth=8, store_ports=1)
        stream = self.make_store(engine)
        for c in range(3):
            stream.reserve_store()
            engine.commit_write(stream, c, now=0)
        for cycle in range(1, 4):
            engine.tick(cycle)
        assert len(hier.writes) == 3
        assert [t for (_, t) in hier.writes] == [1, 2, 3]

    def test_entry_frees_when_its_last_line_drains(self):
        engine, hier = make_engine(fifo_depth=1, store_ports=2)
        stream = self.make_store(engine, lines_per_chunk=3)
        assert stream.reserve_store()
        engine.commit_write(stream, 0, now=0)
        engine.tick(1)  # two ports: lines 0 and 1
        assert [line for (line, _) in hier.writes] == [0, 1]
        assert not stream.reserve_store()
        engine.tick(2)
        assert hier.writes[-1] == (2, 2)
        assert not engine.stores_pending
        assert stream.reserve_store()


class TestScheduler:
    @staticmethod
    def fetched(engine):
        return [engine.streams[uid].gen_next for uid in sorted(engine.streams)]

    def test_fifo_occupancy_priority(self):
        engine, _ = make_engine(processing_modules=1)
        for uid in range(3):
            engine.configure(make_info(uid=uid, reg=uid, n_chunks=10), 0)
        # Starts at 1, 2, 3; least occupied first, uid breaks ties.
        for cycle in range(10):
            engine.tick(cycle)
        assert self.fetched(engine) == [3, 3, 3]
        streams = engine.streams
        engine.commit_read(streams[0], 1)  # stream 0 holds 1 chunk
        engine.commit_read(streams[2], 0)  # stream 2 holds 2
        assert [s.uid for s in engine.scheduler.candidates] == [0, 2, 1]
        engine.tick(10)
        engine.tick(11)  # stream 0 (2 held) wins the tie on uid
        engine.tick(12)
        assert self.fetched(engine) == [5, 3, 4]

    def test_round_robin_rotates(self):
        engine, _ = make_engine(processing_modules=1,
                                scheduler_policy="round-robin")
        for uid in range(2):
            engine.configure(make_info(uid=uid, reg=uid, n_chunks=10), 0)
        for cycle in range(6):
            engine.tick(cycle)
        assert self.fetched(engine) == [3, 2]
        # Occupancy does not matter: stream 1 holds nothing, yet the
        # streams still alternate.
        engine.commit_read(engine.streams[1], 1)
        engine.tick(6)
        engine.tick(7)
        assert self.fetched(engine) == [4, 3]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            StreamScheduler("lifo")

    def test_round_robin_follows_stream_table_order(self):
        # uids out of configuration order: the table order still rules.
        engine, _ = make_engine(processing_modules=1,
                                scheduler_policy="round-robin")
        for uid in (5, 2, 9):
            engine.configure(make_info(uid=uid, reg=uid, n_chunks=10), 0)
        assert [s.uid for s in engine.scheduler.candidates] == [5, 2, 9]

    def test_full_fifo_not_selected(self):
        engine, hier = make_engine(fifo_depth=2, processing_modules=2)
        engine.configure(make_info(n_chunks=8), 0)
        for cycle in range(10):
            engine.tick(cycle)
        stream = engine.streams[0]
        assert stream.gen_next == 2
        assert engine.scheduler.candidates == []
        engine.commit_read(stream, 0)  # a free entry: back in the running
        assert engine.scheduler.candidates == [stream]


class TestDimensionSwitch:
    def test_dim_switch_costs_extra_cycle(self):
        engine, hier = make_engine(processing_modules=1, dim_switch_penalty=1)
        info = make_info(n_chunks=4, flags=[1, 0, 1, 1])
        engine.configure(info, 0)
        for cycle in range(20):
            engine.tick(cycle)
        assert engine.stats.dim_switch_stalls >= 1


class TestOverheadAccounting:
    def test_default_storage_matches_paper_scale(self):
        engine, _ = make_engine()
        ov = engine.storage_overheads()
        # Paper: ~14 KB of table storage and ~17 KB of FIFOs.
        assert 6_000 <= ov["stream_table_bytes"] <= 16_000
        assert 15_000 <= ov["fifo_bytes"] <= 20_000

    def test_reduced_config_is_about_one_tenth_l1(self):
        engine, _ = make_engine(max_streams=8, max_dims=4, max_mods=3)
        ov = engine.storage_overheads()
        assert ov["total_bytes"] <= 0.12 * 65536


class TestPageFaults:
    def test_unmapped_page_is_flagged_not_raised(self):
        """A2/§IV-A: the engine flags faulting elements for commit-time
        handling and keeps streaming."""
        hier = FakeHierarchy()
        hier.tlb.probe = lambda addr: False  # every page unmapped
        hier.tlb.stream_translate = lambda addr: (False, 0)
        engine = StreamingEngine(EngineConfig(), hier)
        engine.configure(make_info(n_chunks=2), 0)
        for cycle in range(20):
            engine.tick(cycle)
        assert engine.stats.page_faults >= 2
        assert engine.stats.chunks_filled == 2  # streaming continued
