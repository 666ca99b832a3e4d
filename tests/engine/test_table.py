"""Unit tests for EngineStream (stream-table entry) internals and the
line requests the engine issues from them."""
import math
import random

import pytest

from repro.engine.table import EngineStream
from repro.streams.pattern import MemLevel

from tests.engine.test_engine import make_engine, make_info


def make_stream(info=None, depth=8, start=0.0):
    info = info or make_info()
    return EngineStream(info, fifo_depth=depth, line_bytes=64,
                        start_cycle=start, level=MemLevel.L2)


def fetch(info, cycles=20, latency=10, **cfg):
    """Configure ``info`` on a one-module engine and tick; returns the
    engine, its stream and the requested lines in issue order."""
    engine, hier = make_engine(latency=latency, processing_modules=1, **cfg)
    engine.configure(info, 0)
    for cycle in range(cycles):
        engine.tick(cycle)
    return engine, engine.streams[info.uid], [line for line, _, __ in hier.reads]


class TestLineGeneration:
    def test_lines_deduplicated_within_chunk(self):
        info = make_info(n_chunks=1)
        # A chunk whose addresses share lines: 0,4,8 are line 0; 64 line 1;
        # the return to line 0 is a line already requested.
        info.chunks[0] = [0, 4, 8, 64, 68, 0]
        _, __, lines = fetch(info)
        assert lines == [0, 1]

    def test_origin_reads_prepended(self):
        info = make_info(n_chunks=1)
        info.chunks[0] = [0]
        info.origin_reads[0] = [4096]  # indirect index fetch, line 64
        _, __, lines = fetch(info)
        assert lines == [64, 0]

    def test_chunk_lines_keep_first_touch_order(self):
        info = make_info(n_chunks=1)
        info.chunks[0] = [640, 0, 644, 128, 4]
        info.origin_reads[0] = [128, 192]
        assert make_stream(info).chunk_lines(0) == [2, 3, 10, 0]

    def test_store_lines_drop_only_consecutive_repeats(self):
        info = make_info(n_chunks=1)
        info.chunks[0] = [0, 4, 64, 68, 0, 4]
        assert make_stream(info).store_lines(0) == [0, 1, 0]

    @pytest.mark.parametrize("seed", range(5))
    def test_line_rules_match_reference(self, seed):
        """Both line rules, as first written, on random chunks: runs
        within one or two lines, permuted and duplicated addresses, wide
        gaps and indirect origin reads."""
        rng = random.Random(seed)
        for _ in range(400):
            base = rng.randrange(0, 1 << 16)
            width = rng.choice((1, 2, 4, 8))
            count = rng.randint(1, 16)
            addrs = [base + i * width for i in range(count)]
            if rng.random() < 0.3:
                rng.shuffle(addrs)
            if rng.random() < 0.2:
                addrs = [rng.randrange(0, 1 << 12) for _ in range(count)]
            info = make_info(n_chunks=1)
            info.chunks[0] = addrs
            if rng.random() < 0.3:
                info.origin_reads[0] = [
                    rng.randrange(0, 1 << 12) for _ in range(rng.randint(1, 4))
                ]
            stream = make_stream(info)
            want, last = [], -1
            for addr in info.origin_reads[0] + addrs:
                line = addr // 64
                if line != last and line not in want:
                    want.append(line)
                last = line
            assert stream.chunk_lines(0) == want
            want, last = [], -1
            for addr in addrs:
                if addr // 64 != last:
                    want.append(addr // 64)
                    last = addr // 64
            assert stream.store_lines(0) == want

    def test_chunk_ready_includes_fill_forward(self):
        # Configured at 0, the stream starts at 1; its two lines reach
        # memory at 2 and 3 and complete at 52 and 53.  The chunk is
        # ready 2 cycles (engine fill, forward) after the later one.
        engine, stream, _ = fetch(make_info(n_chunks=1, lines_per_chunk=2),
                                  latency=50)
        assert engine.stats.chunks_filled == 1
        assert stream.ready_cycle(0) == 53 + 2

    def test_ready_of_unfetched_chunk_is_infinite(self):
        stream = make_stream()
        assert math.isinf(stream.ready_cycle(3))


class TestPointers:
    def test_commit_frees_and_marks_delivered(self):
        engine, stream, _ = fetch(make_info())
        engine.commit_read(stream, 0)
        assert stream.commit_head == 1
        # Committed chunks read as available (element-wise consumers).
        assert stream.ready_cycle(0) == 0.0

    def test_start_cycle_gates_generation(self):
        engine, hier = make_engine(processing_modules=1)
        engine.configure(make_info(uid=0), 0)
        start = engine.configure(make_info(uid=1, reg=1), 100)
        assert start == 101.0
        for cycle in range(int(start)):
            engine.tick(cycle)
        assert engine.streams[1].gen_next == 0
        engine.tick(start)
        assert engine.streams[1].gen_next == 1

    def test_terminated_stream_inert(self):
        engine, hier = make_engine()
        engine.configure(make_info(), 0)
        engine.terminate(0)
        for cycle in range(10):
            engine.tick(cycle)
        assert hier.reads == []

    def test_exhausted_generation(self):
        engine, stream, lines = fetch(make_info(n_chunks=1, lines_per_chunk=2))
        assert lines == [0, 1]
        assert stream.gen_next == stream.num_chunks
        assert stream.lines is None  # nothing left after the last chunk
        # the scheduler never picks it again
        assert stream not in engine.scheduler.candidates


class TestStoreBookkeeping:
    def test_occupancy_of_store_stream(self):
        from repro.streams.pattern import Direction
        info = make_info(direction=Direction.STORE)
        stream = make_stream(info, depth=2)
        assert stream.fifo_occupancy() == 0
        assert stream.reserve_store()
        assert stream.fifo_occupancy() == 1
        assert stream.reserve_store()
        assert not stream.reserve_store()
        stream.drain_store()
        assert stream.reserve_store()
