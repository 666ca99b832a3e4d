"""The stream access paths of `_RuntimeStream` and its scalar/vector
interleave contract.

A run's stride decides its path once, when the run is fetched: a run
whose stride is one element width (or that has a single element) is
contiguous, and each of its chunks is one ``read_block``/``write_block``;
every other run is gathered and scattered in stream order.  The stride
is trusted, so ``tests/streams/test_run_iterator.py`` checks that every
run's addresses are exactly ``addresses[0] + i * stride``: a run with a
permuted interior (e.g. ``[b, b+8, b+4, b+12]``, once read in address
order by an endpoint-only contiguity test) cannot claim to be
contiguous.  These tests inject runs directly into the stream's run
iterator so the exact address vectors are under test control.
"""
import numpy as np
import pytest

from repro.common.types import ElementType
from repro.errors import StreamError
from repro.isa.vector import VecValue, all_valid
from repro.memory.backing import Memory
from repro.sim.functional import _RuntimeStream
from repro.sim.trace import StreamTraceInfo
from repro.streams.iterator import StreamRun
from repro.streams.pattern import (
    Descriptor,
    Direction,
    Level,
    MemLevel,
    StreamPattern,
)

F32 = ElementType.F32
WIDTH = F32.width
LANES = 4


class RecordingMemory(Memory):
    """A memory that records which access path each vector access took."""

    def __init__(self, size):
        super().__init__(size)
        self.paths = []

    def read_block(self, addr, count, etype):
        self.paths.append("block")
        return super().read_block(addr, count, etype)

    def write_block(self, addr, values):
        self.paths.append("block")
        super().write_block(addr, values)

    def read_gather(self, addrs, etype):
        self.paths.append("gather")
        return super().read_gather(addrs, etype)

    def write_scatter(self, addrs, values, etype):
        self.paths.append("scatter")
        super().write_scatter(addrs, values, etype)


def make_stream(direction, base, count, stride, lanes=LANES):
    """A 1-D stream whose next run is ``count`` elements from byte
    address ``base``, ``stride`` bytes apart."""
    mem = RecordingMemory(1 << 12)
    pattern = StreamPattern(
        levels=[Level(Descriptor(0, count, 1))],
        etype=F32,
        direction=direction,
    )
    trace = StreamTraceInfo(
        uid=0,
        reg=0,
        direction=direction,
        etype=F32,
        mem_level=MemLevel.L2,
        ndims=1,
        storage_bytes=0,
    )
    stream = _RuntimeStream(0, 0, pattern, lanes, mem, trace)
    addrs = base + np.arange(count, dtype=np.int64) * stride
    stream._runs = iter([StreamRun(addrs, stride, 0)])
    return stream, mem, addrs.tolist()


def fill(mem, addrs, values):
    for addr, value in zip(addrs, values):
        mem.write_scalar(addr, value, F32)
    mem.paths.clear()


def full_value(values):
    return VecValue(np.array(values, dtype=np.float32), all_valid(len(values)))


class TestRunStridePaths:
    def test_contiguous_chunk_reads_one_block(self):
        stream, mem, addrs = make_stream(Direction.LOAD, 64, LANES, WIDTH)
        fill(mem, addrs, [5.0, 6.0, 7.0, 8.0])
        value, _ = stream.read_vector()
        np.testing.assert_array_equal(
            value.data, np.array([5.0, 6.0, 7.0, 8.0], dtype=np.float32)
        )
        assert mem.paths == ["block"]
        # A full chunk carries the shared read-only all-valid mask.
        assert value.valid is all_valid(LANES)
        # The chunk is recorded as an address run.
        assert stream.trace.chunks == [range(64, 64 + LANES * WIDTH, WIDTH)]
        assert [list(c) for c in stream.trace.chunks] == [addrs]

    def test_contiguous_tail_chunk_is_padded(self):
        stream, mem, addrs = make_stream(Direction.LOAD, 64, LANES + 2, WIDTH)
        fill(mem, addrs, [float(i) for i in range(LANES + 2)])
        stream.read_vector()
        value, _ = stream.read_vector()
        np.testing.assert_array_equal(
            value.data, np.array([4.0, 5.0, 0.0, 0.0], dtype=np.float32)
        )
        assert value.valid.tolist() == [True, True, False, False]
        assert value.valid.flags.writeable
        assert mem.paths == ["block", "block"]
        assert [list(c) for c in stream.trace.chunks] == [
            addrs[:LANES], addrs[LANES:]
        ]
        assert stream.ended

    def test_contiguous_chunk_writes_one_block(self):
        stream, mem, addrs = make_stream(Direction.STORE, 64, LANES, WIDTH)
        stream.write_vector(full_value([5.0, 6.0, 7.0, 8.0]))
        assert mem.paths == ["block"]
        assert [mem.read_scalar(a, F32) for a in addrs] == [5.0, 6.0, 7.0, 8.0]

    def test_reversed_run_is_gathered(self):
        # Descending addresses step by minus one width: not contiguous.
        stream, mem, addrs = make_stream(
            Direction.LOAD, 64 + 3 * WIDTH, LANES, -WIDTH
        )
        fill(mem, sorted(addrs), [1.0, 2.0, 3.0, 4.0])
        value, _ = stream.read_vector()
        np.testing.assert_array_equal(
            value.data, np.array([4.0, 3.0, 2.0, 1.0], dtype=np.float32)
        )
        assert mem.paths == ["gather"]
        assert value.valid.all()

    def test_reversed_run_is_scattered(self):
        stream, mem, addrs = make_stream(
            Direction.STORE, 64 + 3 * WIDTH, LANES, -WIDTH
        )
        stream.write_vector(full_value([1.0, 2.0, 3.0, 4.0]))
        assert mem.paths == ["scatter"]
        # Stream element i lands at addrs[i]: address order is 4, 3, 2, 1.
        got = [mem.read_scalar(a, F32) for a in sorted(addrs)]
        assert got == [4.0, 3.0, 2.0, 1.0]

    def test_strided_run_reads_written_values(self):
        values = [1.5, -2.0, 0.25, 7.0]
        stream, mem, addrs = make_stream(Direction.LOAD, 64, LANES, 3 * WIDTH)
        fill(mem, addrs, values)
        value, _ = stream.read_vector()
        np.testing.assert_array_equal(
            value.data, np.array(values, dtype=np.float32)
        )
        assert mem.paths == ["gather"]
        assert value.valid.all()

    def test_zero_stride_write_last_wins(self):
        # Every element targets one address; the scalar reference applies
        # them in order, so the last one must win.
        stream, mem, _ = make_stream(Direction.STORE, 64, LANES, 0)
        stream.write_vector(full_value([1.0, 2.0, 3.0, 4.0]))
        assert mem.paths == ["scatter"]
        assert mem.read_scalar(64, F32) == 4.0

    @pytest.mark.parametrize("stride", [WIDTH, 0, -WIDTH, 3 * WIDTH])
    def test_single_element_run_is_one_block(self, stride):
        stream, mem, _ = make_stream(Direction.LOAD, 128, 1, stride, lanes=1)
        fill(mem, [128], [9.0])
        value, _ = stream.read_vector()
        assert value.data.tolist() == [9.0]
        assert value.valid.tolist() == [True]
        assert mem.paths == ["block"]

    def test_single_element_tail_of_a_strided_run_is_gathered(self):
        stream, mem, addrs = make_stream(
            Direction.LOAD, 64, LANES + 1, 2 * WIDTH
        )
        fill(mem, addrs, [float(i) for i in range(LANES + 1)])
        stream.read_vector()
        value, _ = stream.read_vector()
        assert value.data.tolist() == [4.0, 0.0, 0.0, 0.0]
        assert mem.paths == ["gather", "gather"]


class TestScalarVectorInterleave:
    """A vector access must not land mid-chunk: partial scalar
    consumption leaves an open chunk that only further scalar accesses
    (or the chunk boundary) may close."""

    def _load_stream(self, n=8):
        stream, mem, addrs = make_stream(Direction.LOAD, 64, n, WIDTH)
        fill(mem, addrs, [float(i) for i in range(n)])
        return stream

    def _store_stream(self, n=8):
        stream, _, _ = make_stream(Direction.STORE, 64, n, WIDTH)
        return stream

    def test_vector_read_after_partial_scalar_read_raises(self):
        stream = self._load_stream()
        stream.read_scalar()
        with pytest.raises(StreamError, match="partial scalar"):
            stream.read_vector()

    def test_vector_write_after_partial_scalar_write_raises(self):
        stream = self._store_stream()
        stream.write_scalar(1.0)
        with pytest.raises(StreamError, match="partial scalar"):
            stream.write_vector(
                VecValue(
                    np.zeros(LANES, dtype=np.float32),
                    np.ones(LANES, dtype=bool),
                )
            )

    def test_vector_read_allowed_at_chunk_boundary(self):
        # LANES scalar reads complete the open chunk; the next vector
        # read starts a fresh chunk and must succeed.
        stream = self._load_stream()
        for _ in range(LANES):
            stream.read_scalar()
        value, chunk_id = stream.read_vector()
        assert chunk_id == 1
        np.testing.assert_array_equal(
            value.data, np.array([4.0, 5.0, 6.0, 7.0], dtype=np.float32)
        )

    def test_vector_write_allowed_at_chunk_boundary(self):
        stream = self._store_stream()
        for i in range(LANES):
            stream.write_scalar(float(i))
        data = np.full(LANES, 9.0, dtype=np.float32)
        chunk_id = stream.write_vector(
            VecValue(data, np.ones(LANES, dtype=bool))
        )
        assert chunk_id == 1
