"""The stream access paths of `_RuntimeStream` and its scalar/vector
interleave contract.

A run's path is decided once, when the run is fetched: a run whose
stride is one element width (or that has a single element) is
contiguous, and each of its chunks is one ``read_block``/``write_block``;
an aligned run with a nonzero stride that lies inside memory is one
strided view of memory (``Memory.strided``), and each of its chunks a
slice of that view; every other run is gathered and scattered in stream
order.  The runs are ``(start, count, stride)`` by construction
(``tests/streams/test_run_iterator.py``), so no run can claim a stride
its addresses do not follow.  These tests inject runs directly into the
stream's run iterator, and check that the view path reads, writes and
fails exactly as the gather/scatter path does.
"""
import numpy as np
import pytest

from repro.common.types import ElementType
from repro.errors import MemoryAccessError, StreamError
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
    """A memory that records which access path each vector access took
    (``strided`` once per run that got a view)."""

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

    def strided(self, addr, count, stride, etype):
        view = super().strided(addr, count, stride, etype)
        if view is not None:
            self.paths.append("strided")
        return view


def make_stream(direction, base, count, stride, lanes=LANES, size=1 << 12):
    """A 1-D stream whose next run is ``count`` elements from byte
    address ``base``, ``stride`` bytes apart."""
    mem = RecordingMemory(size)
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
    stream._runs = iter([StreamRun(base, count, stride, 0)])
    return stream, mem, [base + i * stride for i in range(count)]


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

    @pytest.mark.parametrize("stride", [WIDTH, 2 * WIDTH])
    def test_wider_value_is_stored_in_the_stream_type(self, stride):
        # An F64 value into an F32 stream: the contiguous block and the
        # strided view both store float32 elements and nothing else.
        stream, mem, addrs = make_stream(Direction.STORE, 64, LANES, stride)
        mem.data[:] = 0xA5
        before = mem.data.copy()
        stream.write_vector(VecValue(
            np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float64),
            all_valid(LANES),
        ))
        assert [mem.read_scalar(a, F32) for a in addrs] == [1.0, 2.0, 3.0, 4.0]
        written = np.zeros(len(mem.data), dtype=bool)
        for addr in addrs:
            written[addr : addr + WIDTH] = True
        np.testing.assert_array_equal(mem.data[~written], before[~written])

    def test_reversed_run_reads_through_a_strided_view(self):
        # Descending addresses step by minus one width: not contiguous.
        stream, mem, addrs = make_stream(
            Direction.LOAD, 64 + 3 * WIDTH, LANES, -WIDTH
        )
        fill(mem, sorted(addrs), [1.0, 2.0, 3.0, 4.0])
        value, _ = stream.read_vector()
        np.testing.assert_array_equal(
            value.data, np.array([4.0, 3.0, 2.0, 1.0], dtype=np.float32)
        )
        assert mem.paths == ["strided"]
        assert value.valid.all()

    def test_reversed_run_writes_through_a_strided_view(self):
        stream, mem, addrs = make_stream(
            Direction.STORE, 64 + 3 * WIDTH, LANES, -WIDTH
        )
        stream.write_vector(full_value([1.0, 2.0, 3.0, 4.0]))
        assert mem.paths == ["strided"]
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
        assert mem.paths == ["strided"]
        assert value.valid.all()
        assert stream.trace.chunks == [range(64, 64 + 4 * 3 * WIDTH, 3 * WIDTH)]

    def test_zero_stride_write_last_wins(self):
        # Every element targets one address; the scalar reference applies
        # them in order, so the last one must win.
        stream, mem, _ = make_stream(Direction.STORE, 64, LANES, 0)
        stream.write_vector(full_value([1.0, 2.0, 3.0, 4.0]))
        assert mem.paths == ["scatter"]
        assert mem.read_scalar(64, F32) == 4.0
        assert stream.trace.chunks == [[64] * LANES]

    @pytest.mark.parametrize(
        "base, stride", [(66, 2 * WIDTH), (64, 6), (4096 - 8, WIDTH * 2)],
        ids=["unaligned-start", "unaligned-stride", "past-the-end"],
    )
    def test_run_without_a_view_is_gathered(self, base, stride):
        stream, mem, addrs = make_stream(Direction.LOAD, base, 2, stride)
        if base + stride + WIDTH <= mem.size:
            stream.read_vector()
        else:
            with pytest.raises(MemoryAccessError):
                stream.read_vector()
        assert mem.paths == ["gather"]

    def test_value_narrower_than_the_chunk_fails_as_a_scatter(self):
        stream, mem, addrs = make_stream(Direction.STORE, 64, LANES, 2 * WIDTH)
        with pytest.raises(ValueError) as want:
            Memory(mem.size).write_scatter(
                np.array(addrs), np.ones(2, dtype=np.float32), F32
            )
        with pytest.raises(ValueError) as got:
            stream.write_vector(full_value([1.0, 2.0]))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("stride", [WIDTH, 0, -WIDTH, 3 * WIDTH])
    def test_single_element_run_is_one_block(self, stride):
        stream, mem, _ = make_stream(Direction.LOAD, 128, 1, stride, lanes=1)
        fill(mem, [128], [9.0])
        value, _ = stream.read_vector()
        assert value.data.tolist() == [9.0]
        assert value.valid.tolist() == [True]
        assert mem.paths == ["block"]

    def test_single_element_tail_of_a_strided_run_is_a_view_slice(self):
        stream, mem, addrs = make_stream(
            Direction.LOAD, 64, LANES + 1, 2 * WIDTH
        )
        fill(mem, addrs, [float(i) for i in range(LANES + 1)])
        stream.read_vector()
        value, _ = stream.read_vector()
        assert value.data.tolist() == [4.0, 0.0, 0.0, 0.0]
        assert value.valid.tolist() == [True, False, False, False]
        assert mem.paths == ["strided"]


#: ``(start, stride)`` of six-element runs over a 256-byte image:
#: positive, negative and zero strides, unaligned starts and strides, and
#: runs that start below 0 or end past the image (at their first or
#: second chunk).
STRIDED_RUNS = {
    "positive": (8, 3 * WIDTH),
    "negative": (200, -2 * WIDTH),
    "negative-to-zero": (5 * 2 * WIDTH, -2 * WIDTH),
    "zero": (64, 0),
    "unaligned-start": (9, 2 * WIDTH),
    "unaligned-stride": (8, 6),
    "unaligned-negative": (203, -5),
    "below-zero": (-8, 2 * WIDTH),
    "falls-below-zero": (3 * WIDTH, -2 * WIDTH),
    "past-the-end": (256 - 2 * WIDTH, 2 * WIDTH),
    "runs-past-the-end": (256 - 5 * 3 * WIDTH, 3 * WIDTH),
    "unaligned-past-the-end": (256 - 6, 3),
}
COUNT, IMAGE = 6, 256


def chunks_by_gather(direction, start, stride):
    """What reading or writing the run chunk by chunk through
    ``read_gather``/``write_scatter`` gives: per chunk the bytes it read
    or the error text, and the image after each chunk."""
    mem = Memory(IMAGE)
    mem.data[:] = np.arange(IMAGE, dtype=np.uint8)
    addrs = np.array([start + i * stride for i in range(COUNT)])
    steps = []
    for first in range(0, COUNT, LANES):
        chunk = addrs[first : first + LANES]
        try:
            if direction is Direction.LOAD:
                got = mem.read_gather(chunk, F32).tobytes()
            else:
                mem.write_scatter(chunk, chunk_values(first, len(chunk)), F32)
                got = None
        except MemoryAccessError as exc:
            steps.append((str(exc), mem.data.tobytes()))
            break
        steps.append((got, mem.data.tobytes()))
    return steps


def chunks_by_stream(direction, start, stride):
    stream, mem, _ = make_stream(direction, start, COUNT, stride, size=IMAGE)
    mem.data[:] = np.arange(IMAGE, dtype=np.uint8)
    steps = []
    for first in range(0, COUNT, LANES):
        count = min(LANES, COUNT - first)
        try:
            if direction is Direction.LOAD:
                got = stream.read_vector()[0].data[:count].tobytes()
            else:
                values = np.zeros(LANES, dtype=np.float32)
                values[:count] = chunk_values(first, count)
                stream.write_vector(full_value(values))
                got = None
        except MemoryAccessError as exc:
            steps.append((str(exc), mem.data.tobytes()))
            break
        steps.append((got, mem.data.tobytes()))
    return steps, mem.paths


def chunk_values(first, count):
    return np.arange(first, first + count, dtype=np.float32) * 1.5 - 2.0


class TestStridedViewMatchesGather:
    @pytest.mark.parametrize("direction", [Direction.LOAD, Direction.STORE])
    @pytest.mark.parametrize("name", sorted(STRIDED_RUNS))
    def test_same_values_errors_and_image(self, name, direction):
        start, stride = STRIDED_RUNS[name]
        want = chunks_by_gather(direction, start, stride)
        got, paths = chunks_by_stream(direction, start, stride)
        assert got == want
        aligned = start % WIDTH == 0 and stride % WIDTH == 0
        last = start + (COUNT - 1) * stride
        inside = min(start, last) >= 0 and max(start, last) + WIDTH <= IMAGE
        assert (paths == ["strided"]) == (aligned and inside and stride != 0)


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
