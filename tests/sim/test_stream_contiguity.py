"""Regression tests for the stream contiguity fast path and the
scalar/vector interleave contract of `_RuntimeStream`.

The fast path dispatches a chunk to ``read_block``/``write_block`` only
when the *entire* address vector steps by exactly one element width.
The historical bug checked just the endpoints, so a permuted interior
(e.g. ``[b, b+8, b+4, b+12]`` — endpoints 3 widths apart) silently read
and wrote the wrong bytes.  These tests inject crafted runs directly
into the stream's run iterator so the exact address vectors are under
test control.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from repro.common.types import ElementType
from repro.errors import StreamError
from repro.isa.vector import VecValue
from repro.memory.backing import Memory
from repro.sim.functional import _RuntimeStream
from repro.sim.trace import StreamTraceInfo
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


def make_stream(direction, addrs, lanes=LANES):
    """A 1-D stream whose next run is exactly ``addrs`` (byte addresses)."""
    mem = Memory(1 << 12)
    pattern = StreamPattern(
        levels=[Level(Descriptor(0, len(addrs), 1))],
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
    run = SimpleNamespace(
        addresses=np.asarray(addrs, dtype=np.int64), dims_ended=0
    )
    stream._runs = iter([run])
    return stream, mem


def fill(mem, addrs, values):
    for addr, value in zip(addrs, values):
        mem.write_scalar(addr, value, F32)


class TestContiguityFastPath:
    def test_permuted_interior_read_is_gathered(self):
        # Endpoints are exactly (count-1) widths apart, but the interior
        # is permuted: an endpoint-only contiguity check takes the block
        # path here and returns the elements in address order instead of
        # stream order.
        addrs = [64, 64 + 2 * WIDTH, 64 + WIDTH, 64 + 3 * WIDTH]
        stream, mem = make_stream(Direction.LOAD, addrs)
        fill(mem, sorted(addrs), [1.0, 2.0, 3.0, 4.0])
        value, _ = stream.read_vector()
        np.testing.assert_array_equal(
            value.data, np.array([1.0, 3.0, 2.0, 4.0], dtype=np.float32)
        )
        assert value.valid.all()

    def test_permuted_interior_write_is_scattered(self):
        addrs = [64, 64 + 2 * WIDTH, 64 + WIDTH, 64 + 3 * WIDTH]
        stream, mem = make_stream(Direction.STORE, addrs)
        data = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        stream.write_vector(VecValue(data, np.ones(LANES, dtype=bool)))
        got = [mem.read_scalar(a, F32) for a in sorted(addrs)]
        # Stream element i lands at addrs[i]: address order is 1, 3, 2, 4.
        assert got == [1.0, 3.0, 2.0, 4.0]

    def test_reversed_chunk_is_not_contiguous(self):
        # Descending addresses: first-minus-last endpoint arithmetic can
        # look contiguous under a sign error; the full check cannot.
        addrs = [64 + 3 * WIDTH, 64 + 2 * WIDTH, 64 + WIDTH, 64]
        stream, mem = make_stream(Direction.LOAD, addrs)
        fill(mem, sorted(addrs), [1.0, 2.0, 3.0, 4.0])
        value, _ = stream.read_vector()
        np.testing.assert_array_equal(
            value.data, np.array([4.0, 3.0, 2.0, 1.0], dtype=np.float32)
        )

    def test_contiguous_chunk_reads_block(self):
        addrs = [64 + i * WIDTH for i in range(LANES)]
        stream, mem = make_stream(Direction.LOAD, addrs)
        fill(mem, addrs, [5.0, 6.0, 7.0, 8.0])
        value, _ = stream.read_vector()
        np.testing.assert_array_equal(
            value.data, np.array([5.0, 6.0, 7.0, 8.0], dtype=np.float32)
        )

    def test_contiguous_chunk_writes_block(self):
        addrs = [64 + i * WIDTH for i in range(LANES)]
        stream, mem = make_stream(Direction.STORE, addrs)
        data = np.array([5.0, 6.0, 7.0, 8.0], dtype=np.float32)
        stream.write_vector(VecValue(data, np.ones(LANES, dtype=bool)))
        assert [mem.read_scalar(a, F32) for a in addrs] == [5.0, 6.0, 7.0, 8.0]

    def test_duplicate_write_addresses_last_wins(self):
        # Two stream elements target the same address; the scalar
        # reference applies them in order, so the last one must win.
        addrs = [64, 64 + WIDTH, 64 + WIDTH, 64 + 2 * WIDTH]
        stream, mem = make_stream(Direction.STORE, addrs)
        data = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        stream.write_vector(VecValue(data, np.ones(LANES, dtype=bool)))
        assert mem.read_scalar(64 + WIDTH, F32) == 3.0

    def test_single_element_chunk(self):
        stream, mem = make_stream(Direction.LOAD, [128], lanes=1)
        fill(mem, [128], [9.0])
        value, _ = stream.read_vector()
        assert value.data[0] == 9.0
        assert value.valid[0]

    def test_strided_chunk_reads_written_values(self):
        # Evenly spaced but not contiguous: gathered, in stream order.
        addrs = [64 + i * 3 * WIDTH for i in range(LANES)]
        values = [1.5, -2.0, 0.25, 7.0]
        stream, mem = make_stream(Direction.LOAD, addrs)
        fill(mem, addrs, values)
        value, _ = stream.read_vector()
        np.testing.assert_array_equal(
            value.data, np.array(values, dtype=np.float32)
        )
        assert value.valid.all()


class TestScalarVectorInterleave:
    """A vector access must not land mid-chunk: partial scalar
    consumption leaves an open chunk that only further scalar accesses
    (or the chunk boundary) may close."""

    def _load_stream(self, n=8):
        addrs = [64 + i * WIDTH for i in range(n)]
        stream, mem = make_stream(Direction.LOAD, addrs)
        fill(mem, addrs, [float(i) for i in range(n)])
        return stream

    def _store_stream(self, n=8):
        addrs = [64 + i * WIDTH for i in range(n)]
        stream, _ = make_stream(Direction.STORE, addrs)
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
