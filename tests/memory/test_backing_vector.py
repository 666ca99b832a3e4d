"""Unit tests for the vectorized Memory access paths (gather/scatter/
block) against the scalar loop they replace: same values, same bounds
errors, same partial effects."""
import numpy as np
import pytest

from repro.common.types import ElementType
from repro.errors import MemoryAccessError
from repro.memory.backing import Memory

F32 = ElementType.F32
I64 = ElementType.I64


def scalar_gather(mem, addrs, etype):
    return np.array(
        [mem.read_scalar(a, etype) for a in addrs], dtype=etype.dtype
    )


class TestGather:
    def test_aligned_matches_scalar_loop(self):
        mem = Memory(1 << 12)
        addrs = np.array([64, 128, 64, 256, 72], dtype=np.int64)
        for i, a in enumerate(addrs):
            mem.write_scalar(int(a), float(i + 1), F32)
        np.testing.assert_array_equal(
            mem.read_gather(addrs, F32), scalar_gather(mem, addrs, F32)
        )

    def test_unaligned_matches_scalar_loop(self):
        mem = Memory(1 << 12)
        rng = np.random.default_rng(3)
        mem.data[:] = rng.integers(0, 256, size=mem.size, dtype=np.uint8)
        addrs = np.array([65, 130, 67, 258], dtype=np.int64)  # none % 4 == 0
        np.testing.assert_array_equal(
            mem.read_gather(addrs, F32), scalar_gather(mem, addrs, F32)
        )

    def test_mixed_alignment_matches_scalar_loop(self):
        mem = Memory(1 << 12)
        rng = np.random.default_rng(4)
        mem.data[:] = rng.integers(0, 256, size=mem.size, dtype=np.uint8)
        addrs = np.array([64, 65, 128, 131], dtype=np.int64)
        np.testing.assert_array_equal(
            mem.read_gather(addrs, F32), scalar_gather(mem, addrs, F32)
        )

    def test_out_of_bounds_raises_first_offender(self):
        mem = Memory(256)
        addrs = np.array([0, 64, 1024, 2048], dtype=np.int64)
        with pytest.raises(MemoryAccessError, match=r"\[1024, 1028\)"):
            mem.read_gather(addrs, F32)

    def test_negative_address_raises(self):
        mem = Memory(256)
        with pytest.raises(MemoryAccessError):
            mem.read_gather(np.array([-4], dtype=np.int64), F32)


class TestScatter:
    def test_aligned_matches_scalar_loop(self):
        addrs = np.array([64, 128, 72, 256], dtype=np.int64)
        values = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        vec, ref = Memory(1 << 12), Memory(1 << 12)
        vec.write_scatter(addrs, values, F32)
        for a, v in zip(addrs, values):
            ref.write_scalar(int(a), float(v), F32)
        np.testing.assert_array_equal(vec.data, ref.data)

    def test_unaligned_matches_scalar_loop(self):
        addrs = np.array([65, 130, 71], dtype=np.int64)
        values = np.array([1.5, -2.5, 3.25], dtype=np.float32)
        vec, ref = Memory(1 << 12), Memory(1 << 12)
        vec.write_scatter(addrs, values, F32)
        for a, v in zip(addrs, values):
            ref.write_scalar(int(a), float(v), F32)
        np.testing.assert_array_equal(vec.data, ref.data)

    def test_duplicate_addresses_last_write_wins(self):
        mem = Memory(1 << 12)
        addrs = np.array([64, 64, 64], dtype=np.int64)
        mem.write_scatter(
            addrs, np.array([1.0, 2.0, 3.0], dtype=np.float32), F32
        )
        assert mem.read_scalar(64, F32) == 3.0

    def test_out_of_bounds_writes_prefix_then_raises(self):
        # A sequential scalar loop writes elements 0..k-1 before element
        # k faults; the vector path must leave memory in the same state.
        mem = Memory(256)
        addrs = np.array([0, 4, 1024, 8], dtype=np.int64)
        values = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
        with pytest.raises(MemoryAccessError, match=r"\[1024, 1028\)"):
            mem.write_scatter(addrs, values, F32)
        assert mem.read_scalar(0, F32) == 1.0
        assert mem.read_scalar(4, F32) == 2.0
        # The element after the faulting one must NOT have been written.
        assert mem.read_scalar(8, F32) == 0.0

    def test_wide_element_type(self):
        mem = Memory(1 << 12)
        addrs = np.array([64, 80, 72], dtype=np.int64)
        values = np.array([1, -2, 1 << 40], dtype=np.int64)
        mem.write_scatter(addrs, values, I64)
        got = mem.read_gather(addrs, I64)
        np.testing.assert_array_equal(got, values)


class TestBlock:
    def test_roundtrip_aligned(self):
        mem = Memory(1 << 12)
        values = np.arange(16, dtype=np.float32)
        mem.write_block(256, values)
        np.testing.assert_array_equal(mem.read_block(256, 16, F32), values)

    def test_roundtrip_unaligned(self):
        mem = Memory(1 << 12)
        values = np.arange(8, dtype=np.float32)
        mem.write_block(258, values)
        np.testing.assert_array_equal(mem.read_block(258, 8, F32), values)

    def test_block_matches_gather_on_contiguous_addresses(self):
        mem = Memory(1 << 12)
        rng = np.random.default_rng(5)
        mem.data[:] = rng.integers(0, 256, size=mem.size, dtype=np.uint8)
        addrs = np.arange(64, 64 + 16 * 4, 4, dtype=np.int64)
        np.testing.assert_array_equal(
            mem.read_block(64, 16, F32), mem.read_gather(addrs, F32)
        )

    def test_out_of_bounds_block_raises(self):
        mem = Memory(256)
        with pytest.raises(MemoryAccessError):
            mem.read_block(200, 100, F32)
        with pytest.raises(MemoryAccessError):
            mem.write_block(250, np.ones(4, dtype=np.float32))


class TestStrided:
    @pytest.mark.parametrize(
        "addr, count, stride, etype",
        [
            (64, 5, 12, F32),
            (200, 6, -8, F32),
            (40, 6, -8, F32),  # ends at address 0
            (0, 4, 64, I64),
            (256 - 8, 1, 24, I64),  # ends at the last element
        ],
    )
    def test_view_matches_gather_and_writes_memory(
        self, addr, count, stride, etype
    ):
        mem = Memory(256)
        rng = np.random.default_rng(6)
        mem.data[:] = rng.integers(0, 256, size=mem.size, dtype=np.uint8)
        addrs = addr + np.arange(count, dtype=np.int64) * stride
        view = mem.strided(addr, count, stride, etype)
        assert len(view) == count
        np.testing.assert_array_equal(view, mem.read_gather(addrs, etype))
        values = np.arange(1, count + 1, dtype=etype.dtype)
        view[:] = values
        np.testing.assert_array_equal(mem.read_gather(addrs, etype), values)

    @pytest.mark.parametrize(
        "addr, stride",
        [(64, 0), (66, 8), (64, 6), (-8, 8), (240, 8), (8, -8)],
        ids=["zero", "unaligned", "unaligned-stride", "below-zero",
             "past-the-end", "falls-below-zero"],
    )
    def test_no_view_where_a_slice_cannot_stand_for_the_run(self, addr, stride):
        assert Memory(256).strided(addr, 3, stride, F32) is None
