"""Memory images: large ones mapped on demand, small ones on the heap.

An image of at least ``MAPPED_IMAGE_BYTES`` is an anonymous mapping
whose pages are zeroed when first touched; a smaller one (the fuzz
oracle's 64 KiB images) is a zeroed heap array.  Both must behave
identically.
"""
import numpy as np
import pytest

from repro.common.types import ElementType
from repro.fuzz.oracle import clone_memory
from repro.memory.backing import MAPPED_IMAGE_BYTES, Memory

SIZES = (64 * 1024, MAPPED_IMAGE_BYTES, 8 * 1024 * 1024)


def test_large_images_are_mapped_and_small_ones_are_not():
    assert not Memory(MAPPED_IMAGE_BYTES).data.flags.owndata
    assert not Memory(8 * 1024 * 1024).data.flags.owndata
    assert Memory(MAPPED_IMAGE_BYTES - 1).data.flags.owndata
    assert Memory(64 * 1024).data.flags.owndata


@pytest.mark.parametrize("size", SIZES)
def test_a_fresh_image_reads_as_zeros(size):
    mem = Memory(size)
    assert mem.data.flags.writeable
    assert len(mem.data) == size
    assert not mem.data.any()
    for etype in ElementType:
        assert mem.read_scalar(size - etype.width, etype) == 0
        assert not mem.read_block(64, 16, etype).any()


@pytest.mark.parametrize("size", SIZES)
def test_typed_reads_and_writes_round_trip(size):
    mem = Memory(size)
    top = size - 256
    for etype in (ElementType.I8, ElementType.I32, ElementType.F32,
                  ElementType.F64):
        for addr in (64, 67, top):  # aligned, unaligned, at the top
            mem.write_scalar(addr, 5, etype)
            assert mem.read_scalar(addr, etype) == 5
        values = (np.arange(8) + 1).astype(etype.dtype)
        mem.write_block(128, values)
        assert mem.read_block(128, 8, etype).tolist() == values.tolist()
        addrs = np.array([512, 1024, top - 64]) // etype.width * etype.width
        mem.write_scatter(addrs, values[:3], etype)
        assert mem.read_gather(addrs, etype).tolist() == values[:3].tolist()
    addr = mem.alloc_array(np.arange(100, dtype=np.float32))
    assert mem.ndarray(addr, (100,), np.float32).tolist() == list(range(100))


@pytest.mark.parametrize("size", SIZES)
def test_clone_memory_copies_byte_for_byte(size):
    mem = Memory(size)
    rng = np.random.default_rng(size)
    mem.alloc_array(rng.integers(0, 255, 4096, dtype=np.uint8))
    mem.write_scalar(size - 8, -3, ElementType.I64)
    copy = clone_memory(mem)
    assert copy.size == mem.size and copy._brk == mem._brk
    assert np.array_equal(copy.data, mem.data)
    # The copy is independent of its original.
    before = mem.read_scalar(64, ElementType.I8)
    copy.write_scalar(64, 0 if before else 1, ElementType.I8)
    assert mem.read_scalar(64, ElementType.I8) == before
