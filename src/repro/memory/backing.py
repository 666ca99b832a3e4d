"""Flat byte-addressable backing memory with a bump allocator.

This is the *functional* memory shared by all simulators; timing is
modelled separately by :mod:`repro.memory.hierarchy`.  Arrays are placed
with :meth:`Memory.alloc_array` and can be viewed back zero-copy with
:meth:`Memory.ndarray` for result verification.
"""
from __future__ import annotations

import mmap
from typing import Callable, Optional, Tuple

import numpy as np

from repro.common.types import CACHE_LINE_BYTES, ElementType
from repro.errors import MemoryAccessError


#: images at least this large are mapped on demand (see :func:`_zeroed`)
MAPPED_IMAGE_BYTES = 1 << 20


def _zeroed(size: int) -> np.ndarray:
    """``size`` zero bytes.  A large image is an anonymous mapping, whose
    pages the operating system supplies zeroed when first touched:
    taking it from the heap instead makes ``calloc`` clear every byte up
    front, whether the run touches it or not.  Small images stay on the
    heap, where reuse is cheaper than a fresh mapping."""
    if size >= MAPPED_IMAGE_BYTES:
        return np.frombuffer(mmap.mmap(-1, size), dtype=np.uint8)
    return np.zeros(size, dtype=np.uint8)


class Memory:
    """A contiguous simulated physical memory."""

    def __init__(self, size: int = 64 * 1024 * 1024) -> None:
        self.size = size
        self.data = _zeroed(size)
        self._brk = CACHE_LINE_BYTES  # keep address 0 unused
        self._views = {}  # per-dtype full-memory views (aligned fast path)
        # Per-type scalar accessors.  They capture the byte array and the
        # typed view, never the Memory, so holding them forms no cycle.
        self._readers = {}
        self._writers = {}

    def _view(self, etype: ElementType) -> np.ndarray:
        view = self._views.get(etype)
        if view is None:
            usable = self.size - self.size % etype.width
            view = self.data[:usable].view(etype.dtype)
            self._views[etype] = view
        return view

    # -- Typed scalar access ------------------------------------------------

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise _outside(addr, nbytes, self.size)

    def scalar_reader(self, etype: ElementType) -> Callable[[int], object]:
        """``read(addr)``: one ``etype`` element as a Python int or float."""
        read = self._readers.get(etype)
        if read is None:
            read = self._readers[etype] = _scalar_reader(
                self.data, self._view(etype), etype
            )
        return read

    def scalar_writer(self, etype: ElementType) -> Callable[[int, object], None]:
        """``write(addr, value)``: store one ``etype`` element."""
        write = self._writers.get(etype)
        if write is None:
            write = self._writers[etype] = _scalar_writer(
                self.data, self._view(etype), etype
            )
        return write

    def read_scalar(self, addr: int, etype: ElementType):
        """Read one element; returns a Python int or float."""
        return self.scalar_reader(etype)(addr)

    def write_scalar(self, addr: int, value, etype: ElementType) -> None:
        self.scalar_writer(etype)(addr, value)

    # -- Vector (gather/scatter) access ---------------------------------------

    def _check_vector(self, addrs: np.ndarray, width: int) -> None:
        """Bounds-check a whole address vector.

        Raises the same :class:`MemoryAccessError` a sequential scalar loop
        would raise — for the *first* offending address in vector order.
        """
        bad = (addrs < 0) | (addrs + width > self.size)
        if bad.any():
            raise _outside(int(addrs[int(np.argmax(bad))]), width, self.size)

    def read_gather(self, addrs: np.ndarray, etype: ElementType) -> np.ndarray:
        """Read one element per address (fancy-indexed gather, copy)."""
        w = etype.width
        addrs = np.asarray(addrs, dtype=np.int64)
        self._check_vector(addrs, w)
        if not (addrs % w).any():  # aligned fast path through a typed view
            return self._view(etype)[addrs // w]
        # Unaligned fallback: gather a (n, w) byte matrix and reinterpret.
        rows = self.data[addrs[:, None] + np.arange(w)]
        return np.ascontiguousarray(rows).view(etype.dtype).reshape(-1)

    def write_scatter(self, addrs: np.ndarray, values: np.ndarray,
                      etype: ElementType) -> None:
        """Write one element per address (fancy-indexed scatter).

        Duplicate addresses resolve last-write-wins, matching a sequential
        scalar loop.  On an out-of-bounds address, the in-bounds *prefix*
        (in vector order) is written before the error is raised — again
        matching the partial effects of the sequential loop.
        """
        w = etype.width
        addrs = np.asarray(addrs, dtype=np.int64)
        values = np.asarray(values, dtype=etype.dtype)
        bad = (addrs < 0) | (addrs + w > self.size)
        if bad.any():
            k = int(np.argmax(bad))
            prefix = addrs[:k]
            if k:
                self.write_scatter(prefix, values[:k], etype)
            raise _outside(int(addrs[k]), w, self.size)
        if not (addrs % w).any():
            self._view(etype)[addrs // w] = values
            return
        rows = values.reshape(-1, 1).view(np.uint8)
        self.data[addrs[:, None] + np.arange(w)] = rows

    def strided(self, addr: int, count: int, stride: int,
                etype: ElementType) -> Optional[np.ndarray]:
        """The ``count`` elements at ``addr``, ``addr + stride``, ... as a
        strided slice of the typed view: reading the slice reads memory
        and writing it writes memory.  ``None`` when no slice stands for
        them: a zero stride, an address or stride that is not a multiple
        of the element width, or an element outside memory.  Those
        accesses go through :meth:`read_gather` and :meth:`write_scatter`,
        which raise at the first bad element (a scatter writes the
        elements before it) and resolve duplicates last-write-wins."""
        w = etype.width
        last = addr + (count - 1) * stride
        if (
            not stride or addr % w or stride % w
            or min(addr, last) < 0 or max(addr, last) + w > self.size
        ):
            return None
        first, step = addr // w, stride // w
        end = first + count * step  # below 0: a descending run to the start
        return self._view(etype)[first : end if end >= 0 else None : step]

    # -- Block access ---------------------------------------------------------

    def read_block(self, addr: int, count: int, etype: ElementType) -> np.ndarray:
        """Read ``count`` contiguous elements as a typed array (copy)."""
        w = etype.width
        nbytes = count * w
        self._check(addr, nbytes)
        if addr % w == 0:
            base = addr // w
            return self._view(etype)[base : base + count].copy()
        return self.data[addr : addr + nbytes].copy().view(etype.dtype)

    def write_block(self, addr: int, values: np.ndarray) -> None:
        nbytes = values.nbytes
        self._check(addr, nbytes)
        flat = np.ascontiguousarray(values).reshape(-1)
        self.data[addr : addr + nbytes] = flat.view(np.uint8)

    # -- Allocation -------------------------------------------------------------

    def alloc(self, nbytes: int, align: int = CACHE_LINE_BYTES) -> int:
        """Reserve ``nbytes`` and return the base address."""
        addr = (self._brk + align - 1) // align * align
        if addr + nbytes > self.size:
            raise MemoryAccessError(
                f"out of simulated memory allocating {nbytes} bytes"
            )
        self._brk = addr + nbytes
        return addr

    def alloc_array(self, values: np.ndarray, align: int = CACHE_LINE_BYTES) -> int:
        """Copy ``values`` into memory and return the base address."""
        flat = np.ascontiguousarray(values)
        addr = self.alloc(flat.nbytes, align)
        self.write_block(addr, flat)
        return addr

    def ndarray(self, addr: int, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Zero-copy typed view of memory at ``addr`` (for verification)."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        self._check(addr, nbytes)
        return self.data[addr : addr + nbytes].view(dtype).reshape(shape)


def _outside(addr: int, nbytes: int, size: int) -> MemoryAccessError:
    return MemoryAccessError(
        f"access [{addr}, {addr + nbytes}) outside memory of size {size}"
    )


def _scalar_reader(data: np.ndarray, view: np.ndarray, etype: ElementType):
    width, dtype, size = etype.width, etype.dtype, len(data)
    convert = float if etype.is_float else int

    def read(addr: int):
        if addr < 0 or addr + width > size:
            raise _outside(addr, width, size)
        if addr % width:
            return convert(data[addr : addr + width].copy().view(dtype)[0])
        return convert(view[addr // width])  # aligned: through the typed view

    return read


def _scalar_writer(data: np.ndarray, view: np.ndarray, etype: ElementType):
    width, dtype, size = etype.width, etype.dtype, len(data)

    def write(addr: int, value) -> None:
        if addr < 0 or addr + width > size:
            raise _outside(addr, width, size)
        if addr % width:
            data[addr : addr + width] = np.asarray([value], dtype=dtype).view(
                np.uint8
            )
        else:
            view[addr // width] = value

    return write
