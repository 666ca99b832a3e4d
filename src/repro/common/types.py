"""Elementary data types shared across the ISA, streams, and simulators.

UVE supports four elementary widths (byte, half-word, word, double-word),
each in integer, unsigned, and (for 32/64-bit) floating-point flavours.
The vector length is a run-time property of the machine configuration; the
minimum is one element and the maximum is only bounded by the configuration
(the paper evaluates 512-bit vectors).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ElementType(enum.Enum):
    """Element type of a vector register or stream."""

    I8 = ("b", 1, np.int8)
    I16 = ("h", 2, np.int16)
    I32 = ("w", 4, np.int32)
    I64 = ("d", 8, np.int64)
    U8 = ("bu", 1, np.uint8)
    U16 = ("hu", 2, np.uint16)
    U32 = ("wu", 4, np.uint32)
    U64 = ("du", 8, np.uint64)
    F32 = ("fw", 4, np.float32)
    F64 = ("fd", 8, np.float64)

    # Members are singletons compared by identity, so the identity hash
    # is exact; Enum.__hash__ runs in Python on every dict lookup.
    __hash__ = object.__hash__

    def __init__(self, suffix: str, width: int, dtype) -> None:
        self.suffix = suffix
        self.width = width
        self.dtype = np.dtype(dtype)

    @property
    def is_float(self) -> bool:
        return self in (ElementType.F32, ElementType.F64)

    @property
    def is_signed(self) -> bool:
        return self in (
            ElementType.I8,
            ElementType.I16,
            ElementType.I32,
            ElementType.I64,
            ElementType.F32,
            ElementType.F64,
        )

    @classmethod
    def from_suffix(cls, suffix: str) -> "ElementType":
        for member in cls:
            if member.suffix == suffix:
                return member
        raise ValueError(f"unknown element-type suffix {suffix!r}")


#: Width of a cache line in bytes; also one 512-bit vector register.
CACHE_LINE_BYTES = 64

#: Default vector length in bits (as evaluated in the paper).
DEFAULT_VECTOR_BITS = 512

#: Page size used by the TLB model.
PAGE_BYTES = 4096


@dataclass(frozen=True)
class VectorShape:
    """Vector geometry: register width in bits and the element type."""

    bits: int = DEFAULT_VECTOR_BITS
    etype: ElementType = ElementType.F32

    def __post_init__(self) -> None:
        if self.bits % (self.etype.width * 8) != 0:
            raise ValueError(
                f"vector width {self.bits} is not a multiple of the "
                f"{self.etype.name} element width"
            )

    @property
    def lanes(self) -> int:
        """Number of elements held by one register of this shape."""
        return self.bits // (self.etype.width * 8)

    @property
    def bytes(self) -> int:
        return self.bits // 8


def lanes_for(bits: int, etype: ElementType) -> int:
    """Number of lanes a ``bits``-wide register offers for ``etype``."""
    return bits // (etype.width * 8)
