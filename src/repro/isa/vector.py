"""Vector register values.

A :class:`VecValue` is the architectural content of one vector register:
a lane array (NumPy, typed by the element type) plus a per-lane validity
mask.  Invalid lanes exist because of predication and because streams pad
partial tails (paper feature F5); they read as zero and are never stored.

A value's arrays are never written in place: an instruction builds new
arrays for its result.  That lets values share arrays, such as the one
read-only all-valid mask per lane count that :func:`all_valid` returns.
"""
from __future__ import annotations

from typing import Dict, NamedTuple

import numpy as np

from repro.common.types import ElementType


class VecValue(NamedTuple):
    data: np.ndarray
    valid: np.ndarray

    @property
    def lanes(self) -> int:
        return len(self.data)

    @property
    def valid_count(self) -> int:
        return int(self.valid.sum())

    def active(self) -> np.ndarray:
        """Lane values where valid (compacted)."""
        return self.data[self.valid]


#: lane count -> the shared all-valid mask (see :func:`all_valid`)
ALL_VALID: Dict[int, np.ndarray] = {}


def all_valid(lanes: int) -> np.ndarray:
    """The shared all-true mask of ``lanes`` lanes.

    It is read-only, so an in-place write raises instead of changing
    every value that carries it.  A value whose ``valid`` *is* this
    array has every lane valid: consumers test that by identity."""
    mask = ALL_VALID.get(lanes)
    if mask is None:
        mask = np.ones(lanes, dtype=bool)
        mask.flags.writeable = False
        ALL_VALID[lanes] = mask
    return mask


def zeros(lanes: int, etype: ElementType) -> VecValue:
    """An all-invalid, all-zero vector value."""
    return VecValue(
        np.zeros(lanes, dtype=etype.dtype), np.zeros(lanes, dtype=bool)
    )


def full(lanes: int, etype: ElementType, value) -> VecValue:
    """A fully-valid broadcast value."""
    return VecValue(
        np.full(lanes, value, dtype=etype.dtype), np.ones(lanes, dtype=bool)
    )


def from_list(values, etype: ElementType, lanes: int) -> VecValue:
    """Pack ``values`` into the first lanes; the tail is invalid."""
    data = np.zeros(lanes, dtype=etype.dtype)
    valid = np.zeros(lanes, dtype=bool)
    n = len(values)
    data[:n] = values
    valid[:n] = True
    return VecValue(data, valid)
