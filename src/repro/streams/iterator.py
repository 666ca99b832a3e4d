"""Functional iteration of stream patterns.

:class:`StreamIterator` expands a :class:`~repro.streams.pattern.StreamPattern`
into the exact byte-address sequence it describes, tagging each element with
the dimensions that complete at it (the information behind UVE's
end-of-dimension and end-of-stream branches).  :class:`VectorChunker` groups
elements into vector-register-sized chunks that never cross a dimension-0
boundary — the automatic tail padding of the paper's feature F5.

Iteration is lazy: indirect patterns pull origin-stream values through a
caller-supplied ``read_element(byte_address, etype) -> int`` callback, so
the same code serves the functional simulator and the Streaming Engine.
"""
from __future__ import annotations

from typing import Callable, Iterator, List, NamedTuple, Optional

import numpy as np

from repro.errors import DescriptorError, StreamError
from repro.streams.descriptor import (
    Descriptor,
    IndirectModifier,
    Param,
    StaticModifier,
)
from repro.streams.pattern import StreamPattern

ReadElement = Callable[[int, "object"], int]


class StreamElement(NamedTuple):
    """One generated access.

    ``address`` is the byte address.  ``dims_ended`` is ``-1`` for an
    element in the middle of dimension 0, otherwise the highest dimension
    *k* such that dimensions 0..k all complete with this element
    (``ndims - 1`` therefore marks the end of the whole stream).
    """

    address: int
    dims_ended: int


class _WorkingDescriptor:
    """Mutable copy of a descriptor's parameters during iteration."""

    __slots__ = ("offset", "size", "stride", "base")

    def __init__(self, descriptor: Descriptor) -> None:
        self.base = descriptor
        self.reset()

    def reset(self) -> None:
        self.offset = self.base.offset
        self.size = self.base.size
        self.stride = self.base.stride

    def get(self, param: Param) -> int:
        return getattr(self, param.value)

    def set(self, param: Param, value: int) -> None:
        setattr(self, param.value, value)

    def configured(self, param: Param) -> int:
        return getattr(self.base, param.value)


class StreamIterator:
    """Lazily generates the address sequence of a stream pattern."""

    def __init__(
        self,
        pattern: StreamPattern,
        read_element: Optional[ReadElement] = None,
    ) -> None:
        self._pattern = pattern
        self._read_element = read_element
        if pattern.has_indirection and read_element is None:
            raise DescriptorError(
                "indirect patterns require a read_element callback"
            )

    def __iter__(self) -> Iterator[StreamElement]:
        return self._generate(self._pattern)

    def _generate(self, pattern: StreamPattern) -> Iterator[StreamElement]:
        working = [
            _WorkingDescriptor(lvl.descriptor) if lvl.descriptor else None
            for lvl in pattern.levels
        ]
        width = pattern.etype.width
        top = pattern.ndims - 1
        for address, ended in self._gen_level(pattern, working, top, 0):
            yield StreamElement(address * width, ended)

    def _gen_level(
        self,
        pattern: StreamPattern,
        working: List[Optional[_WorkingDescriptor]],
        level_idx: int,
        displacement: int,
    ) -> Iterator:
        level = pattern.levels[level_idx]
        if level_idx == 0:
            desc = working[0]
            assert desc is not None
            count = desc.size
            offset, stride = desc.offset, desc.stride
            for i in range(count):
                ended = 0 if i == count - 1 else -1
                yield displacement + offset + i * stride, ended
            return

        lower = working[level_idx - 1]
        if lower is not None:
            lower.reset()
        app_counts = [0] * len(level.modifiers)
        origin_iters = [
            self._origin_values(mod)
            if isinstance(mod, IndirectModifier)
            else None
            for mod in level.modifiers
        ]
        desc = working[level_idx]

        if desc is None:
            # Lone indirect modifier: the origin stream drives the trip count.
            mod = level.modifiers[0]
            assert isinstance(mod, IndirectModifier)
            values = list(origin_iters[0])
            count = len(values)
            for i, value in enumerate(values):
                self._apply_indirect(mod, lower, value)
                yield from self._promote(
                    self._gen_level(pattern, working, level_idx - 1, displacement),
                    level_idx,
                    i == count - 1,
                )
            return

        count = desc.size
        offset, stride = desc.offset, desc.stride
        for i in range(count):
            for m, mod in enumerate(level.modifiers):
                if isinstance(mod, StaticModifier):
                    if app_counts[m] < mod.count:
                        current = lower.get(mod.target)
                        lower.set(mod.target, mod.apply(current, app_counts[m]))
                        app_counts[m] += 1
                else:
                    try:
                        value = next(origin_iters[m])
                    except StopIteration:
                        raise StreamError(
                            "indirect origin stream exhausted before the "
                            "dependent stream completed"
                        ) from None
                    self._apply_indirect(mod, lower, value)
            yield from self._promote(
                self._gen_level(
                    pattern, working, level_idx - 1, displacement + offset + i * stride
                ),
                level_idx,
                i == count - 1,
            )

    @staticmethod
    def _promote(inner: Iterator, level_idx: int, last: bool) -> Iterator:
        """Lift end-of-dimension flags across this level's last iteration."""
        for address, ended in inner:
            if last and ended == level_idx - 1:
                yield address, level_idx
            else:
                yield address, ended

    @staticmethod
    def _apply_indirect(
        mod: IndirectModifier, lower: Optional[_WorkingDescriptor], value: int
    ) -> None:
        if lower is None:
            raise DescriptorError("indirect modifier has no lower descriptor")
        lower.set(mod.target, mod.apply(lower.configured(mod.target), value))

    def _origin_values(self, mod: IndirectModifier) -> Iterator[int]:
        origin = mod.origin
        assert isinstance(origin, StreamPattern)
        reader = self._read_element
        assert reader is not None
        for element in StreamIterator(origin, reader):
            yield int(reader(element.address, origin.etype))

    # -- Convenience -------------------------------------------------------

    def materialize(self, limit: int = 1_000_000) -> List[StreamElement]:
        """Expand the whole pattern into a list (test/debug helper)."""
        out: List[StreamElement] = []
        for element in self:
            out.append(element)
            if len(out) > limit:
                raise StreamError(f"pattern expanded past {limit} elements")
        return out

    def addresses(self, limit: int = 1_000_000) -> List[int]:
        """Byte addresses of the whole pattern (test/debug helper)."""
        return [e.address for e in self.materialize(limit)]


class StreamRun(NamedTuple):
    """One dimension-0 instance of a pattern as a NumPy address vector.

    ``addresses`` are the byte addresses of every element of the
    instance, in iteration order (always non-empty; empty instances are
    skipped, exactly as :class:`StreamIterator` yields no element for
    them).  ``dims_ended`` is the flag of the run's *last* element; every
    earlier element of the run carries ``-1``, so runs are a lossless
    regrouping of the element sequence.
    """

    addresses: np.ndarray
    dims_ended: int


class RunIterator:
    """Dimension-0-granular (vectorized) expansion of a stream pattern.

    Yields the exact element sequence of :class:`StreamIterator`, but one
    whole dimension-0 instance at a time as a NumPy vector: outer
    dimensions, modifiers, and indirection still iterate in Python (their
    trip counts are the small factors), while the innermost dimension —
    the bulk of every pattern — is materialised with one ``arange``.

    Side-effect order is preserved: indirect origin values are pulled
    through ``read_element`` lazily, one value per iteration of the
    binding dimension, *before* the dependent run is yielded — the same
    positions at which :class:`StreamIterator` pulls them.  The functional
    simulator attributes origin reads to chunks by that order, so it is
    part of the contract ``tests/streams/test_run_iterator.py`` checks.
    """

    def __init__(
        self,
        pattern: StreamPattern,
        read_element: Optional[ReadElement] = None,
    ) -> None:
        self._pattern = pattern
        self._read_element = read_element
        if pattern.has_indirection and read_element is None:
            raise DescriptorError(
                "indirect patterns require a read_element callback"
            )

    def __iter__(self) -> Iterator[StreamRun]:
        return self._generate(self._pattern)

    def _generate(self, pattern: StreamPattern) -> Iterator[StreamRun]:
        working = [
            _WorkingDescriptor(lvl.descriptor) if lvl.descriptor else None
            for lvl in pattern.levels
        ]
        width = pattern.etype.width
        top = pattern.ndims - 1
        for addresses, ended in self._gen_level(pattern, working, top, 0):
            yield StreamRun(addresses * width, ended)

    def _gen_level(
        self,
        pattern: StreamPattern,
        working: List[Optional[_WorkingDescriptor]],
        level_idx: int,
        displacement: int,
    ) -> Iterator:
        level = pattern.levels[level_idx]
        if level_idx == 0:
            desc = working[0]
            assert desc is not None
            count = desc.size
            # An empty instance (a modifier may even drive the size below
            # zero) yields no run, as StreamIterator yields no element.
            if count > 0:
                base = displacement + desc.offset
                yield (
                    base + np.arange(count, dtype=np.int64) * desc.stride,
                    0,
                )
            return

        lower = working[level_idx - 1]
        if lower is not None:
            lower.reset()
        app_counts = [0] * len(level.modifiers)
        origin_iters = [
            self._origin_values(mod)
            if isinstance(mod, IndirectModifier)
            else None
            for mod in level.modifiers
        ]
        desc = working[level_idx]

        if desc is None:
            # Lone indirect modifier: the origin stream drives the trip count.
            mod = level.modifiers[0]
            assert isinstance(mod, IndirectModifier)
            values = list(origin_iters[0])
            count = len(values)
            for i, value in enumerate(values):
                StreamIterator._apply_indirect(mod, lower, value)
                yield from self._promote(
                    self._gen_level(pattern, working, level_idx - 1, displacement),
                    level_idx,
                    i == count - 1,
                )
            return

        count = desc.size
        offset, stride = desc.offset, desc.stride
        for i in range(count):
            for m, mod in enumerate(level.modifiers):
                if isinstance(mod, StaticModifier):
                    if app_counts[m] < mod.count:
                        current = lower.get(mod.target)
                        lower.set(mod.target, mod.apply(current, app_counts[m]))
                        app_counts[m] += 1
                else:
                    try:
                        value = next(origin_iters[m])
                    except StopIteration:
                        raise StreamError(
                            "indirect origin stream exhausted before the "
                            "dependent stream completed"
                        ) from None
                    StreamIterator._apply_indirect(mod, lower, value)
            yield from self._promote(
                self._gen_level(
                    pattern, working, level_idx - 1, displacement + offset + i * stride
                ),
                level_idx,
                i == count - 1,
            )

    @staticmethod
    def _promote(inner: Iterator, level_idx: int, last: bool) -> Iterator:
        """Lift end-of-dimension flags across this level's last iteration."""
        for addresses, ended in inner:
            if last and ended == level_idx - 1:
                yield addresses, level_idx
            else:
                yield addresses, ended

    def _origin_values(self, mod: IndirectModifier) -> Iterator[int]:
        """Origin-stream values, pulled (and recorded by ``read_element``)
        one at a time — element-granular on purpose, so origin reads are
        attributed to chunks exactly as :class:`StreamIterator` orders
        them."""
        origin = mod.origin
        assert isinstance(origin, StreamPattern)
        reader = self._read_element
        assert reader is not None
        for element in StreamIterator(origin, reader):
            yield int(reader(element.address, origin.etype))


class StreamChunk(NamedTuple):
    """A vector-register-sized group of consecutive stream elements.

    ``addresses`` holds at most ``lanes`` byte addresses; lanes beyond
    ``len(addresses)`` are padding (disabled, as by a false predicate).
    ``dims_ended`` is the flag of the chunk's final element.
    """

    addresses: List[int]
    dims_ended: int


class VectorChunker:
    """Groups stream elements into vector-sized chunks.

    A chunk closes when it holds ``lanes`` elements or when a dimension-0
    boundary is reached, implementing the automatic padding of streams to
    the vector length (feature F5): computation never sees elements from
    two different innermost-dimension instances in one register.
    """

    def __init__(self, iterator: Iterator[StreamElement], lanes: int) -> None:
        if lanes < 1:
            raise DescriptorError(f"lanes must be >= 1, got {lanes}")
        self._iter = iter(iterator)
        self._lanes = lanes

    def __iter__(self) -> Iterator[StreamChunk]:
        addresses: List[int] = []
        for element in self._iter:
            addresses.append(element.address)
            if element.dims_ended >= 0 or len(addresses) == self._lanes:
                yield StreamChunk(addresses, element.dims_ended)
                addresses = []
        if addresses:  # pattern ended mid-dimension (defensive; cannot happen)
            yield StreamChunk(addresses, -1)
