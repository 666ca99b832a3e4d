"""Functional (architectural) simulator for all ISAs.

:class:`MachineState` realises the state protocol the instruction classes
execute against: scalar/vector/predicate register files, the byte memory,
the current vector length, and the *architectural* stream file (stream
configuration, consumption, production, control — paper §III).

:class:`FunctionalSimulator` drives a :class:`~repro.isa.program.Program`
over a state, producing the final memory contents (verified against NumPy
references by the test-suite) and a dynamic :class:`~repro.sim.trace.DynOp`
stream consumed by the timing model.
"""
from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.common.types import DEFAULT_VECTOR_BITS, ElementType, VectorShape
from repro.errors import ExecutionError, IsaError, StreamError
from repro.isa.microop import OpClass
from repro.isa.program import Program
from repro.isa.registers import Reg, RegClass
from repro.isa.vector import VecValue, all_valid, zeros
from repro.memory.backing import Memory
from repro.sim.trace import (
    Addresses,
    DynOp,
    StreamEvent,
    StreamTraceInfo,
    TraceSummary,
)
from repro.streams.descriptor import (
    Descriptor,
    IndirectBehavior,
    IndirectModifier,
    Param,
    StaticBehavior,
    StaticModifier,
)
from repro.streams.iterator import RunIterator
from repro.streams.limits import MAX_DIMENSIONS, MAX_MODIFIERS, MAX_STREAMS
from repro.streams.pattern import Direction, Level, MemLevel, StreamPattern

#: Lanes of the widest predicate granularity (one bit per byte of vector).
_MAX_PRED_LANES = 256


class _PendingConfig:
    """Accumulates a stream configuration across ss.sta/app/end."""

    def __init__(
        self, direction: Direction, etype: ElementType, mem_level: MemLevel
    ) -> None:
        self.direction = direction
        self.etype = etype
        self.mem_level = mem_level
        self.dims: List[Descriptor] = []
        self.mods: Dict[int, List] = {}
        self.lone_indirect: Dict[int, List] = {}

    @property
    def nlevels(self) -> int:
        return len(self.dims) + len(self.lone_indirect)

    @property
    def nmodifiers(self) -> int:
        return sum(len(mods) for mods in self.mods.values()) + sum(
            len(mods) for mods in self.lone_indirect.values()
        )

    def build(self) -> StreamPattern:
        levels: List[Level] = []
        for k, dim in enumerate(self.dims):
            levels.append(Level(dim, self.mods.get(k, [])))
            if k in self.lone_indirect:
                levels.append(Level(None, self.lone_indirect[k]))
        return StreamPattern(
            levels=levels,
            etype=self.etype,
            direction=self.direction,
            mem_level=self.mem_level,
        )


def hardware_stream_count(pattern: StreamPattern) -> int:
    """Streaming Engine slots the pattern occupies: itself plus every
    (transitively) attached indirect-origin stream, which stays resident
    in the engine even after its register is unbound."""
    count = 1
    for level in pattern.levels:
        for mod in level.modifiers:
            origin = getattr(mod, "origin", None)
            if origin is not None:
                count += hardware_stream_count(origin)
    return count


class _RuntimeStream:
    """The architectural state of one active stream.

    Address generation is run-granular: a
    :class:`~repro.streams.iterator.RunIterator` yields each dimension-0
    instance as ``(start, count, stride)``, and vector reads / writes
    take whole chunks of the buffered run by arithmetic (chunks never
    cross a dimension-0 boundary, so a chunk is always a slice of one
    run).  How a run is accessed is decided once, when it is fetched:
    every chunk of a contiguous run is one block access; every chunk of
    an aligned, in-bounds run with a nonzero stride is a slice of one
    strided view of memory (:meth:`~repro.memory.backing.Memory.strided`);
    every chunk of any other run a gather or scatter, which raises at the
    first bad element, writes the elements before it and resolves
    duplicate addresses last-write-wins.  A vector chunk is recorded as
    an address run (a ``range`` with the run's stride), and only a chunk
    of a zero-stride run, or one assembled by scalar accesses, as a list
    of its addresses.
    Scalar accesses and context restores step through the same buffered
    run, so every access follows one element order: the order
    :class:`~repro.streams.iterator.StreamIterator` defines.
    """

    def __init__(
        self,
        uid: int,
        reg: int,
        pattern: StreamPattern,
        lanes: int,
        memory: Memory,
        trace: StreamTraceInfo,
    ) -> None:
        self.uid = uid
        self.reg = reg
        self.pattern = pattern
        self.lanes = lanes
        self.mem = memory
        self.trace = trace
        self.origin_pending: List[int] = []
        # Facts fixed at configure.
        self.direction = pattern.direction
        self.etype = pattern.etype
        self._width = pattern.etype.width
        #: the ``dims_ended`` flag of the stream's last element
        self._last_dim = pattern.ndims - 1
        self._full = all_valid(lanes)

        def read_element(addr: int, etype: ElementType):
            self.origin_pending.append(addr)
            return memory.read_scalar(addr, etype)

        reader = read_element if pattern.has_indirection else None
        self._runs = iter(RunIterator(pattern, reader))
        self._run_start = 0
        self._run_len = 0
        self._run_pos = 0
        self._run_flags = -1
        self._run_stride = 0
        self._run_contiguous = False
        #: the run as a strided view of memory, or None (see the class)
        self._run_view: Optional[np.ndarray] = None
        self.last_flags = -1
        self.ended = False
        self.suspended = False
        self.stopped = False
        #: total elements consumed/produced (the committed iteration state
        #: saved on a context switch, §IV-A)
        self.elements_done = 0
        # Element-granular chunk assembly (shared by vector/scalar access).
        self._open_chunk: List[int] = []
        self._chunk_count = 0

    def skip_elements(self, count: int) -> None:
        """Fast-forward past already-committed elements (context restore).

        Prefetched data was lost on the switch, so iteration resumes from
        the saved commit point; skipped elements are not re-recorded."""
        remaining = count
        while remaining > 0:
            _, taken, self.last_flags = self._take(remaining)
            remaining -= taken
        self.elements_done = count
        self.ended = count > 0 and self.last_flags == self._last_dim

    def _take(self, limit: int) -> Tuple[int, int, int]:
        """Consume up to ``limit`` elements of the buffered dimension-0
        run, fetching the next run once this one is spent, and return
        ``(position, count, flags)``: the elements are the run's
        ``position``-th onwards, and ``flags`` is the run's flag if the
        run ends with them, else -1."""
        pos = self._run_pos
        if pos == self._run_len:
            try:
                start, count, stride, flags = next(self._runs)
            except StopIteration:
                raise StreamError(
                    f"stream u{self.reg} iterated past its end"
                ) from None
            self._run_start = start
            self._run_len = count
            self._run_flags = flags
            self._run_stride = stride
            contiguous = self._run_contiguous = (
                stride == self._width or count == 1
            )
            self._run_view = None if contiguous else self.mem.strided(
                start, count, stride, self.etype
            )
            pos = 0
        count = min(limit, self._run_len - pos)
        end = self._run_pos = pos + count
        flags = self._run_flags if end == self._run_len else -1
        return pos, count, flags

    def _run_chunk(self, pos: int, count: int) -> Addresses:
        """The addresses of the run's ``count`` elements from its
        ``pos``-th: a ``range`` with the run's stride, or a list when the
        stride is zero."""
        stride = self._run_stride
        start = self._run_start + pos * stride
        if stride:
            return range(start, start + count * stride, stride)
        return [start] * count

    def _close_chunk(self, addresses: Addresses) -> None:
        trace = self.trace
        trace.chunks.append(addresses)
        # A chunk without indirect origin reads shares the empty tuple.
        origin = self.origin_pending
        if origin:
            self.origin_pending = []
        trace.origin_reads.append(origin or ())
        trace.chunk_flags.append(self.last_flags)
        self._chunk_count += 1

    # -- Vector-granular access --------------------------------------------

    def read_vector(self) -> Tuple[VecValue, int]:
        """Consume one chunk (up to ``lanes`` elements, never crossing a
        dimension-0 boundary) and return its value and chunk id."""
        self._check_active("read")
        chunk_id = self._chunk_count
        if self._open_chunk:
            raise StreamError(
                f"stream u{self.reg}: vector read after partial scalar "
                "consumption of the current chunk"
            )
        lanes, etype = self.lanes, self.etype
        pos, count, flags = self._take(lanes)
        addrs = self._run_chunk(pos, count)
        if self._run_contiguous and count == lanes:
            # A full chunk of a contiguous run is one block read, and the
            # block is the value.
            data = self.mem.read_block(addrs[0], count, etype)
            valid = self._full
        else:
            data = np.zeros(lanes, dtype=etype.dtype)
            view = self._run_view
            if self._run_contiguous:
                data[:count] = self.mem.read_block(addrs[0], count, etype)
            elif view is not None:
                data[:count] = view[pos : pos + count]
            else:
                data[:count] = self.mem.read_gather(addrs, etype)
            valid = np.zeros(lanes, dtype=bool)
            valid[:count] = True
        self.last_flags = flags
        self._close_chunk(addrs)
        self.elements_done += count
        self.ended = flags == self._last_dim
        return VecValue(data, valid), chunk_id

    def write_vector(self, value: VecValue) -> int:
        """Produce one chunk of the output pattern from ``value``."""
        self._check_active("write")
        chunk_id = self._chunk_count
        if self._open_chunk:
            raise StreamError(
                f"stream u{self.reg}: vector write after partial scalar "
                "production of the current chunk"
            )
        pos, count, flags = self._take(self.lanes)
        addrs = self._run_chunk(pos, count)
        data, view = value.data[:count], self._run_view
        if self._run_contiguous:
            # The stream's element type, not the value's, sets the bytes
            # stored (no copy when they agree).
            self.mem.write_block(
                addrs[0], np.asarray(data, dtype=self.etype.dtype)
            )
        elif view is not None and len(data) == count:
            view[pos : pos + count] = np.asarray(data, dtype=self.etype.dtype)
        else:
            # Duplicate addresses resolve last-write-wins in element order,
            # and a value with fewer lanes than the chunk fails as a
            # scatter does.
            self.mem.write_scatter(addrs, data, self.etype)
        self.last_flags = flags
        self._close_chunk(addrs)
        self.elements_done += count
        self.ended = flags == self._last_dim
        return chunk_id

    # -- Element-granular (scalar) access ------------------------------------

    def read_scalar(self) -> Tuple[object, int]:
        self._check_active("read")
        chunk_id = self._chunk_count
        pos, _, flags = self._take(1)
        addr = self._run_start + pos * self._run_stride
        value = self.mem.read_scalar(addr, self.etype)
        self._open_chunk.append(addr)
        self.elements_done += 1
        self.last_flags = flags
        self.ended = flags == self._last_dim
        if flags >= 0 or len(self._open_chunk) == self.lanes:
            self._close_chunk(self._open_chunk)
            self._open_chunk = []
        return value, chunk_id

    def write_scalar(self, value) -> int:
        self._check_active("write")
        chunk_id = self._chunk_count
        pos, _, flags = self._take(1)
        addr = self._run_start + pos * self._run_stride
        self.mem.write_scalar(addr, value, self.etype)
        self._open_chunk.append(addr)
        self.elements_done += 1
        self.last_flags = flags
        self.ended = flags == self._last_dim
        if flags >= 0 or len(self._open_chunk) == self.lanes:
            self._close_chunk(self._open_chunk)
            self._open_chunk = []
        return chunk_id

    def _check_active(self, what: str) -> None:
        if self.stopped:
            raise StreamError(f"cannot {what} stopped stream u{self.reg}")
        if self.suspended:
            raise StreamError(f"cannot {what} suspended stream u{self.reg}")
        if self.ended:
            raise StreamError(f"cannot {what} finished stream u{self.reg}")


class MachineState:
    """Architectural machine state (the instruction execution target)."""

    def __init__(
        self,
        memory: Optional[Memory] = None,
        vector_bits: int = DEFAULT_VECTOR_BITS,
    ) -> None:
        self.mem = memory if memory is not None else Memory()
        self.vector_bits = vector_bits
        self.xregs = [0] * 32
        self.fregs = [0.0] * 32
        # All 32 registers start as one all-invalid zero value.  Sharing it
        # is safe because every instruction writes a register by binding a
        # freshly built value; its arrays are read-only so that an in-place
        # write raises instead of changing every register at once.
        blank = zeros(vector_bits // 32, ElementType.F32)
        blank.data.flags.writeable = False
        blank.valid.flags.writeable = False
        self.vregs: List[VecValue] = [blank] * 32
        self.vreg_etype: List[ElementType] = [ElementType.F32] * 32
        self.preds = np.zeros((16, _MAX_PRED_LANES), dtype=bool)
        self.preds[0, :] = True  # p0 hardwired all-true
        #: per predicate register, its *active prefix*: the number of
        #: leading true lanes when its writer knew the row is exactly
        #: that many true lanes followed by false ones, else -1
        #: (unknown).  A reader whose lanes the prefix covers skips the
        #: mask test.
        self.pred_prefix = [_MAX_PRED_LANES] + [0] * 15
        self.vl_elems: Optional[int] = None  # ss.setvl override
        self.halted = False

        # Stream architectural state.
        self._pending: Dict[int, _PendingConfig] = {}
        self._streams: Dict[int, _RuntimeStream] = {}
        self._next_uid = 0
        self.stream_infos: Dict[int, StreamTraceInfo] = {}

        # Per-instruction event scratchpad (collected into DynOps).
        self.ev_mem_reads: Optional[Addresses] = None
        self.ev_mem_writes: Optional[Addresses] = None
        self.ev_stream_reads: List[StreamEvent] = []
        self.ev_stream_writes: List[StreamEvent] = []
        self.ev_cfg_uid: Optional[int] = None
        self._ev_dirty = False

    # -- Scalar registers -----------------------------------------------------

    def read_x(self, reg: Reg) -> int:
        return 0 if reg.index == 0 else self.xregs[reg.index]

    def write_x(self, reg: Reg, value: int) -> None:
        if reg.index != 0:
            self.xregs[reg.index] = int(value)

    def read_f(self, reg: Reg) -> float:
        return self.fregs[reg.index]

    def write_f(self, reg: Reg, value: float) -> None:
        self.fregs[reg.index] = float(value)

    def value_int(self, operand) -> int:
        if isinstance(operand, Reg):
            if operand.cls is RegClass.F:
                return int(self.read_f(operand))
            return self.read_x(operand)
        return int(operand)

    def value_float(self, operand) -> float:
        if isinstance(operand, Reg):
            if operand.cls is RegClass.F:
                return self.read_f(operand)
            return float(self.read_x(operand))
        return float(operand)

    # -- Vector registers and predicates --------------------------------------

    def lanes(self, etype: ElementType) -> int:
        hw = self.vector_bits // (etype.width * 8)
        if self.vl_elems is not None:
            return min(hw, self.vl_elems)
        return hw

    def set_vl(self, request: int, etype: ElementType) -> int:
        hw = self.vector_bits // (etype.width * 8)
        if request <= 0:
            self.vl_elems = None
            return hw
        self.vl_elems = min(request, hw)
        return self.vl_elems

    def read_v(self, reg: Reg, etype: ElementType) -> VecValue:
        value = self.vregs[reg.index]
        lanes = self.lanes(etype)
        if len(value.data) != lanes or value.data.dtype != etype.dtype:
            data = np.zeros(lanes, dtype=etype.dtype)
            valid = np.zeros(lanes, dtype=bool)
            n = min(lanes, len(value.data))
            data[:n] = value.data[:n].astype(etype.dtype)
            valid[:n] = value.valid[:n]
            return VecValue(data, valid)
        return value

    def write_v(self, reg: Reg, value: VecValue, etype: ElementType) -> None:
        self.vregs[reg.index] = value
        self.vreg_etype[reg.index] = etype

    def read_pred(self, reg: Reg, lanes: int) -> np.ndarray:
        return self.preds[reg.index, :lanes]

    def write_pred(
        self, reg: Reg, mask: Optional[np.ndarray] = None, prefix: int = -1
    ) -> None:
        """Write predicate ``reg``: its low lanes from ``mask``, or, with
        no mask, ``prefix`` true lanes; every other lane reads false.

        ``prefix`` is recorded as the register's active prefix.  A writer
        passes it only when it knows the row is exactly that many true
        lanes; -1 records "unknown", which readers test lane by lane."""
        if reg.index == 0:
            raise IsaError("predicate p0 is hardwired and cannot be written")
        row = self.preds[reg.index]
        row[:] = False
        if mask is None:
            assert prefix >= 0, "a write without a mask needs its prefix"
            row[:prefix] = True
        else:
            row[: len(mask)] = mask
        self.pred_prefix[reg.index] = prefix

    # -- Stream-aware operand access (UVE F1/F4) ------------------------------

    def is_stream(self, index: int) -> bool:
        stream = self._streams.get(index)
        return stream is not None and not stream.suspended and not stream.stopped

    def read_operand(self, reg: Reg, etype: ElementType) -> VecValue:
        stream = self._streams.get(reg.index)
        if stream is not None and not stream.suspended and not stream.stopped:
            if stream.direction is Direction.STORE:
                raise StreamError(
                    f"u{reg.index} is an output stream; it cannot be read "
                    "(a stream cannot operate in both read and write modes)"
                )
            value, chunk = stream.read_vector()
            self.ev_stream_reads.append((reg.index, stream.uid, chunk, True))
            self._ev_dirty = True
            self.write_v(reg, value, etype)  # the register is the interface
            return value
        return self.read_v(reg, etype)

    def write_operand(self, reg: Reg, value: VecValue, etype: ElementType) -> None:
        stream = self._streams.get(reg.index)
        if stream is not None and not stream.suspended and not stream.stopped:
            if stream.direction is Direction.LOAD:
                raise StreamError(
                    f"u{reg.index} is an input stream; it cannot be written"
                )
            chunk = stream.write_vector(value)
            self.ev_stream_writes.append((reg.index, stream.uid, chunk, True))
            self._ev_dirty = True
            return
        self.write_v(reg, value, etype)

    # -- Stream configuration ---------------------------------------------------

    def stream_begin(
        self,
        index: int,
        direction: Direction,
        etype: ElementType,
        mem_level: MemLevel,
    ) -> None:
        self._pending[index] = _PendingConfig(direction, etype, mem_level)

    def stream_dim(self, index: int, offset: int, size: int, stride: int) -> None:
        pending = self._require_pending(index)
        if pending.nlevels + 1 > MAX_DIMENSIONS:
            raise StreamError(
                f"u{index}: appending a dimension would give "
                f"{pending.nlevels + 1} dimensions; the Streaming Engine "
                f"supports at most {MAX_DIMENSIONS} per stream"
            )
        pending.dims.append(Descriptor(offset, size, stride))

    def stream_static_mod(
        self,
        index: int,
        target: Param,
        behavior: StaticBehavior,
        displacement: int,
        count: int,
    ) -> None:
        pending = self._require_pending(index)
        if len(pending.dims) < 2:
            raise StreamError(
                "a static modifier needs an appended dimension above "
                "dimension 0 to bind to"
            )
        if pending.nmodifiers + 1 > MAX_MODIFIERS:
            raise StreamError(
                f"u{index}: appending a modifier would give "
                f"{pending.nmodifiers + 1} modifiers; the Streaming Engine "
                f"supports at most {MAX_MODIFIERS} per stream"
            )
        k = len(pending.dims) - 1
        pending.mods.setdefault(k, []).append(
            StaticModifier(target, behavior, displacement, count)
        )

    def stream_indirect_mod(
        self,
        index: int,
        target: Param,
        behavior: IndirectBehavior,
        origin_index: int,
    ) -> None:
        pending = self._require_pending(index)
        origin = self._streams.get(origin_index)
        if origin is None:
            raise StreamError(
                f"indirect origin u{origin_index} has no configured stream"
            )
        if pending.nmodifiers + 1 > MAX_MODIFIERS:
            raise StreamError(
                f"u{index}: appending an indirect modifier would give "
                f"{pending.nmodifiers + 1} modifiers; the Streaming Engine "
                f"supports at most {MAX_MODIFIERS} per stream"
            )
        if len(pending.dims) < 2 and pending.nlevels + 1 > MAX_DIMENSIONS:
            raise StreamError(
                f"u{index}: the lone indirect level would give "
                f"{pending.nlevels + 1} dimensions; the Streaming Engine "
                f"supports at most {MAX_DIMENSIONS} per stream"
            )
        # The origin becomes engine-internal: unbind it from the register.
        del self._streams[origin_index]
        modifier = IndirectModifier(target, behavior, origin.pattern)
        if len(pending.dims) >= 2:
            k = len(pending.dims) - 1
            pending.mods.setdefault(k, []).append(modifier)
        else:
            # Lone indirect level above dimension 0 (Fig. 3.B5).
            pending.lone_indirect.setdefault(len(pending.dims) - 1, []).append(
                modifier
            )

    def stream_finish(self, index: int) -> None:
        pending = self._pending.pop(index, None)
        if pending is None:
            raise StreamError(f"no pending configuration for u{index}")
        pattern = pending.build()
        in_use = sum(
            hardware_stream_count(s.pattern)
            for reg, s in self._streams.items()
            if reg != index  # reconfiguring a register frees its stream
        )
        wanted = hardware_stream_count(pattern)
        if in_use + wanted > MAX_STREAMS:
            raise StreamError(
                f"u{index}: configuring this stream needs {wanted} "
                f"hardware stream(s) on top of {in_use} in use; the "
                f"Streaming Engine has {MAX_STREAMS}"
            )
        uid = self._next_uid
        self._next_uid += 1
        info = StreamTraceInfo(
            uid=uid,
            reg=index,
            direction=pattern.direction,
            etype=pattern.etype,
            mem_level=pattern.mem_level,
            ndims=pattern.ndims,
            storage_bytes=pattern.storage_bytes(),
        )
        self.stream_infos[uid] = info
        lanes = self.lanes(pattern.etype)
        self._streams[index] = _RuntimeStream(
            uid, index, pattern, lanes, self.mem, info
        )
        self.ev_cfg_uid = uid
        self._ev_dirty = True

    def _require_pending(self, index: int) -> _PendingConfig:
        try:
            return self._pending[index]
        except KeyError:
            raise StreamError(
                f"no stream configuration in progress for u{index}"
            ) from None

    def _require_stream(self, index: int) -> _RuntimeStream:
        stream = self._streams.get(index)
        if stream is None:
            raise StreamError(f"u{index} is not bound to a stream")
        return stream

    # -- Stream queries, element access and control -------------------------------

    def stream_ended(self, index: int) -> bool:
        return self._require_stream(index).ended

    def stream_dim_complete(self, index: int, dim: int) -> bool:
        return self._require_stream(index).last_flags >= dim

    def stream_read_scalar(self, index: int):
        stream = self._require_stream(index)
        if stream.direction is Direction.STORE:
            raise StreamError(f"u{index} is an output stream; cannot be read")
        value, chunk = stream.read_scalar()
        closed = stream._chunk_count != chunk
        self.ev_stream_reads.append((index, stream.uid, chunk, closed))
        self._ev_dirty = True
        return value

    def stream_write_scalar(self, index: int, value) -> None:
        stream = self._require_stream(index)
        if stream.direction is Direction.LOAD:
            raise StreamError(f"u{index} is an input stream; cannot be written")
        chunk = stream.write_scalar(value)
        closed = stream._chunk_count != chunk
        self.ev_stream_writes.append((index, stream.uid, chunk, closed))
        self._ev_dirty = True

    def stream_control(self, index: int, kind: str) -> None:
        stream = self._require_stream(index)
        if kind == "suspend":
            stream.suspended = True
        elif kind == "resume":
            stream.suspended = False
        elif kind == "stop":
            stream.stopped = True
            del self._streams[index]

    # -- Trace event helpers ---------------------------------------------------

    def record_mem_read(self, addrs: Addresses) -> None:
        """Record the addresses one access reads, in element order: a
        ``range`` for a contiguous run, else a tuple.  The first access
        of an instruction is kept as it is; a second one joins it in a
        tuple."""
        reads = self.ev_mem_reads
        self.ev_mem_reads = addrs if reads is None else (*reads, *addrs)
        self._ev_dirty = True

    def record_mem_write(self, addrs: Addresses) -> None:
        """Record the addresses one access writes (as
        :meth:`record_mem_read`)."""
        writes = self.ev_mem_writes
        self.ev_mem_writes = addrs if writes is None else (*writes, *addrs)
        self._ev_dirty = True

    def clear_events(self) -> None:
        if not self._ev_dirty:
            return
        self.ev_mem_reads = None
        self.ev_mem_writes = None
        # A DynOp holds copies of the stream events, so the lists are
        # reused.
        if self.ev_stream_reads:
            self.ev_stream_reads.clear()
        if self.ev_stream_writes:
            self.ev_stream_writes.clear()
        self.ev_cfg_uid = None
        self._ev_dirty = False

    def halt(self) -> None:
        self.halted = True

    # -- Context switching (§IV-A) ------------------------------------------

    def save_stream_context(self) -> List[dict]:
        """Suspend all active streams and capture their committed
        iteration state (pattern + scalar position).  The saved state is
        32 B (1-D) to 400 B (8-D + 7 modifiers) per stream in hardware;
        prefetched FIFO data is lost and reloaded on restore."""
        context = []
        for index, stream in self._streams.items():
            stream.suspended = True
            context.append(
                {
                    "reg": index,
                    "pattern": stream.pattern,
                    "elements_done": stream.elements_done,
                    "bytes": stream.pattern.storage_bytes(),
                }
            )
        return context

    def restore_stream_context(self, context: List[dict]) -> None:
        """Rebind saved streams and resume from their commit points."""
        for saved in context:
            index = saved["reg"]
            pattern = saved["pattern"]
            uid = self._next_uid
            self._next_uid += 1
            info = StreamTraceInfo(
                uid=uid,
                reg=index,
                direction=pattern.direction,
                etype=pattern.etype,
                mem_level=pattern.mem_level,
                ndims=pattern.ndims,
                storage_bytes=pattern.storage_bytes(),
            )
            self.stream_infos[uid] = info
            stream = _RuntimeStream(
                uid, index, pattern, self.lanes(pattern.etype), self.mem, info
            )
            stream.skip_elements(saved["elements_done"])
            self._streams[index] = stream
            self.ev_cfg_uid = uid
            self._ev_dirty = True


class FunctionalSimulator:
    """Interprets a program, yielding the dynamic trace."""

    def __init__(
        self,
        program: Program,
        state: Optional[MachineState] = None,
        memory: Optional[Memory] = None,
        vector_bits: int = DEFAULT_VECTOR_BITS,
        max_steps: int = 50_000_000,
    ) -> None:
        self.program = program
        self.state = state or MachineState(
            memory=memory, vector_bits=vector_bits
        )
        self.max_steps = max_steps
        self.summary = TraceSummary()

    def trace(self, *, dynops: bool = True) -> Iterator[DynOp]:
        """Execute, yielding one DynOp per committed instruction.

        ``summary`` is filled in when the program ends.  :meth:`run`
        passes ``dynops=False``: the program executes identically but no
        DynOp is built or yielded."""
        state = self.state
        program = self.program
        instructions = program.instructions
        labels = program.labels
        n = len(instructions)
        pc = 0
        seq = 0
        max_steps = self.max_steps
        # Per-pc instruction bound to this state, filled on the pc's first
        # execution, and per-pc commit and taken counts, folded into the
        # summary at the end.  ``first_seen`` keeps the pcs in
        # first-execution order.  The bound callables live only here: one
        # cached on the shared instruction would outlive the run.
        executes: List[Optional[Callable]] = [None] * n
        first_seen: List[int] = []
        commits = [0] * n
        taken = [0] * n
        state.clear_events()
        while not state.halted and pc < n:
            if seq >= max_steps:
                raise ExecutionError(
                    f"program {program.name!r} exceeded {self.max_steps} steps"
                )
            execute = executes[pc]
            if execute is None:
                execute = executes[pc] = instructions[pc].bind(state)
                first_seen.append(pc)
            label = execute(state)
            commits[pc] += 1
            if dynops:
                if state._ev_dirty:
                    stream_reads = state.ev_stream_reads
                    stream_writes = state.ev_stream_writes
                    op = DynOp(
                        seq, pc, instructions[pc],
                        state.ev_mem_reads or None,
                        state.ev_mem_writes or None,
                        label is not None,
                        tuple(stream_reads) if stream_reads else None,
                        tuple(stream_writes) if stream_writes else None,
                        state.ev_cfg_uid,
                    )
                    state.clear_events()
                else:
                    op = DynOp(seq, pc, instructions[pc], None, None,
                               label is not None)
                yield op
            elif state._ev_dirty:
                state.clear_events()
            seq += 1
            if label is None:
                pc += 1
            else:
                taken[pc] += 1
                pc = labels[label]
        summary = self.summary
        by_class = summary.by_class
        for pc in first_seen:
            opclass = instructions[pc].opclass
            count = commits[pc]
            summary.committed += count
            by_class[opclass] = by_class.get(opclass, 0) + count
            if opclass is OpClass.BRANCH:
                summary.branches += count
                summary.taken_branches += taken[pc]
        summary.streams = dict(state.stream_infos)

    def run(self) -> TraceSummary:
        """Execute to completion without building the trace."""
        for _ in self.trace(dynops=False):
            pass
        return self.summary
