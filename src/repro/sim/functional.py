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
from repro.isa.vector import VecValue, zeros
from repro.memory.backing import Memory
from repro.sim.trace import DynOp, StreamEvent, StreamTraceInfo, TraceSummary
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
    :class:`~repro.streams.iterator.RunIterator` materialises each
    dimension-0 instance as one NumPy address vector, and vector reads /
    writes slice whole chunks out of the buffered run (chunks never cross
    a dimension-0 boundary, so a chunk is always a slice of one run).
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

        def read_element(addr: int, etype: ElementType):
            self.origin_pending.append(addr)
            return memory.read_scalar(addr, etype)

        reader = read_element if pattern.has_indirection else None
        self._runs = iter(RunIterator(pattern, reader))
        self._run_addrs: Optional[np.ndarray] = None
        self._run_pos = 0
        self._run_flags = -1
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
        self.ended = count > 0 and self.last_flags == self.pattern.ndims - 1

    @property
    def direction(self) -> Direction:
        return self.pattern.direction

    def _take(self, limit: int) -> Tuple[np.ndarray, int, int]:
        """Consume up to ``limit`` elements of the buffered dimension-0
        run, fetching the next run once this one is spent, and return
        ``(addresses, count, flags)``: ``flags`` is the run's flag if
        the run ends with these elements, else -1."""
        addrs = self._run_addrs
        if addrs is None or self._run_pos == len(addrs):
            try:
                run = next(self._runs)
            except StopIteration:
                raise StreamError(
                    f"stream u{self.reg} iterated past its end"
                ) from None
            addrs = self._run_addrs = run.addresses
            self._run_pos = 0
            self._run_flags = run.dims_ended
        pos = self._run_pos
        count = min(limit, len(addrs) - pos)
        end = self._run_pos = pos + count
        flags = self._run_flags if end == len(addrs) else -1
        return addrs[pos:end], count, flags

    def _close_chunk(self) -> None:
        self.trace.chunks.append(self._open_chunk)
        self.trace.origin_reads.append(self.origin_pending)
        self.trace.chunk_flags.append(self.last_flags)
        self.origin_pending = []
        self._open_chunk = []
        self._chunk_count += 1

    def _chunk_id(self) -> int:
        return self._chunk_count

    # -- Vector-granular access --------------------------------------------

    def read_vector(self) -> Tuple[VecValue, int]:
        """Consume one chunk (up to ``lanes`` elements, never crossing a
        dimension-0 boundary) and return its value and chunk id."""
        self._check_active("read")
        etype = self.pattern.etype
        chunk_id = self._chunk_id()
        if self._open_chunk:
            raise StreamError(
                f"stream u{self.reg}: vector read after partial scalar "
                "consumption of the current chunk"
            )
        data = np.zeros(self.lanes, dtype=etype.dtype)
        valid = np.zeros(self.lanes, dtype=bool)
        chunk, count, flags = self._take(self.lanes)
        # Contiguity fast path.  The *whole* address vector must step by
        # exactly one element width — checking only the endpoints would
        # let a permuted interior (e.g. [0, 8, 100, 24]) read the wrong
        # bytes through read_block.
        if count == 1 or bool((chunk[1:] - chunk[:-1] == etype.width).all()):
            data[:count] = self.mem.read_block(int(chunk[0]), count, etype)
        else:
            data[:count] = self.mem.read_gather(chunk, etype)
        self._open_chunk = chunk.tolist()
        valid[:count] = True
        self.last_flags = flags
        self._close_chunk()
        self.elements_done += count
        self.ended = self.last_flags == self.pattern.ndims - 1
        return VecValue(data, valid), chunk_id

    def write_vector(self, value: VecValue) -> int:
        """Produce one chunk of the output pattern from ``value``."""
        self._check_active("write")
        etype = self.pattern.etype
        chunk_id = self._chunk_id()
        if self._open_chunk:
            raise StreamError(
                f"stream u{self.reg}: vector write after partial scalar "
                "production of the current chunk"
            )
        chunk, count, flags = self._take(self.lanes)
        # Same full-vector contiguity check as read_vector; scattered
        # chunks (including duplicate addresses, which resolve
        # last-write-wins in element order) go through write_scatter.
        if count == 1 or bool((chunk[1:] - chunk[:-1] == etype.width).all()):
            self.mem.write_block(int(chunk[0]), value.data[:count])
        else:
            self.mem.write_scatter(chunk, value.data[:count], etype)
        self._open_chunk = chunk.tolist()
        self.last_flags = flags
        self._close_chunk()
        self.elements_done += count
        self.ended = self.last_flags == self.pattern.ndims - 1
        return chunk_id

    # -- Element-granular (scalar) access ------------------------------------

    def read_scalar(self) -> Tuple[object, int]:
        self._check_active("read")
        chunk_id = self._chunk_id()
        chunk, _, flags = self._take(1)
        addr = int(chunk[0])
        value = self.mem.read_scalar(addr, self.pattern.etype)
        self._open_chunk.append(addr)
        self.elements_done += 1
        self.last_flags = flags
        self.ended = flags == self.pattern.ndims - 1
        if flags >= 0 or len(self._open_chunk) == self.lanes:
            self._close_chunk()
        return value, chunk_id

    def write_scalar(self, value) -> int:
        self._check_active("write")
        chunk_id = self._chunk_id()
        chunk, _, flags = self._take(1)
        addr = int(chunk[0])
        self.mem.write_scalar(addr, value, self.pattern.etype)
        self._open_chunk.append(addr)
        self.elements_done += 1
        self.last_flags = flags
        self.ended = flags == self.pattern.ndims - 1
        if flags >= 0 or len(self._open_chunk) == self.lanes:
            self._close_chunk()
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
        self.vl_elems: Optional[int] = None  # ss.setvl override
        self.halted = False

        # Stream architectural state.
        self._pending: Dict[int, _PendingConfig] = {}
        self._streams: Dict[int, _RuntimeStream] = {}
        self._next_uid = 0
        self.stream_infos: Dict[int, StreamTraceInfo] = {}

        # Per-instruction event scratchpad (collected into DynOps).
        self.ev_mem_reads: List[int] = []
        self.ev_mem_writes: List[int] = []
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

    def write_pred(self, reg: Reg, mask: np.ndarray) -> None:
        if reg.index == 0:
            raise IsaError("predicate p0 is hardwired and cannot be written")
        self.preds[reg.index, :] = False
        self.preds[reg.index, : len(mask)] = mask

    # -- Stream-aware operand access (UVE F1/F4) ------------------------------

    def is_stream(self, index: int) -> bool:
        stream = self._streams.get(index)
        return stream is not None and not stream.suspended and not stream.stopped

    def read_operand(self, reg: Reg, etype: ElementType) -> VecValue:
        stream = self._streams.get(reg.index)
        if stream is not None and self.is_stream(reg.index):
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
        if stream is not None and self.is_stream(reg.index):
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

    def record_mem_read(self, addrs) -> None:
        self.ev_mem_reads.extend(addrs)
        self._ev_dirty = True

    def record_mem_write(self, addrs) -> None:
        self.ev_mem_writes.extend(addrs)
        self._ev_dirty = True

    def clear_events(self) -> None:
        if not self._ev_dirty:
            return
        self.ev_mem_reads = []
        self.ev_mem_writes = []
        self.ev_stream_reads = []
        self.ev_stream_writes = []
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
        # Per-pc bound ``execute``, filled on the pc's first execution, and
        # per-pc commit and taken counts, folded into the summary at the
        # end.  ``first_seen`` keeps the pcs in first-execution order.
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
                execute = executes[pc] = instructions[pc].execute
                first_seen.append(pc)
            label = execute(state)
            commits[pc] += 1
            if dynops:
                if state._ev_dirty:
                    op = DynOp(
                        seq, pc, instructions[pc],
                        tuple(state.ev_mem_reads) or None,
                        tuple(state.ev_mem_writes) or None,
                        label is not None,
                        tuple(state.ev_stream_reads) or None,
                        tuple(state.ev_stream_writes) or None,
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
