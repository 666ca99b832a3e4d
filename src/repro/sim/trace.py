"""Dynamic-trace structures connecting the functional and timing layers.

The functional simulator emits one :class:`DynOp` per committed
instruction.  The timing pipeline consumes the sequence, doing its own
renaming/scheduling; the paper's oracle quantities (committed-instruction
counts, Fig. 8.A) come straight from the trace.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.types import ElementType
from repro.isa.instructions import Instruction
from repro.isa.microop import OpClass
from repro.streams.pattern import Direction, MemLevel

#: One stream access of an instruction: ``(vector-register index, stream
#: uid, chunk index, closes chunk)``.  The last field is True when the
#: access completed its chunk: always for a vector access, and for the
#: scalar access that fills or ends the chunk.  The timing model reserves
#: store-FIFO space and commits the chunk to the engine only for those.
StreamEvent = Tuple[int, int, int, bool]

#: The byte addresses of one memory access or one stream chunk, in
#: element order.  A contiguous access (an SVE ``ld1``/``st1`` block,
#: NEON, RVV unit-stride, a UVE legacy vector load or store) and a chunk
#: of a stream run with a nonzero stride are an address *run*: a
#: ``range``, one object whatever its length.  Every other access
#: (gathers, scatters, lane loops, scalar stream chunks, indirect origin
#: reads) holds its addresses explicitly, in a tuple or list.
Addresses = Sequence[int]


def read_lines(addrs: Addresses, line_bytes: int) -> Sequence[int]:
    """The distinct cache lines of ``addrs`` in first-touch order: the
    lines a load, or a stream chunk, reads.

    An ascending run whose step is at most one line touches every line
    from its first element's to its last's, so its lines are that
    ``range``, with no per-element work.  Like the per-element
    derivation, it reads only each element's start address."""
    if addrs.__class__ is range and 0 < addrs.step <= line_bytes and addrs:
        return range(addrs.start // line_bytes, addrs[-1] // line_bytes + 1)
    if len(addrs) == 1:
        return [addrs[0] // line_bytes]
    lines = {}
    for addr in addrs:
        lines[addr // line_bytes] = None
    return list(lines)


def write_lines(addrs: Addresses, line_bytes: int) -> Sequence[int]:
    """The cache lines of ``addrs`` in element order, a line repeated
    only when not consecutive: the lines a store, or a stream chunk,
    writes.  An ascending run with a step of at most one line gives the
    ``range`` of :func:`read_lines`."""
    if addrs.__class__ is range and 0 < addrs.step <= line_bytes and addrs:
        return range(addrs.start // line_bytes, addrs[-1] // line_bytes + 1)
    lines: List[int] = []
    for addr in addrs:
        line = addr // line_bytes
        if not lines or lines[-1] != line:
            lines.append(line)
    return lines


class DynOp:
    """One dynamic (committed) instruction instance.

    It records only what the run decided: the memory addresses (each an
    :data:`Addresses`), branch outcome and stream events of this
    instance.  The static facts of its pc (op class, sources,
    destinations) are read from ``inst``."""

    __slots__ = (
        "seq",
        "pc",
        "inst",
        "mem_reads",
        "mem_writes",
        "taken",
        "stream_reads",
        "stream_writes",
        "cfg_uid",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        inst: Instruction,
        mem_reads: Optional[Addresses] = None,
        mem_writes: Optional[Addresses] = None,
        taken: bool = False,
        stream_reads: Optional[Tuple[StreamEvent, ...]] = None,
        stream_writes: Optional[Tuple[StreamEvent, ...]] = None,
        cfg_uid: Optional[int] = None,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.mem_reads = mem_reads
        self.mem_writes = mem_writes
        self.taken = taken
        #: :data:`StreamEvent` tuples, one per stream chunk access
        self.stream_reads = stream_reads
        self.stream_writes = stream_writes
        self.cfg_uid = cfg_uid

    def __repr__(self) -> str:
        return f"<DynOp #{self.seq} pc={self.pc} {self.inst}>"


class StreamTraceInfo:
    """Per-configured-stream record used by the timing Streaming Engine.

    ``chunks[i]`` holds the byte addresses (:data:`Addresses`) of the
    *i*-th vector-sized transfer; ``origin_reads[i]`` are extra
    engine-internal loads issued while generating chunk *i*
    (indirect-pattern index fetches; an empty tuple when there are
    none).
    """

    __slots__ = (
        "uid",
        "reg",
        "direction",
        "etype",
        "mem_level",
        "chunks",
        "origin_reads",
        "chunk_flags",
        "ndims",
        "storage_bytes",
    )

    def __init__(
        self,
        uid: int,
        reg: int,
        direction: Direction,
        etype: ElementType,
        mem_level: MemLevel,
        ndims: int,
        storage_bytes: int,
    ) -> None:
        self.uid = uid
        self.reg = reg
        self.direction = direction
        self.etype = etype
        self.mem_level = mem_level
        self.ndims = ndims
        self.storage_bytes = storage_bytes
        self.chunks: List[Addresses] = []
        self.origin_reads: List[Sequence[int]] = []
        #: dims_ended flag of each chunk's final element
        self.chunk_flags: List[int] = []

    @property
    def is_load(self) -> bool:
        return self.direction is Direction.LOAD

    def total_elements(self) -> int:
        return sum(len(c) for c in self.chunks)


class TraceSummary:
    """Aggregate statistics of a functional run.

    The functional simulator fills it in when the program ends, so it is
    complete only once the trace has been exhausted."""

    def __init__(self) -> None:
        self.committed: int = 0
        self.by_class: Dict[OpClass, int] = {}
        self.branches: int = 0
        self.taken_branches: int = 0
        self.streams: Dict[int, StreamTraceInfo] = {}

    @property
    def vector_ops(self) -> int:
        return sum(
            count for cls, count in self.by_class.items() if cls.is_vector
        )
