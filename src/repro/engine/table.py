"""Stream Table entries: per-stream timing state inside the Streaming
Engine (paper Fig. 7).

An :class:`EngineStream` tracks the address-generation progress (which
chunk the Stream Processing Modules are iterating, and which cache lines
of it remain to be requested), the load/store FIFO occupancy, and the
speculative and committed iteration pointers that support speculative
execution (paper §IV-A *Miss-Speculation*).  The engine itself issues
the line requests (:meth:`StreamingEngine._generate`); a stream holds
only the state they advance.
"""
from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from repro.sim.trace import StreamTraceInfo, read_lines, write_lines
from repro.streams.pattern import MemLevel

INFINITY = math.inf


class EngineStream:
    """Timing state of one configured stream."""

    __slots__ = (
        "info",
        "fifo_depth",
        "line_bytes",
        "start_cycle",
        "level",
        "uid",
        "is_load",
        "num_chunks",
        "gen_next",
        "lines",
        "line_index",
        "fill_ready",
        "chunk_ready",
        "spec_head",
        "commit_head",
        "store_reserved",
        "store_drained",
        "terminated",
    )

    def __init__(
        self,
        info: StreamTraceInfo,
        fifo_depth: int,
        line_bytes: int,
        start_cycle: float,
        level: MemLevel,
    ) -> None:
        self.info = info
        self.fifo_depth = fifo_depth
        self.line_bytes = line_bytes
        self.start_cycle = start_cycle
        #: the level the stream's line requests go to (the configured
        #: one, or the engine's mem_level_override)
        self.level = level
        # Cached from info: read on the per-cycle scheduler/sampling hot
        # paths, where the double property hop shows up in profiles.
        self.uid = info.uid
        self.is_load = info.is_load

        self.num_chunks = len(info.chunks)
        #: chunk index the address generator will fetch next (loads) or
        #: whose store addresses it will generate next (stores)
        self.gen_next = 0
        #: distinct cache lines of chunk ``gen_next`` (None until its
        #: first request), the next one to request, and the latest
        #: completion among those already requested
        self.lines: Optional[Sequence[int]] = None
        self.line_index = 0
        self.fill_ready = 0.0
        #: ready cycle of each fetched chunk (load FIFO entries)
        self.chunk_ready: Dict[int, float] = {}
        #: speculative consumption pointer (advanced at rename)
        self.spec_head = 0
        #: committed consumption pointer (advanced at commit; frees FIFO)
        self.commit_head = 0
        # Store-FIFO bookkeeping (output streams).
        self.store_reserved = 0
        self.store_drained = 0
        self.terminated = False

    # -- Occupancy ------------------------------------------------------------

    def fifo_occupancy(self) -> int:
        """Entries currently held (fetched or reserved, not yet freed)."""
        if self.is_load:
            return self.gen_next - self.commit_head
        return self.store_reserved - self.store_drained

    # -- Cache lines of a chunk ---------------------------------------------------

    def chunk_lines(self, index: int) -> Sequence[int]:
        """The lines a load fetches for chunk ``index``: the
        engine-internal indirect origin reads first, then the chunk, each
        distinct line once, in first-touch order."""
        addrs = self.info.chunks[index]
        origin = self.info.origin_reads[index]
        if origin:
            addrs = [*origin, *addrs]
        return read_lines(addrs, self.line_bytes)

    def store_lines(self, index: int) -> Sequence[int]:
        """The lines a store drains for chunk ``index``: its lines in
        element order, a line repeated only when not consecutive."""
        return write_lines(self.info.chunks[index], self.line_bytes)

    # -- Consumption interface (pipeline-facing) -----------------------------------

    def ready_cycle(self, chunk: int) -> float:
        """Cycle the chunk's data is available in the load FIFO."""
        if chunk < self.commit_head:
            return 0.0  # delivered and committed (element-wise consumers)
        return self.chunk_ready.get(chunk, INFINITY)

    def rename_read(self, chunk: int) -> None:
        self.spec_head = max(self.spec_head, chunk + 1)

    def squash_to(self, chunk: int) -> None:
        """Revert the speculative pointer to the commit point (§IV-A):
        buffered data stays valid and is re-consumed without new loads."""
        self.spec_head = max(self.commit_head, chunk)

    # -- Store-FIFO interface ------------------------------------------------------

    def reserve_store(self) -> bool:
        """Reserve one Store FIFO entry at rename; False when full."""
        if self.store_reserved - self.store_drained >= self.fifo_depth:
            return False
        self.store_reserved += 1
        return True

    def drain_store(self) -> None:
        self.store_drained += 1

    def terminate(self) -> None:
        self.terminated = True
        self.chunk_ready.clear()
