"""The Streaming Engine timing model (paper §IV-B, Fig. 7).

Replays the per-stream chunk sequences recorded by the functional
simulator through the engine's structures: the SCROB serialises stream
configurations (one per cycle, in order); the Stream Scheduler hands up
to ``processing_modules`` streams per cycle to the address generators,
each issuing at most one cache-line request per cycle (plus a one-cycle
penalty when switching descriptor dimensions); requests are bounded by
the Memory Request Queue and translated through the TLB before reaching
the memory hierarchy; responses fill per-stream load FIFOs whose entries
are only released when the consuming instruction *commits* — which is
what lets miss-speculated iterations re-use buffered data (A3).
"""
from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from typing import Deque, Dict, List, Sequence, Tuple

from repro.cpu.config import EngineConfig
from repro.engine.scheduler import StreamScheduler
from repro.engine.table import EngineStream
from repro.errors import StreamError
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.trace import StreamTraceInfo
from repro.streams.pattern import MemLevel


class EngineStats:
    __slots__ = (
        "configs",
        "line_requests",
        "chunks_filled",
        "chunks_committed",
        "store_lines",
        "dim_switch_stalls",
        "request_queue_stalls",
        "page_faults",
        "occupancy_samples",
        "occupancy_total",
    )

    def __init__(self) -> None:
        self.configs = 0
        self.line_requests = 0
        self.chunks_filled = 0
        self.chunks_committed = 0
        self.store_lines = 0
        self.dim_switch_stalls = 0
        self.request_queue_stalls = 0
        self.page_faults = 0
        self.occupancy_samples = 0
        self.occupancy_total = 0

    @property
    def mean_fifo_occupancy(self) -> float:
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_total / self.occupancy_samples


class StreamingEngine:
    """Timing-side Streaming Engine embedded in the core."""

    def __init__(self, config: EngineConfig, hierarchy: MemoryHierarchy) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.scheduler = StreamScheduler(
            config.scheduler_policy, config.shared_fifo
        )
        self.streams: Dict[int, EngineStream] = {}
        #: SCROB: stream configurations retire in order, one per cycle.
        self._scrob_free_at = 0.0
        #: outstanding line-request completion times (Memory Request
        #: Queue), kept sorted ascending so expiry is a prefix deletion
        #: and the backlog bound a bisect instead of full rescans
        self._outstanding: List[float] = []
        #: per-module dimension-switch stall (cycle until which it is busy)
        self._module_busy = [0.0] * config.processing_modules
        #: committed store chunks awaiting their line writes, oldest
        #: first: (ready cycle, lines, stream, its level); ``_store_line``
        #: is the head's next line
        self._store_queue: Deque[
            Tuple[float, Sequence[int], EngineStream, MemLevel]
        ] = deque()
        self._store_line = 0
        self.stats = EngineStats()
        self.last_drain_cycle = 0.0
        #: The FIFO-occupancy sample every cycle takes (load streams not
        #: terminated, and their summed occupancy).  Like the scheduler's
        #: candidates (``scheduler.update``), it is kept current by the
        #: events that change stream state (configure, chunk filled,
        #: chunk committed, terminate), so a tick neither rescans the
        #: Stream Table nor sorts.
        self._occ_samples = 0
        self._occ_total = 0
        self._shared_fifo = config.shared_fifo
        self._all_modules = list(range(config.processing_modules))
        self._module_busy_until = 0.0
        # Hot-path scalars and bound methods hoisted out of config and
        # hierarchy indirection.
        self._l1d = hierarchy.l1d
        self._line_bytes = hierarchy.line_bytes
        self._backlog_limit = 4 * config.memory_request_queue
        self._translate = hierarchy.tlb.stream_translate
        self._stream_read = hierarchy.stream_read
        self._stream_write = hierarchy.stream_write
        self._store_ports = config.store_ports
        self._dim_switch_penalty = config.dim_switch_penalty
        override = config.mem_level_override
        self._level_override = (
            MemLevel[override.upper()] if override else None
        )

    # -- Configuration (SCROB) ---------------------------------------------------

    def configure(self, info: StreamTraceInfo, now: float) -> float:
        """Register a completed stream configuration; returns the cycle
        the Streaming Engine starts processing it."""
        streams = self.streams
        if info.uid in streams:
            raise StreamError(f"stream uid {info.uid} is already configured")
        start = max(now, self._scrob_free_at) + 1.0
        self._scrob_free_at = start
        if len(streams) >= self.config.max_streams:
            # Recycle terminated/fully-committed streams.
            # A stream is recyclable once every chunk of its recorded
            # lifetime has been consumed (loads: committed; stores: fully
            # drained).  Comparing against num_chunks — not the running
            # reservation count — keeps freshly-configured streams alive.
            done = [
                uid
                for uid, s in streams.items()
                if s.terminated
                or (s.is_load and s.commit_head >= s.num_chunks)
                or (not s.is_load and s.store_drained >= s.num_chunks)
            ]
            for uid in done:
                # Never a scheduling candidate: nothing is left to fetch.
                self._unsample(streams.pop(uid))
            if len(streams) >= self.config.max_streams:
                raise StreamError(
                    f"more than {self.config.max_streams} concurrent streams"
                )
        level = self._level_override
        stream = EngineStream(
            info,
            fifo_depth=self.config.fifo_depth,
            line_bytes=self._line_bytes,
            start_cycle=start,
            level=info.mem_level if level is None else level,
        )
        streams[info.uid] = stream
        self.stats.configs += 1
        if stream.is_load:
            self._occ_samples += 1
        self.scheduler.update(stream)
        return start

    def stream(self, uid: int) -> EngineStream:
        """The Stream Table entry of ``uid``."""
        try:
            return self.streams[uid]
        except KeyError:
            raise StreamError(f"unknown stream uid {uid}") from None

    def _unsample(self, stream: EngineStream) -> None:
        """Take a stream leaving the table, or terminating, out of the
        FIFO-occupancy sample."""
        if stream.is_load and not stream.terminated:
            self._occ_samples -= 1
            self._occ_total -= stream.gen_next - stream.commit_head

    # -- Per-cycle operation -----------------------------------------------------------

    def tick(self, now: float) -> bool:
        """One engine cycle: schedule streams, generate line requests.

        Returns True when any engine state changed (a line request was
        generated, a store line drained, or a request-queue stall was
        recorded); False means the engine is quiescent this cycle and
        the caller may fast-forward over identical cycles."""
        outstanding = self._outstanding
        if outstanding and outstanding[0] <= now:
            del outstanding[: bisect_right(outstanding, now)]
        # Drain prechecks inlined: most cycles the queue head is gated on
        # L1 MSHR availability, so skip the call (not the semantics).
        sq = self._store_queue
        progress = (
            bool(sq)
            and sq[0][0] <= now
            and self._l1d.can_accept(now)
            and self._drain_stores(now)
        )
        # Every cycle samples the occupancy its scheduling sees.
        stats = self.stats
        if stats.occupancy_samples < (1 << 30):
            stats.occupancy_samples += self._occ_samples
            stats.occupancy_total += self._occ_total
        if self.scheduler.candidates:
            if self._module_busy_until <= now:
                modules = self._all_modules
            else:
                modules = [
                    m for m, busy in enumerate(self._module_busy) if busy <= now
                ]
            if modules:
                chosen = self.scheduler.select(
                    now,
                    len(modules),
                    self._scrob_free_at,  # every stream has started by then
                    self._shared_fifo and self._shared_pool_free() <= 0,
                )
                for module, stream in zip(modules, chosen):
                    if self._generate(stream, module, now):
                        progress = True
        return progress

    def skip_idle(self, cycles: int) -> None:
        """Back-fill the per-cycle FIFO-occupancy sampling for ``cycles``
        skipped quiescent cycles (event-horizon fast-forward).  The
        caller guarantees no engine state changes across the skipped
        range, so every skipped cycle would have sampled exactly the
        occupancy visible now — ``mean_fifo_occupancy`` stays identical
        to a cycle-by-cycle simulation."""
        if cycles <= 0:
            return
        stats = self.stats
        samples = self._occ_samples
        occupancy = self._occ_total
        if not samples or stats.occupancy_samples >= (1 << 30):
            return
        # Mirror tick()'s cap semantics: a cycle samples every stream iff
        # its starting sample count is below the cap.
        headroom = (1 << 30) - stats.occupancy_samples
        sampling_cycles = min(cycles, -(-headroom // samples))
        stats.occupancy_samples += sampling_cycles * samples
        stats.occupancy_total += sampling_cycles * occupancy

    def _generate(self, stream: EngineStream, module: int, now: float) -> bool:
        """Request the next cache line of ``stream``'s current chunk.
        Returns True when engine state changed (a line request or a
        request-queue stall)."""
        lines = stream.lines
        if lines is None:
            lines = stream.lines = stream.chunk_lines(stream.gen_next)
        index = stream.line_index
        if index >= len(lines):
            return False  # a chunk without addresses never fills
        line = lines[index]
        stats = self.stats
        addr = line * self._line_bytes
        # The Memory Request Queue stages requests between the address
        # generators and the arbiter (10-byte entries, §VI-C); issued
        # requests are tracked by the cache hierarchy's own MSHRs, so the
        # queue bounds the *unissued* backlog.  A request is issued the
        # cycle it is generated, so only a pathological burst of
        # far-future completions fills it; this bound stalls generation
        # then.  (The arbiter's port count, ``EngineConfig.load_ports``,
        # is not modelled: each module issues one line per cycle.)
        outstanding = self._outstanding
        limit = self._backlog_limit
        if (
            len(outstanding) >= limit
            and len(outstanding) - bisect_right(outstanding, now + 60) >= limit
        ):
            # Page fault on a stream element: the element is flagged and
            # the exception handled when the consuming instruction
            # commits (§IV-A); the engine itself never traps, which is
            # what allows safe prefetching across page boundaries (A2).
            if not self.hierarchy.tlb.probe(addr):
                stats.page_faults += 1
            stats.request_queue_stalls += 1
            return True
        # TLB translation through the engine's arbiter (A2: streams cross
        # page boundaries safely; faults are flagged, not raised, here).
        mapped, delay = self._translate(addr)
        if not mapped:
            stats.page_faults += 1
        completion = self._stream_read(line, now + 1 + delay, stream.level)
        insort(outstanding, completion)
        stats.line_requests += 1
        if completion > stream.fill_ready:
            stream.fill_ready = completion
        index += 1
        if index < len(lines):
            stream.line_index = index
            return True
        # The chunk's last line: its FIFO entry is ready once every line
        # has arrived, +2 for the engine fill and the forward into the
        # register file.
        chunk = stream.gen_next
        stream.chunk_ready[chunk] = stream.fill_ready + 2
        stream.gen_next = chunk + 1
        stream.lines = None
        stream.line_index = 0
        stream.fill_ready = 0.0
        stats.chunks_filled += 1
        self._occ_total += 1
        self.scheduler.update(stream)
        # The address generator pays one extra cycle to switch
        # descriptor dimension, charged when the chunk it moves on to
        # ends a dimension.
        flags = stream.info.chunk_flags
        if chunk + 1 < len(flags) and flags[chunk + 1] >= 1:
            busy = now + 1 + self._dim_switch_penalty
            self._module_busy[module] = busy
            if busy > self._module_busy_until:
                self._module_busy_until = busy
            stats.dim_switch_stalls += 1
        return True

    def _shared_pool_free(self) -> int:
        """Free entries in the pooled load FIFO (§IV-B future work).

        Every stream keeps its *nominal* ``fifo_depth`` reservation (so
        pooling can never starve a stream below the fixed-queue design —
        which would throttle, or with a single guaranteed entry even
        deadlock, the stream the ROB head waits on).  Borrowing beyond
        nominal depth is allowed only while the total pooled capacity has
        headroom."""
        active = [
            s for s in self.streams.values()
            if s.is_load and not s.terminated and s.num_chunks > 0
            and s.commit_head < s.num_chunks
        ]
        capacity = self.config.fifo_depth * max(len(active), 1)
        used = sum(s.fifo_occupancy() for s in active)
        return capacity - used

    # -- Pipeline-facing interface -----------------------------------------------------

    def commit_read(self, stream: EngineStream, chunk: int) -> None:
        """A consuming load committed: free its FIFO entry (the
        committed pointer only moves forward)."""
        stream.chunk_ready.pop(chunk, None)
        self.stats.chunks_committed += 1
        before = stream.commit_head
        if chunk >= before:
            stream.commit_head = chunk + 1
            if stream.is_load and not stream.terminated:
                self._occ_total -= chunk + 1 - before
            self.scheduler.update(stream)

    def squash(self, uid: int, chunk: int) -> None:
        self.stream(uid).squash_to(chunk)

    def commit_write(self, stream: EngineStream, chunk: int, now: float) -> None:
        """Consuming store committed: queue its line writes to the L1.
        The FIFO entry (one chunk) frees when its final line drains."""
        lines = stream.store_lines(chunk)
        if lines:
            self._store_queue.append((now, lines, stream, stream.info.mem_level))

    def terminate(self, uid: int) -> None:
        stream = self.streams.get(uid)
        if stream is not None:
            self._unsample(stream)
            stream.terminate()
            self.scheduler.update(stream)

    def _drain_stores(self, now: float) -> bool:
        """Issue queued stream store lines, one per store port per cycle,
        while the head is ready and the L1 accepts it (MSHR
        backpressure); the caller has checked both for the first line.
        Returns True when a line drained."""
        queue = self._store_queue
        l1d = self._l1d
        stream_write = self._stream_write
        stats = self.stats
        drained = False
        for _ in range(self._store_ports):
            if drained and (
                not queue or queue[0][0] > now or not l1d.can_accept(now)
            ):
                break
            _, lines, stream, level = queue[0]
            index = self._store_line
            done = stream_write(lines[index], now, level)
            index += 1
            if index == len(lines):
                queue.popleft()
                self._store_line = 0
                stream.drain_store()
            else:
                self._store_line = index
            stats.store_lines += 1
            if done > self.last_drain_cycle:
                self.last_drain_cycle = done
            drained = True
        return drained

    @property
    def stores_pending(self) -> bool:
        return bool(self._store_queue)

    # -- Storage accounting (paper §VI-C) ------------------------------------------------

    def storage_overheads(self) -> Dict[str, int]:
        """Bytes of storage the configured engine would occupy in HW."""
        cfg = self.config
        # Stream Table + SCROB: per stream, max_dims descriptors and
        # max_mods modifiers at 16 B each, plus iteration state.
        table = cfg.max_streams * (16 * cfg.max_dims + 16 * cfg.max_mods + 16)
        request_queue = cfg.memory_request_queue * 10
        fifo = cfg.max_streams * cfg.fifo_depth * 66
        return {
            "stream_table_bytes": table,
            "request_queue_bytes": request_queue,
            "fifo_bytes": fifo,
            "total_bytes": table + request_queue + fifo,
        }
