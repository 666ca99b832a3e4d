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

import bisect
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.cpu.config import EngineConfig
from repro.engine.scheduler import StreamScheduler
from repro.engine.table import EngineStream
from repro.errors import StreamError
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.trace import StreamTraceInfo
from repro.streams.pattern import MemLevel

INFINITY = math.inf


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
        self.scheduler = StreamScheduler(config.scheduler_policy)
        self.streams: Dict[int, EngineStream] = {}
        #: SCROB: stream configurations retire in order, one per cycle.
        self._scrob_free_at = 0.0
        #: outstanding line-request completion times (Memory Request
        #: Queue), kept sorted ascending so expiry is a prefix deletion
        #: and the backlog bound a bisect instead of full rescans
        self._outstanding: List[float] = []
        #: per-module dimension-switch stall (cycle until which it is busy)
        self._module_busy = [0.0] * config.processing_modules
        #: pending store-line issues: (ready_cycle, line, mem_level)
        self._store_queue: Deque[Tuple[float, int, MemLevel]] = deque()
        self._store_meta: Deque[EngineStream] = deque()
        self.stats = EngineStats()
        self.last_drain_cycle = 0.0
        #: cached per-cycle bookkeeping, refreshed only when stream state
        #: mutates (configure / chunk fill / commit / squash / terminate):
        #: occupancy-sample contribution and the number of streams that
        #: could possibly generate a request.  Both are consumed every
        #: tick, so keeping them incremental turns the quiescent-tick cost
        #: from O(streams) into O(1).
        self._cache_dirty = True
        self._occ_samples = 0
        self._occ_total = 0
        self._gen_candidates = 0
        self._all_modules = list(range(config.processing_modules))
        self._module_busy_until = 0.0
        # Hot-path scalars hoisted out of config/hierarchy indirection.
        self._l1d = hierarchy.l1d
        self._line_bytes = hierarchy.line_bytes
        self._backlog_limit = 4 * config.memory_request_queue
        override = config.mem_level_override
        self._level_override = (
            MemLevel[override.upper()] if override else None
        )

    # -- Configuration (SCROB) ---------------------------------------------------

    def configure(self, info: StreamTraceInfo, now: float) -> float:
        """Register a completed stream configuration; returns the cycle
        the Streaming Engine starts processing it."""
        start = max(now, self._scrob_free_at) + 1.0
        self._scrob_free_at = start
        if len(self.streams) >= self.config.max_streams:
            # Recycle terminated/fully-committed streams.
            # A stream is recyclable once every chunk of its recorded
            # lifetime has been consumed (loads: committed; stores: fully
            # drained).  Comparing against num_chunks — not the running
            # reservation count — keeps freshly-configured streams alive.
            done = [
                uid
                for uid, s in self.streams.items()
                if s.terminated
                or (s.is_load and s.commit_head >= s.num_chunks)
                or (not s.is_load and s.store_drained >= s.num_chunks)
            ]
            for uid in done:
                del self.streams[uid]
            if len(self.streams) >= self.config.max_streams:
                raise StreamError(
                    f"more than {self.config.max_streams} concurrent streams"
                )
        self.streams[info.uid] = EngineStream(
            info,
            fifo_depth=self.config.fifo_depth,
            line_bytes=self.hierarchy.line_bytes,
            start_cycle=start,
        )
        self.stats.configs += 1
        self._cache_dirty = True
        return start

    def _stream(self, uid: int) -> EngineStream:
        try:
            return self.streams[uid]
        except KeyError:
            raise StreamError(f"unknown stream uid {uid}") from None

    # -- Per-cycle operation -----------------------------------------------------------

    def _refresh_cache(self) -> None:
        """Recompute the tick-time bookkeeping after a stream mutation.

        ``_gen_candidates`` is deliberately conservative (it ignores
        ``start_cycle`` and, under a shared FIFO, the pool headroom): a
        counted stream may still be rejected by the scheduler's exact
        eligibility test, but a zero count *proves* the scheduler would
        select nothing, letting tick() skip it entirely."""
        depth = self.config.fifo_depth
        shared = self.config.shared_fifo
        samples = occupancy = candidates = 0
        for stream in self.streams.values():
            if stream.is_load and not stream.terminated:
                samples += 1
                # inlined fifo_occupancy() for load streams
                fifo = stream.gen_next - stream.commit_head
                occupancy += fifo
                if stream.gen_next < stream.num_chunks and (
                    shared or fifo < depth
                ):
                    candidates += 1
        self._occ_samples = samples
        self._occ_total = occupancy
        self._gen_candidates = candidates
        self._cache_dirty = False

    def tick(self, now: float) -> bool:
        """One engine cycle: schedule streams, generate line requests.

        Returns True when any engine state changed (a line request was
        generated, a store line drained, or a request-queue stall was
        recorded); False means the engine is quiescent this cycle and
        the caller may fast-forward over identical cycles."""
        outstanding = self._outstanding
        if outstanding and outstanding[0] <= now:
            del outstanding[: bisect.bisect_right(outstanding, now)]
        # Drain prechecks inlined: most cycles the queue head is gated on
        # L1 MSHR availability, so skip the call (not the semantics).
        sq = self._store_queue
        progress = (
            bool(sq)
            and sq[0][0] <= now
            and self._l1d.can_accept(now)
            and self._drain_stores(now) > 0
        )
        if self._cache_dirty:
            self._refresh_cache()
        if self._gen_candidates:
            requests_before = self.stats.line_requests
            stalls_before = self.stats.request_queue_stalls
            if self._module_busy_until <= now:
                modules = self._all_modules
            else:
                modules = [
                    m for m, busy in enumerate(self._module_busy) if busy <= now
                ]
            if modules:
                pool_free = (
                    self._shared_pool_free() if self.config.shared_fifo else None
                )
                chosen = self.scheduler.select(
                    self.streams.values(), len(modules), now,
                    pool_free=pool_free,
                )
                for module, stream in zip(modules, chosen):
                    self._generate(stream, module, now)
            if (
                self.stats.line_requests != requests_before
                or self.stats.request_queue_stalls != stalls_before
            ):
                progress = True

        stats = self.stats
        if stats.occupancy_samples < (1 << 30):
            stats.occupancy_samples += self._occ_samples
            stats.occupancy_total += self._occ_total
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
        if self._cache_dirty:
            self._refresh_cache()
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

    def _generate(self, stream: EngineStream, module: int, now: float) -> None:
        line = stream.next_line_request()
        if line is None:
            return
        stats = self.stats
        hierarchy = self.hierarchy
        addr = line * self._line_bytes
        # The Memory Request Queue stages requests between the address
        # generators and the arbiter (10-byte entries, §VI-C); issued
        # requests are tracked by the cache hierarchy's own MSHRs, so the
        # queue bounds the *unissued* backlog.  The arbiter issues up to
        # engine load_ports requests per cycle, which in this reservation
        # model happens the cycle a request is generated — the queue
        # therefore only fills when generation outpaces the ports, which
        # the per-module one-line-per-cycle limit already prevents.  A
        # safety bound keeps pathological bursts from bypassing it.
        outstanding = self._outstanding
        backlog = len(outstanding) - bisect.bisect_right(outstanding, now + 60)
        if backlog >= self._backlog_limit:
            # Page fault on a stream element: the element is flagged and
            # the exception handled when the consuming instruction
            # commits (§IV-A); the engine itself never traps, which is
            # what allows safe prefetching across page boundaries (A2).
            if not hierarchy.tlb.probe(addr):
                stats.page_faults += 1
            stats.request_queue_stalls += 1
            return
        # TLB translation through the engine's arbiter (A2: streams cross
        # page boundaries safely; faults are flagged, not raised, here).
        tlb = hierarchy.tlb
        fused = getattr(tlb, "stream_translate", None)
        if fused is not None:
            mapped, delay = fused(addr)
        else:  # test doubles that only model probe()/translate()
            mapped = tlb.probe(addr)
            try:
                delay = tlb.translate(addr)
            except Exception:
                delay = tlb.walk_latency
        if not mapped:
            stats.page_faults += 1
        level = self._level_override
        if level is None:
            level = stream.info.mem_level
        completion = hierarchy.stream_read(line, now + 1 + delay, level)
        bisect.insort(outstanding, completion)
        stats.line_requests += 1
        finished_chunk = stream.line_issued(completion)
        if finished_chunk is not None:
            self.stats.chunks_filled += 1
            self._cache_dirty = True
            if stream.crosses_dimension():
                busy = now + 1 + self.config.dim_switch_penalty
                self._module_busy[module] = busy
                if busy > self._module_busy_until:
                    self._module_busy_until = busy
                self.stats.dim_switch_stalls += 1

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

    def chunk_ready(self, uid: int, chunk: int) -> float:
        return self._stream(uid).ready_cycle(chunk)

    def rename_read(self, uid: int, chunk: int) -> None:
        self._stream(uid).rename_read(chunk)

    def commit_read(self, uid: int, chunk: int) -> None:
        self._stream(uid).commit_read(chunk)
        self.stats.chunks_committed += 1
        self._cache_dirty = True

    def squash(self, uid: int, chunk: int) -> None:
        self._stream(uid).squash_to(chunk)
        self._cache_dirty = True

    def reserve_store(self, uid: int) -> bool:
        return self._stream(uid).reserve_store()

    def commit_write(self, uid: int, chunk: int, now: float) -> None:
        """Consuming store committed: queue its line writes to the L1."""
        stream = self._stream(uid)
        info = stream.info
        lines = []
        last = -1
        for addr in info.chunks[chunk]:
            line = addr // self.hierarchy.line_bytes
            if line != last:
                lines.append(line)
                last = line
        for index, line in enumerate(lines):
            self._store_queue.append((now, line, info.mem_level))
            # The FIFO entry (one chunk) frees when its final line drains.
            self._store_meta.append(stream if index == len(lines) - 1 else None)

    def terminate(self, uid: int) -> None:
        stream = self.streams.get(uid)
        if stream is not None:
            stream.terminate()
            self._cache_dirty = True

    def _drain_stores(self, now: float) -> int:
        """Issue queued stream stores, one per store port per cycle; the
        L1 applies backpressure through MSHR availability.  Returns the
        number of lines drained this cycle."""
        drained = 0
        queue = self._store_queue
        meta = self._store_meta
        l1d = self._l1d
        hierarchy = self.hierarchy
        for _ in range(self.config.store_ports):
            if not queue:
                return drained
            ready, line, level = queue[0]
            if ready > now:
                return drained
            if not l1d.can_accept(now):
                return drained
            queue.popleft()
            stream = meta.popleft()
            done = hierarchy.stream_write(line, now, level)
            if stream is not None:
                stream.drain_store()
            self.stats.store_lines += 1
            if done > self.last_drain_cycle:
                self.last_drain_cycle = done
            drained += 1
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
