"""The complete memory hierarchy: L1D -> L2 -> DRAM, with stream bypass.

Demand (core) accesses walk the full hierarchy.  Stream accesses take the
paper's configurable path (§IV-A *Cache Access*): by default they are
issued as non-cacheable at the L1 and as normal loads at the L2; an
L1-configured stream behaves like a demand access; a memory-configured
stream bypasses both caches.  Output streams are always issued to the L1.
"""
from __future__ import annotations

from repro.cpu.config import MachineConfig
from repro.memory.cache import Cache
from repro.memory.dram import Dram
from repro.memory.prefetchers import AmpmPrefetcher, StridePrefetcher
from repro.memory.tlb import Tlb
from repro.streams.pattern import MemLevel

#: the stream levels, bound once: reading a member off an ``Enum`` class
#: costs about ten times a module global
_L1 = MemLevel.L1
_L2 = MemLevel.L2


class MemoryHierarchy:
    """Timing-side memory system (functional data lives in
    :class:`repro.memory.backing.Memory`)."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        #: the one line size of every level (MachineConfig checks they
        #: agree): each level is indexed by the same line numbers
        self.line_bytes = config.l1d.line_bytes
        self.dram = Dram(config.dram)
        pf = config.prefetch
        l2_prefetcher = (
            AmpmPrefetcher(
                zones=pf.l2_ampm_zones,
                queue_size=pf.l2_ampm_queue,
                line_bytes=self.line_bytes,
            )
            if pf.l2_ampm_enabled
            else None
        )
        l1_prefetcher = (
            StridePrefetcher(
                depth=pf.l1_stride_depth,
                table_entries=pf.l1_stride_table_entries,
                line_bytes=self.line_bytes,
            )
            if pf.l1_stride_enabled
            else None
        )
        self.l2 = Cache(config.l2, self.dram, prefetcher=l2_prefetcher)
        self.l1d = Cache(config.l1d, self.l2, prefetcher=l1_prefetcher)
        self.tlb = Tlb()
        # The stream line path, bound once: it runs for every line the
        # Streaming Engine requests.
        self._l1_bypass_port = self.l1d.ports.reserve
        self._l1_stats = self.l1d.stats
        self._l2_access = self.l2.access

    # -- Address helpers -------------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr // self.line_bytes

    # -- Demand (core pipeline) path ----------------------------------------------

    def demand_access(
        self, addr: int, now: float, is_write: bool, pc: int = 0
    ) -> float:
        now += self.tlb.translate(addr)
        return self.l1d.access(addr // self.line_bytes, now, is_write, pc)

    # -- Streaming Engine path ------------------------------------------------------

    def stream_read(self, line: int, now: float, level: MemLevel) -> float:
        if level is _L2:
            # Non-cacheable at L1: one L1 port cycle, counted as a bypass
            # and not allocated there, then a normal load at L2.
            self._l1_stats.bypasses += 1
            return self._l2_access(line, self._l1_bypass_port(now) + 1, False)
        if level is _L1:
            return self.l1d.access(line, now, False)
        # Direct memory access: non-cacheable at every level.
        return self.dram.access(line, now + 2, False)

    def stream_write(self, line: int, now: float, level: MemLevel) -> float:
        # The evaluated implementation forces stream stores to the L1.
        return self.l1d.access(line, now, True)

    # -- Event horizons ---------------------------------------------------------

    def l1_accept_horizon(self, now: float) -> float:
        """Earliest cycle a posted store blocked on ``l1d.can_accept``
        could be accepted (``inf`` when no in-flight fill will free an
        MSHR) — used by the pipeline's event-horizon fast-forward."""
        return self.l1d.next_mshr_free(now)

    # -- Warmup ---------------------------------------------------------------

    def warm(self, base: int, nbytes: int) -> None:
        """Pre-install an address range into the L2 (warm-cache runs, as
        in the paper's steady-state kernel measurements).  Ranges larger
        than the L2 overflow naturally through LRU replacement."""
        first = self.line_of(base)
        last = self.line_of(base + max(nbytes - 1, 0))
        for line in range(first, last + 1):
            self.l2.warm(line)

    # -- Statistics --------------------------------------------------------------

    def bus_utilization(self, elapsed_cycles: float) -> float:
        return self.dram.bus_utilization(elapsed_cycles)
