"""Set-associative cache timing model with MSHRs and prefetcher hooks.

Timing is reservation-based: an access computes its completion cycle from
the current cache state, MSHR availability, and the next level's own
reservations — preserving bandwidth saturation and prefetch-timeliness
effects without a discrete event queue.  Lines carry MOESI states through
:mod:`repro.memory.coherence` (single-core evaluation, so bus events stem
only from evictions and upgrades).
"""
from __future__ import annotations

import math
from collections import OrderedDict
from typing import List, Optional

from repro.cpu.config import CacheConfig
from repro.memory.coherence import Event, LineState, next_state
from repro.memory.slots import SlotReservoir

#: MOESI transitions pre-resolved for the two events the access path
#: applies (derived from the full table, so they can never drift from it):
#: a local STORE moves every state to MODIFIED; an EVICT writes back only
#: dirty (M/O) lines.  Looking these up inline avoids hashing a
#: ``(state, event)`` tuple on every hot access.
_STORE_NEXT = {s: next_state(s, Event.STORE)[0] for s in LineState}
_EVICT_WRITEBACK = {s: next_state(s, Event.EVICT)[2] for s in LineState}


class _Line:
    __slots__ = ("ready", "state", "prefetched")

    def __init__(self, ready: float, state: LineState, prefetched: bool) -> None:
        self.ready = ready
        self.state = state
        self.prefetched = prefetched


class CacheStats:
    __slots__ = (
        "accesses",
        "hits",
        "misses",
        "late_hits",
        "writebacks",
        "prefetch_fills",
        "prefetch_hits",
        "bypasses",
    )

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.late_hits = 0  # hit on a line whose fill was still in flight
        self.writebacks = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0
        self.bypasses = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One cache level; ``next_level`` provides ``access(line, now, is_write)``."""

    def __init__(
        self,
        config: CacheConfig,
        next_level,
        prefetcher=None,
    ) -> None:
        self.config = config
        self.next_level = next_level
        self.prefetcher = prefetcher
        self._sets: List["OrderedDict[int, _Line]"] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self._num_sets = config.num_sets
        self._mshr_ready: List[float] = []  # in-flight fill completion times
        self._ports = SlotReservoir(config.ports, 1.0)
        self.stats = CacheStats()
        # Hot-path scalars hoisted out of the config dataclass.
        self._hit_latency = config.hit_latency
        self._assoc = config.assoc
        self._mshrs = config.mshrs
        self._port_lanes = config.ports

    def _reserve_port(self, now: float) -> float:
        """Occupy one access-port slot; returns the access start."""
        return self._ports.reserve(now)

    # -- Lookup helpers --------------------------------------------------------

    def _set_of(self, line: int) -> "OrderedDict[int, _Line]":
        return self._sets[line % self._num_sets]

    def contains(self, line: int) -> bool:
        return line in self._set_of(line)

    def line_state(self, line: int) -> LineState:
        entry = self._set_of(line).get(line)
        return entry.state if entry else LineState.INVALID

    # -- MSHR reservation -------------------------------------------------------

    def can_accept(self, now: float) -> bool:
        """True when a miss arriving now would get an MSHR immediately.

        Used for flow control by posted-store paths (the commit-side store
        queue and the Streaming Engine store drain), so reservations never
        run unboundedly ahead of simulated time."""
        live = 0
        for t in self._mshr_ready:
            if t > now:
                live += 1
        return live < self._mshrs

    def next_mshr_free(self, now: float) -> float:
        """Earliest future in-flight fill completion — the soonest cycle
        ``can_accept`` can change its answer (``inf`` when nothing is in
        flight).  Event-horizon introspection for the fast-forward path;
        claims nothing."""
        best = math.inf
        for t in self._mshr_ready:
            if now < t < best:
                best = t
        return best

    def _reserve_mshr(self, start: float, ready: float) -> float:
        """Returns the (possibly delayed) start once an MSHR frees up."""
        live = [t for t in self._mshr_ready if t > start]
        if len(live) >= self._mshrs:
            start = min(live)
            live = [t for t in live if t > start]
        self._mshr_ready = live
        self._mshr_ready.append(ready)
        return start

    # -- Main access path ---------------------------------------------------------

    def access(
        self,
        line: int,
        now: float,
        is_write: bool = False,
        pc: int = 0,
        cacheable: bool = True,
    ) -> float:
        """Access one cache line; returns the data-ready cycle."""
        stats = self.stats
        if not cacheable:
            stats.bypasses += 1
            # One cycle of port occupancy, then forward untouched.
            start = self._reserve_port(now)
            return self.next_level.access(line, start + 1, is_write)

        stats.accesses += 1
        # Port reservation, inlined from SlotReservoir.reserve (unit
        # slots); the reservoir object stays the canonical state so its
        # introspection helpers keep working.
        ports = self._ports
        busy = ports._busy
        lanes = self._port_lanes
        index = int(now)
        count = busy.get(index, 0)
        while count >= lanes:
            index += 1
            count = busy.get(index, 0)
        busy[index] = count + 1
        ports._prune_in -= 1
        if not ports._prune_in:
            ports._prune_in = 8192
            ports._prune(index)
        if index > now:
            now = float(index)
        cset = self._sets[line % self._num_sets]
        entry = cset.get(line)
        hit_latency = self._hit_latency
        if entry is not None:
            cset.move_to_end(line)
            stats.hits += 1
            if entry.prefetched:
                stats.prefetch_hits += 1
                entry.prefetched = False
            ready = entry.ready
            if ready > now:
                stats.late_hits += 1
                done = ready + hit_latency
            else:
                done = now + hit_latency
            if is_write:
                entry.state = _STORE_NEXT[entry.state]
        else:
            stats.misses += 1
            start = self._reserve_mshr(now + hit_latency, 0.0)
            fill_ready = self.next_level.access(line, start, False)
            self._mshr_ready[-1] = fill_ready
            state = LineState.MODIFIED if is_write else LineState.EXCLUSIVE
            self._insert(line, fill_ready, state, prefetched=False)
            done = fill_ready + 1  # fill-to-use forwarding
        if self.prefetcher is not None:
            self._run_prefetcher(pc, line, now)
        return done

    def _insert(
        self, line: int, ready: float, state: LineState, prefetched: bool
    ) -> None:
        cset = self._sets[line % self._num_sets]
        cset[line] = _Line(ready, state, prefetched)
        cset.move_to_end(line)
        if len(cset) > self._assoc:
            victim_line, victim = cset.popitem(last=False)
            if _EVICT_WRITEBACK[victim.state]:
                self.stats.writebacks += 1
                # Dirty eviction: charge next-level bandwidth, off the
                # critical path.
                self.next_level.access(victim_line, ready, True)

    def _run_prefetcher(self, pc: int, line: int, now: float) -> None:
        targets = self.prefetcher.observe(pc, line * self.config.line_bytes)
        if not targets:
            return
        # Prefetches may use at most half the MSHRs, so they can never
        # starve demand misses.
        budget = self._mshrs // 2 or 1
        sets = self._sets
        num_sets = self._num_sets
        next_access = self.next_level.access
        for target in targets:
            if target in sets[target % num_sets]:
                continue
            live = [t for t in self._mshr_ready if t > now]
            if len(live) >= budget:
                break  # no prefetch MSHR: drop it (never stall demand)
            ready = next_access(target, now + 1, False)
            live.append(ready)
            self._mshr_ready = live
            self.stats.prefetch_fills += 1
            self._insert(target, ready, LineState.EXCLUSIVE, prefetched=True)

    def warm(self, line: int) -> None:
        """Pre-install a line (warm-cache measurement), bypassing timing."""
        self._insert(line, 0.0, LineState.EXCLUSIVE, prefetched=False)
