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
from types import MappingProxyType
from typing import List, Mapping

from repro.cpu.config import CacheConfig
from repro.memory.coherence import Event, LineState, next_state
from repro.memory.slots import SlotReservoir

#: MOESI transitions pre-resolved for the two events the access path
#: applies, derived from the full table so they can never drift from it:
#: a local STORE moves every state to the one state unpacked here
#: (MODIFIED), and an EVICT writes back exactly the states listed here
#: (the dirty M and O).  Neither lookup hashes a ``LineState``: its
#: ``Enum.__hash__`` runs in Python, and a tuple test compares identity.
(_STORED,) = {next_state(s, Event.STORE)[0] for s in LineState}
_WRITEBACK_STATES = tuple(s for s in LineState if next_state(s, Event.EVICT)[2])
#: the fill states, bound once: reading a member off an ``Enum`` class
#: costs about ten times a module global
_MODIFIED = LineState.MODIFIED
_EXCLUSIVE = LineState.EXCLUSIVE
#: every set starts as this shared, read-only, empty mapping and gets its
#: own ``OrderedDict`` when a line is first filled into it (``_insert``),
#: so a fresh hierarchy builds no dict for a set a short run never
#: touches.  Lookups, ``len`` and iteration read it like any empty set;
#: only the two writers that start from a missing line (``_insert``,
#: ``warm``) test for it.
_UNFILLED: Mapping[int, "_Line"] = MappingProxyType({})


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
        self._sets: List[Mapping[int, _Line]] = [_UNFILLED] * config.num_sets
        self._num_sets = config.num_sets
        self._mshr_ready: List[float] = []  # in-flight fill completion times
        #: access ports: one slot per access (a stream read that bypasses
        #: this level still occupies one, see MemoryHierarchy.stream_read)
        self.ports = SlotReservoir(config.ports, 1.0)
        self.stats = CacheStats()
        # Hot-path scalars hoisted out of the config dataclass.
        self._hit_latency = config.hit_latency
        self._assoc = config.assoc
        self._mshrs = config.mshrs
        self._line_bytes = config.line_bytes
        self._prefetch_mshrs = config.mshrs // 2 or 1
        self._reserve_port = self.ports.reserve

    # -- Lookup helpers --------------------------------------------------------

    def _set_of(self, line: int) -> Mapping[int, _Line]:
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
        ready = self._mshr_ready
        if len(ready) < self._mshrs:
            return True
        live = 0
        for t in ready:
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

    # -- Main access path ---------------------------------------------------------

    def access(
        self,
        line: int,
        now: float,
        is_write: bool = False,
        pc: int = 0,
    ) -> float:
        """Access one cache line; returns the data-ready cycle."""
        stats = self.stats
        stats.accesses += 1
        now = self._reserve_port(now)
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
                entry.state = _STORED
        else:
            stats.misses += 1
            # MSHR reservation: with every MSHR busy past ``start`` the
            # miss waits for the earliest to free.
            start = now + hit_latency
            live = [t for t in self._mshr_ready if t > start]
            if len(live) >= self._mshrs:
                start = min(live)
                live = [t for t in live if t > start]
            fill_ready = self.next_level.access(line, start, False)
            live.append(fill_ready)
            self._mshr_ready = live
            state = _MODIFIED if is_write else _EXCLUSIVE
            self._insert(line, fill_ready, state, False)
            done = fill_ready + 1  # fill-to-use forwarding
        prefetcher = self.prefetcher
        if prefetcher is None:
            return done
        targets = prefetcher.observe(pc, line * self._line_bytes)
        if not targets:
            return done
        # Fill the targets not already cached.  Prefetches may use at
        # most half the MSHRs, so they can never starve demand misses.
        # The in-flight fills still live at ``now`` are filtered once:
        # every prefetch issued here completes after ``now`` and joins
        # them.
        sets = self._sets
        num_sets = self._num_sets
        live = None
        for target in targets:
            if target in sets[target % num_sets]:
                continue
            if live is None:
                live = [t for t in self._mshr_ready if t > now]
            if len(live) >= self._prefetch_mshrs:
                break  # no prefetch MSHR: drop it (never stall demand)
            ready = self.next_level.access(target, now + 1, False)
            live.append(ready)
            self._mshr_ready = live
            stats.prefetch_fills += 1
            self._insert(target, ready, _EXCLUSIVE, True)
        return done

    def _insert(
        self, line: int, ready: float, state: LineState, prefetched: bool
    ) -> None:
        """Install a line not in the cache as the most recently used,
        evicting the least recently used one from a full set."""
        sets = self._sets
        index = line % self._num_sets
        cset = sets[index]
        if cset is _UNFILLED:
            cset = sets[index] = OrderedDict()
        cset[line] = _Line(ready, state, prefetched)
        if len(cset) > self._assoc:
            victim_line, victim = cset.popitem(last=False)
            if victim.state in _WRITEBACK_STATES:
                self.stats.writebacks += 1
                # Dirty eviction: charge next-level bandwidth, off the
                # critical path.
                self.next_level.access(victim_line, ready, True)

    def warm(self, line: int) -> None:
        """Pre-install a line (warm-cache measurement), bypassing timing;
        a line already cached is installed afresh."""
        cset = self._sets[line % self._num_sets]
        if cset is not _UNFILLED:
            cset.pop(line, None)
        self._insert(line, 0.0, _EXCLUSIVE, False)
