"""Slot-based resource reservation for bandwidth-limited structures.

A :class:`SlotReservoir` models a resource that can start at most
``lanes`` operations per ``slot_cycles`` window (a cache port, a DRAM
channel).  Unlike a strictly serial next-free-time reservation, a
request takes the *first free slot at or after its own arrival time*, so
work scheduled in the future (posted writebacks, delayed fills) never
delays requests happening now — causality is preserved in the
reservation-based timing model.

A saturated resource books slots far ahead of the requests arriving
(an L2 port fed by the Streaming Engine runs dozens of slots ahead), so
the search for the first free slot follows skip pointers over full
slots instead of stepping through them one at a time.
"""
from __future__ import annotations


class SlotReservoir:
    def __init__(self, lanes: int, slot_cycles: float) -> None:
        if lanes < 1 or slot_cycles <= 0:
            raise ValueError("lanes >= 1 and slot_cycles > 0 required")
        self.lanes = lanes
        self.slot_cycles = slot_cycles
        self._unit = slot_cycles == 1.0  # cache ports: skip the division
        self._busy = {}  # slot index -> reservations
        #: full slot index -> a later slot to look at next.  Exactly the
        #: full slots have an entry, and following the pointers from one
        #: reaches the first slot after it with a free lane; the path is
        #: compressed on every search.
        self._skip = {}
        self._prune_in = 8192  # reservations until the next prune sweep
        self._low_watermark = 0

    def reserve(self, t: float) -> float:
        """Claim the first free slot at or after ``t``; returns its start."""
        index = int(t) if self._unit else int(t / self.slot_cycles)
        skip = self._skip
        if index in skip:
            index = self._first_free(index)
        busy = self._busy
        count = busy.get(index, 0) + 1
        busy[index] = count
        if count == self.lanes:
            skip[index] = index + 1
        self._prune_in -= 1
        if not self._prune_in:
            self._prune_in = 8192
            self._prune(index)
        start = index * self.slot_cycles
        return t if t >= start else start

    def _first_free(self, index: int) -> int:
        """The first slot with a free lane after full slot ``index``."""
        skip = self._skip
        path = []
        while index in skip:
            path.append(index)
            index = skip[index]
        for full in path:
            skip[full] = index
        return index

    def _prune(self, current_index: int) -> None:
        """Drop bookkeeping for slots far in the past."""
        horizon = current_index - 100_000
        if horizon <= self._low_watermark:
            return
        self._busy = {k: v for k, v in self._busy.items() if k >= horizon}
        self._skip = {k: v for k, v in self._skip.items() if k >= horizon}
        self._low_watermark = horizon

    def occupancy(self, t: float) -> int:
        """Reservations in the slot containing ``t`` (introspection)."""
        return self._busy.get(int(t / self.slot_cycles), 0)
