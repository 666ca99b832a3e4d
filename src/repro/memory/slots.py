"""Slot-based resource reservation for bandwidth-limited structures.

A :class:`SlotReservoir` models a resource that can start at most
``lanes`` operations per ``slot_cycles`` window (a cache port, a DRAM
channel).  Unlike a strictly serial next-free-time reservation, a
request takes the *first free slot at or after its own arrival time*, so
work scheduled in the future (posted writebacks, delayed fills) never
delays requests happening now — causality is preserved in the
reservation-based timing model.
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
        self._prune_in = 8192  # reservations until the next prune sweep
        self._low_watermark = 0

    def reserve(self, t: float) -> float:
        """Claim the first free slot at or after ``t``; returns its start."""
        index = int(t) if self._unit else int(t / self.slot_cycles)
        busy = self._busy
        lanes = self.lanes
        count = busy.get(index, 0)
        while count >= lanes:
            index += 1
            count = busy.get(index, 0)
        busy[index] = count + 1
        self._prune_in -= 1
        if not self._prune_in:
            self._prune_in = 8192
            self._prune(index)
        start = index * self.slot_cycles
        return t if t >= start else start

    def _prune(self, current_index: int) -> None:
        """Drop bookkeeping for slots far in the past."""
        horizon = current_index - 100_000
        if horizon <= self._low_watermark:
            return
        self._busy = {k: v for k, v in self._busy.items() if k >= horizon}
        self._low_watermark = horizon

    def occupancy(self, t: float) -> int:
        """Reservations in the slot containing ``t`` (introspection)."""
        return self._busy.get(int(t / self.slot_cycles), 0)
