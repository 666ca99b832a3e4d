"""Access Map Pattern Matching prefetcher (Ishii et al., ICS'09) —
Table I: attached to the L2, queue size 32.

Memory is divided into zones; each zone keeps a bitmap of the cache lines
accessed in it.  On each access the prefetcher tests candidate strides
*s*: if lines ``-s`` and ``-2s`` relative to the current one were already
accessed, the pattern matches and line ``+s`` (up to a small degree per
stride) is prefetched.  Outstanding prefetches are bounded by the queue
size.
"""
from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import List, Tuple

#: Candidate strides tested on each access (forward and backward).
_CANDIDATE_STRIDES = tuple(range(1, 9)) + tuple(range(-1, -9, -1))


@lru_cache(maxsize=None)
def _scan_plans(lines_per_zone: int, degree: int) -> Tuple[tuple, ...]:
    """Per zone offset, the stride scan with its bounds tests decided:
    ``(mask, targets)`` for each candidate stride *s*, in scan order,
    whose lines ``-s`` and ``-2s`` lie in the zone.  ``mask`` has the
    bits of those two lines; ``targets`` are the in-zone offsets among
    ``+s, +2s, ...`` (``degree`` of them before the zone-bounds test)."""
    plans = []
    for offset in range(lines_per_zone):
        plan = []
        for stride in _CANDIDATE_STRIDES:
            first, second = offset - stride, offset - 2 * stride
            if not (0 <= first < lines_per_zone and 0 <= second < lines_per_zone):
                continue
            targets = tuple(
                target
                for target in range(
                    offset + stride, offset + (degree + 1) * stride, stride
                )
                if 0 <= target < lines_per_zone
            )
            plan.append(((1 << first) | (1 << second), targets))
        plans.append(tuple(plan))
    return tuple(plans)


class AmpmPrefetcher:
    """Zone-bitmap pattern-matching prefetcher."""

    def __init__(
        self,
        zones: int = 64,
        zone_bytes: int = 4096,
        queue_size: int = 32,
        degree: int = 2,
        line_bytes: int = 64,
    ) -> None:
        self.zone_bytes = zone_bytes
        self.lines_per_zone = zone_bytes // line_bytes
        self.line_bytes = line_bytes
        self.queue_size = queue_size
        self.degree = degree
        self._zones: "OrderedDict[int, int]" = OrderedDict()  # zone -> bitmap
        self._max_zones = zones
        #: the most recently used zone, already last in ``_zones``
        self._mru_zone = None
        self._plans = _scan_plans(self.lines_per_zone, degree)
        self.issued = 0

    def observe(self, pc: int, addr: int) -> List[int]:
        """Record a demand access; return line addresses to prefetch."""
        lpz = self.lines_per_zone
        line = addr // self.line_bytes
        zone = line // lpz
        offset = line % lpz
        zones = self._zones
        bitmap = zones.get(zone)
        if bitmap is None:
            if len(zones) >= self._max_zones:
                zones.popitem(last=False)
            zones[zone] = 1 << offset
            self._mru_zone = zone
            return []  # a new zone: no stride can match
        if zone != self._mru_zone:
            zones.move_to_end(zone)
            self._mru_zone = zone
        zones[zone] = bitmap | (1 << offset)
        # Stride scan on the bitmap before this access: a stride matches
        # when its two prior lines were accessed; its targets are then
        # appended, deduplicated, until ``degree`` are found.  A matching
        # stride yielding fewer lets the scan continue.
        out: List[int] = []
        degree = self.degree
        base = zone * lpz
        for mask, targets in self._plans[offset]:
            if bitmap & mask == mask:
                for target in targets:
                    candidate = base + target
                    if candidate not in out:
                        out.append(candidate)
                        if len(out) >= degree:
                            self.issued += len(out)
                            return out
        self.issued += len(out)
        return out
