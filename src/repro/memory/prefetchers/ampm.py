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
from typing import List

#: Candidate strides tested on each access (forward and backward).
_CANDIDATE_STRIDES = tuple(range(1, 9)) + tuple(range(-1, -9, -1))


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
        self.issued = 0

    def observe(self, pc: int, addr: int) -> List[int]:
        """Record a demand access; return line addresses to prefetch."""
        lpz = self.lines_per_zone
        line = addr // self.line_bytes
        zone, offset = divmod(line, lpz)
        zones = self._zones
        bitmap = zones.get(zone)
        if bitmap is None:
            bitmap = 0
            if len(zones) >= self._max_zones:
                zones.popitem(last=False)
        else:
            zones.move_to_end(zone)
        zones[zone] = bitmap | (1 << offset)
        out: List[int] = []
        degree = self.degree
        base = zone * lpz
        # Stride scan on the raw bitmap (a per-call closure here shows up
        # on the simulator's hot path — every L2 demand access).  The
        # inner candidate loop is unrolled into explicit dedup'd appends;
        # a matching stride yielding fewer than ``degree`` targets lets
        # the scan continue with the next stride, as before.
        for stride in _CANDIDATE_STRIDES:
            index = offset - stride
            if index < 0 or index >= lpz or not (bitmap >> index) & 1:
                continue
            index -= stride
            if index < 0 or index >= lpz or not (bitmap >> index) & 1:
                continue
            target = offset + stride
            for _ in range(degree):
                if 0 <= target < lpz:
                    candidate = base + target
                    if candidate not in out:
                        out.append(candidate)
                if len(out) >= degree:
                    break
                target += stride
            if len(out) >= degree:
                break
        self.issued += len(out)
        return out
