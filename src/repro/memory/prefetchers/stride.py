"""PC-indexed stride prefetcher (Table I: L1-D, depth 16).

The classic reference-prediction-table design: per-PC entries track the
last address and observed stride with a 2-bit confidence counter; once
confident, lines up to ``depth`` strides ahead are prefetched.
"""
from __future__ import annotations

from typing import List


class _Entry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self) -> None:
        self.last_addr = -1
        self.stride = 0
        self.confidence = 0


class StridePrefetcher:
    """Returns candidate prefetch line addresses per observed access."""

    def __init__(
        self,
        depth: int = 16,
        degree: int = 2,
        table_entries: int = 64,
        line_bytes: int = 64,
    ) -> None:
        self.depth = depth
        self.degree = degree  # max prefetches issued per trigger access
        self.line_bytes = line_bytes
        self._table = [_Entry() for _ in range(table_entries)]
        self._mask = table_entries - 1
        self.trained = 0
        self.issued = 0

    def observe(self, pc: int, addr: int) -> List[int]:
        """Record a demand access; return line addresses to prefetch."""
        entry = self._table[pc & self._mask]
        out: List[int] = []
        if entry.last_addr >= 0:
            stride = addr - entry.last_addr
            if stride != 0 and stride == entry.stride:
                if entry.confidence < 3:
                    entry.confidence += 1
            else:
                entry.stride = stride
                if entry.confidence > 0:
                    entry.confidence -= 1
        entry.last_addr = addr
        stride = entry.stride
        if entry.confidence >= 2 and stride != 0:
            self.trained += 1
            line = self.line_bytes
            degree = self.degree
            current = addr // line
            # Issue up to ``degree`` new lines per trigger, working outward
            # from the prefetch distance (the cache drops duplicates).
            for k in range(self.depth, 0, -1):
                target = (addr + k * stride) // line
                if target >= 0 and target != current and target not in out:
                    out.append(target)
                if len(out) >= degree:
                    break
            self.issued += len(out)
        return out
