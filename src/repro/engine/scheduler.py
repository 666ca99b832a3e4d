"""Stream Scheduler: selects the streams the Stream Processing Modules
iterate each cycle (paper §IV-B *Stream Scheduler Policy*).

The default policy prioritises streams whose FIFO queues are least
occupied — the most-consumed FIFO gets refilled first.  A round-robin
policy is provided for the ablation benchmark.

Which streams may fetch, and in what order, changes only when a stream's
state does (configured, chunk filled, chunk committed, terminated).  The
engine reports each such event (:meth:`StreamScheduler.update`), and the
scheduler re-places just that stream in its rank-ordered candidate list;
each cycle :meth:`StreamScheduler.select` then only filters and picks
from the front of that list (rotated under round-robin).
"""
from __future__ import annotations

from bisect import bisect_right
from typing import List, Set

from repro.engine.table import EngineStream
from repro.errors import ConfigError


class StreamScheduler:
    def __init__(
        self, policy: str = "fifo-occupancy", shared_fifo: bool = False
    ) -> None:
        if policy not in ("fifo-occupancy", "round-robin"):
            raise ConfigError(f"unknown stream scheduler policy {policy!r}")
        self.policy = policy
        self._rotate = policy == "round-robin"
        self._rr_next = 0
        #: fetch-ahead bound in nominal FIFO depths: a pooled FIFO lets a
        #: stream borrow up to 4x its depth while the pool has room
        self._borrow = 4 if shared_fifo else 1
        #: the streams that may generate a line request, in rank order,
        #: with the rank of each
        self.candidates: List[EngineStream] = []
        self._ranks: list = []
        self._queued: Set[EngineStream] = set()

    def update(self, stream: EngineStream) -> None:
        """Re-place ``stream`` after an event changed its state.  No other
        stream's rank moved, so the list stays in rank order.

        A stream ranks by its FIFO occupancy (uid breaks ties) or, under
        round-robin, by its Stream Table order, which is its start cycle
        (the SCROB starts streams one per cycle, in order)."""
        gen_next = stream.gen_next
        occupancy = gen_next - stream.commit_head
        queued = self._queued
        candidates = self.candidates
        ranks = self._ranks
        if (
            stream.is_load
            and not stream.terminated
            and gen_next < stream.num_chunks
            and occupancy < self._borrow * stream.fifo_depth
        ):
            rank = stream.start_cycle if self._rotate else (occupancy, stream.uid)
            if stream in queued:
                index = candidates.index(stream)
                if (index == 0 or ranks[index - 1] <= rank) and (
                    index + 1 == len(ranks) or rank <= ranks[index + 1]
                ):
                    ranks[index] = rank  # still in order where it stands
                    return
                del candidates[index]
                del ranks[index]
            else:
                queued.add(stream)
            index = bisect_right(ranks, rank)
            candidates.insert(index, stream)
            ranks.insert(index, rank)
        elif stream in queued:
            queued.remove(stream)
            index = candidates.index(stream)
            del candidates[index]
            del ranks[index]

    def select(
        self, now: float, count: int, latest_start: float, pool_full: bool
    ) -> List[EngineStream]:
        """Up to ``count`` candidates for this cycle, in rank order: those
        started by ``now`` (all have by ``latest_start``) and, while a
        pooled FIFO is full, only those under their nominal depth (the
        fixed-queue floor).  Round-robin rotates the starting point each
        cycle it picks."""
        eligible = self.candidates
        if now < latest_start:
            eligible = [s for s in eligible if s.start_cycle <= now]
        if pool_full:
            eligible = [
                s for s in eligible
                if s.gen_next - s.commit_head < s.fifo_depth
            ]
        if not eligible:
            return []
        if self._rotate:
            start = self._rr_next % len(eligible)
            self._rr_next += 1
            if start:
                eligible = eligible[start:] + eligible[:start]
        return eligible[:count]
