"""Out-of-order core timing model (paper §IV, Table I).

A cycle-driven pipeline consuming the functional simulator's dynamic
trace: fetch (4-wide, gshare-predicted branches; a misprediction stalls
fetch until the branch resolves plus the front-end redirect depth),
rename/dispatch (RAT producers, physical-register/ROB/IQ/LQ/SQ structural
limits — stalls here are the paper's Fig. 8.C metric), per-cluster
24-entry schedulers, issue (2 int ALUs, 2 FP/vector units, 2 load + 1
store ports, 8-wide total), execution latencies per op class, memory
through the cache hierarchy, and 4-wide in-order commit.

Streaming instructions interact with the
:class:`~repro.engine.engine.StreamingEngine`: configurations register at
rename through the SCROB; stream-consuming ops wait for their FIFO entry
instead of a register producer and release it at commit; stream-producing
ops reserve Store FIFO entries at rename (stalling when full) and drain
to the L1 after commit.
"""
from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

from repro.cpu.branch_pred import GsharePredictor
from repro.cpu.config import MachineConfig
from repro.cpu.stats import PipelineStats
from repro.engine.engine import StreamingEngine
from repro.errors import ConfigError
from repro.isa.instructions import Instruction
from repro.isa.microop import FuCluster, OpClass
from repro.isa.registers import Reg, RegClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.trace import DynOp, StreamTraceInfo

_BANK_OF = {RegClass.X: "int", RegClass.F: "fp", RegClass.V: "vec"}

#: op classes whose accumulator operand benefits from MAC->MAC forwarding
_MAC_CLASSES = (OpClass.VEC_MAC, OpClass.FP_MAC)

#: architectural register -> small int key (bank offset + index); the
#: RAT is a flat list indexed by these keys
_KEY_BASE = {cls: 32 * i for i, cls in enumerate(RegClass)}
_RAT_SIZE = 32 * len(RegClass)


def _reg_key(reg: Reg) -> int:
    return _KEY_BASE[reg.cls] + reg.index


def _vec_index(reg: Reg) -> int:
    """The index the stream-register exclusions test (-1: not a vector
    register, so never a stream register)."""
    return reg.index if reg.cls is RegClass.V else -1


class _Decoded:
    """What the timing model derives from one static instruction, decoded
    once per :class:`Pipeline` on the first fetch of its pc.

    Per pipeline, not per instruction: the latency and the MAC
    forwarding pairing come from that pipeline's config.
    """

    __slots__ = (
        "inst",
        "sched",
        "is_branch",
        "is_load",
        "is_store",
        "is_stream_co",
        "needed_banks",
        "alloc_dests",
        "srcs",
        "dest_keys",
        "early_keys",
        "mac_dest",
        "latency",
        "stop_reg",
    )

    def __init__(self, pipeline: "Pipeline", inst: Instruction) -> None:
        oc = inst.opclass
        dests = inst.dests
        self.inst = inst
        self.is_branch = oc is OpClass.BRANCH
        self.is_load = is_load = oc.is_load
        self.is_store = is_store = oc.is_store
        self.is_stream_co = is_stream_co = oc in (
            OpClass.STREAM_CFG,
            OpClass.STREAM_CTL,
        )
        #: scheduler queue this op dispatches to (None: completes outside
        #: the execution clusters)
        self.sched = (
            None
            if oc.cluster is FuCluster.NONE or is_stream_co
            else pipeline._sched[oc.cluster]
        )
        #: (vector index, bank) of each destination allocating a physical
        #: register, and the per-bank totals the structural check needs.
        #: Stream config/control name streams via the Stream Alias Table,
        #: not physical vector registers.
        alloc = []
        if not is_stream_co:
            for dest in dests:
                bank = _BANK_OF.get(dest.cls)
                if bank is not None:
                    alloc.append((_vec_index(dest), bank))
        self.alloc_dests = tuple(alloc)
        needed: Dict[str, int] = {}
        for _, bank in alloc:
            needed[bank] = needed.get(bank, 0) + 1
        self.needed_banks = tuple(needed.items())
        self.srcs = tuple((_reg_key(src), _vec_index(src)) for src in inst.srcs)
        self.dest_keys = tuple(_reg_key(dest) for dest in dests)
        self.early_keys = tuple(_reg_key(dest) for dest in inst.early_dests)
        #: key of the accumulator a forwarding MAC reads and writes (-1:
        #: no MAC->MAC forwarding for this op under this config)
        self.mac_dest = (
            self.dest_keys[0]
            if pipeline._mac_forwarding and oc in _MAC_CLASSES and dests
            else -1
        )
        self.latency = (
            pipeline._latency[oc]
            if self.sched is not None and not (is_load or is_store)
            else 0
        )
        #: u register whose aliased stream a ``stream.stop`` terminates
        self.stop_reg = (
            inst.u.index
            if oc is OpClass.STREAM_CTL
            and getattr(inst, "kind", None) == "stop"
            else -1
        )


class _Op:
    """In-flight instruction state."""

    __slots__ = (
        "dyn",
        "dec",
        "producers",
        "waiters",
        "stream_waits",
        "store_streams",
        "complete",
        "early_complete",
        "issued",
        "is_load",
        "is_store",
        "wake_at",
        "mem_lines",
        "allocs",
        "mispredicted",
    )

    def __init__(self, dyn: DynOp, dec: _Decoded) -> None:
        self.dyn = dyn
        self.dec = dec
        #: (producer, wants_early, forward_bonus) triples; pruned as they
        #: are satisfied
        self.producers: List = []
        #: ops parked on this one until _execute gives it a completion time
        self.waiters: Optional[List["_Op"]] = None
        self.stream_waits = ()
        self.store_streams = ()
        self.complete: Optional[float] = None
        self.early_complete: Optional[float] = None
        self.issued = False
        self.is_load = dec.is_load
        self.is_store = dec.is_store
        #: cycle before which _ready is known to return False (exact; 0.0
        #: when a blocking stream chunk has no known time yet, inf while
        #: parked on an op that has not issued)
        self.wake_at = 0.0
        self.mem_lines: List[int] = []
        #: ((bank, count), ...) of physical registers allocated at rename
        self.allocs = ()
        self.mispredicted = False


class Pipeline:
    """The timing model; one instance per simulation run."""

    def __init__(
        self,
        config: MachineConfig,
        hierarchy: Optional[MemoryHierarchy] = None,
        stream_infos: Optional[Dict[int, StreamTraceInfo]] = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy or MemoryHierarchy(config)
        self.stream_infos = stream_infos or {}
        self.engine = (
            StreamingEngine(config.engine, self.hierarchy)
            if config.streaming
            else None
        )
        if not config.streaming and stream_infos:
            raise ConfigError(
                "trace contains stream operations but the machine has no "
                "Streaming Engine (streaming=False)"
            )
        self.predictor = GsharePredictor()
        self.stats = PipelineStats()
        core = config.core
        self._latency = config.latencies
        self._mac_forwarding = core.mac_forwarding
        # Hot-path scalars hoisted out of the config dataclasses (every
        # per-cycle stage reads several of these).
        self._fetch_width = core.fetch_width
        self._commit_width = core.commit_width
        self._issue_width = core.issue_width
        self._decode_queue = core.decode_queue
        self._frontend_depth = core.frontend_depth
        self._rob_entries = core.rob_entries
        self._iq_entries = core.iq_entries
        self._lq_entries = core.lq_entries
        self._sq_entries = core.sq_entries
        self._scheduler_entries = core.scheduler_entries
        self._core_load_ports = core.load_ports
        self._core_store_ports = core.store_ports
        #: rename short-circuit while blocked on a full stream Store FIFO:
        #: (decode-head op, blocking stream).  While rename is stalled no
        #: structure fills up (ROB/IQ/LQ/SQ/registers only drain), so the
        #: recorded cause stays correct until the blocking stream's
        #: ``store_drained`` counter advances — re-checked live each cycle.
        self._rename_block = None
        # Structural resources (counters).
        self._rob = 0
        self._iq = 0
        self._lq = 0
        self._sq = 0
        self._free = {
            "int": core.int_phys_regs - 32,
            "fp": core.fp_phys_regs - 32,
            "vec": core.vec_phys_regs - 32,
        }
        # Pipeline structures.
        self._decode: Deque[_Op] = deque()
        self._rob_q: Deque[_Op] = deque()
        self._sched: Dict[FuCluster, List[_Op]] = {
            FuCluster.INT: [],
            FuCluster.FP: [],
            FuCluster.MEM: [],
        }
        #: issue order with per-cluster port counts, binding the queue
        #: lists directly (they are compacted in place, never rebound) so
        #: the per-cycle issue loop does no enum-keyed dict lookups
        self._issue_plan = (
            (self._sched[FuCluster.MEM], True, core.load_ports + core.store_ports),
            (self._sched[FuCluster.FP], False, core.fp_units),
            (self._sched[FuCluster.INT], False, core.int_alus),
        )
        #: register key (see _reg_key) -> latest in-flight producer
        self._rat: List[Optional[_Op]] = [None] * _RAT_SIZE
        #: pc -> _Decoded of its static instruction
        self._decoded: Dict[int, _Decoded] = {}
        #: line -> in-flight (renamed, not yet drained) store ops, oldest
        #: first; loads must wait for every older store to the same line
        self._store_by_line: Dict[int, List[_Op]] = {}
        #: committed demand stores awaiting L1 acceptance (SQ drains here)
        self._post_stores: Deque = deque()
        self._block_branch: Optional[_Op] = None
        self._resume_fetch_at = 0.0
        self._trace_done = False
        #: Stream Alias Table at commit: architectural stream register ->
        #: uid of the latest *committed* configuration.  ``stream.stop``
        #: terminates only the stream its register currently aliases, not
        #: later reconfigurations that reuse the register.
        self._stream_alias: Dict[int, int] = {}
        #: cycles elided by the event-horizon fast path (diagnostic; not
        #: part of PipelineStats, which must be identical with it off)
        self.ff_skipped_cycles = 0
        #: optional callable(event, dyn_op, cycle) receiving "rename",
        #: "issue", and "commit" events (used by repro.sim.debug)
        self.observer = None

    # ------------------------------------------------------------------ run --

    def run(self, trace: Iterable[DynOp]) -> PipelineStats:
        trace_iter = iter(trace)
        cycle = 0.0
        line_bytes = self.hierarchy.line_bytes
        fast_forward = self.config.fast_forward
        stats = self.stats
        engine = self.engine
        engine_tick = engine.tick if engine is not None else None
        rob_q = self._rob_q
        decode = self._decode
        commit = self._commit
        issue = self._issue
        rename = self._rename
        fetch = self._fetch
        guard = 0
        while True:
            # Every stage reports whether it changed any machine state
            # this cycle; a fully quiescent cycle is eligible for the
            # event-horizon fast path below.  A stage whose input is
            # empty or provably blocked (a ROB head that has not
            # completed, an empty issue queue, an empty decode queue) is
            # not called: the call could only report "no progress".
            progress = False
            if engine_tick is not None:
                progress = engine_tick(cycle)
            if self._post_stores and self._drain_post_stores(cycle):
                progress = True
            if rob_q:
                # _commit's own head gate: a head completed by cycle-1
                # commits, and nothing else can.
                head_t = rob_q[0].complete
                if head_t is not None and head_t <= cycle - 1:
                    commit(cycle)
                    progress = True
            if self._iq and issue(cycle):
                progress = True
            fetch_stalls_before = stats.fetch_stall_cycles
            if decode:
                renamed, block_cause = rename(cycle)
            else:
                renamed, block_cause = 0, None
            if renamed:
                progress = True
            if fetch(cycle, trace_iter, line_bytes):
                progress = True
            if self._trace_done and not rob_q and not decode:
                if not (
                    self._post_stores
                    or (engine is not None and engine.stores_pending)
                ):
                    break
            if fast_forward and not progress:
                skipped = int(self._event_horizon(cycle) - cycle) - 1
                if skipped > 0:
                    # Nothing can change before the horizon, so every
                    # skipped cycle would have repeated this cycle's
                    # stall accounting exactly — back-fill it.
                    if stats.fetch_stall_cycles != fetch_stalls_before:
                        stats.fetch_stall_cycles += skipped
                    if block_cause is not None:
                        stats.rename_block_cycles += skipped
                        stats.rename_block_causes[block_cause] += skipped
                    if engine is not None:
                        engine.skip_idle(skipped)
                    self.ff_skipped_cycles += skipped
                    cycle += skipped
            cycle += 1
            guard += 1
            if guard > 200_000_000:
                raise ConfigError("timing simulation exceeded cycle guard")
        end = cycle
        if self.engine is not None:
            end = max(end, self.engine.last_drain_cycle)
        self.stats.cycles = max(end, 1.0)
        self.stats.bus_utilization = self.hierarchy.bus_utilization(
            self.stats.cycles
        )
        self.stats.branch_mispredicts = self.predictor.mispredictions
        self.stats.branches = self.predictor.predictions
        return self.stats

    # ----------------------------------------------------- event horizon --

    def _event_horizon(self, now: float) -> float:
        """Earliest future cycle at which any pipeline state can change.

        Only called on cycles where no stage made progress.  Every
        blocking condition in the model unblocks when simulated time
        crosses some already-known completion time, so the machine state
        is provably frozen until the minimum of those horizons:

        * the ROB head's completion (the only completion that can
          unblock the in-order commit stage) at ``t + 1``;
        * scheduler residents' wake-up times, read off the exact state
          ``_ready`` consults: unsatisfied producer links (with the MAC
          forwarding bonus already folded in), and older same-line
          stores blocking a load;
        * a blocked branch's resolution plus the front-end redirect;
        * ``_resume_fetch_at``;
        * Streaming Engine state: SCROB free time, module dimension-
          switch busy times, stream start cycles, and load-FIFO
          ``chunk_ready`` times (these cover stream_waits);
        * posted stores: the engine store queue's head ready time and
          the L1's next-MSHR-free (``can_accept``) horizon.

        Non-head, non-scheduler completions need no event: in-order
        commit means nothing observes them until the head commits, and
        that is itself a simulated (progress) cycle.  Returning a
        too-early cycle is always safe (the resumed cycle simply makes
        no progress and skips again); returning a too-late cycle never
        happens because each collected horizon is exactly the first
        cycle its condition can flip.
        """
        inf = math.inf
        ceil = math.ceil
        best = inf
        blocker = self._block_branch
        if blocker is not None and blocker.complete is not None:
            c = ceil(blocker.complete + self.config.core.frontend_depth)
            if now < c < best:
                best = c
        if self._resume_fetch_at > now:
            c = ceil(self._resume_fetch_at)
            if now < c < best:
                best = c
        if self._rob_q:
            t = self._rob_q[0].complete
            if t is not None:
                c = ceil(t) + 1
                if now < c < best:
                    best = c
        store_by_line = self._store_by_line
        for queue in self._sched.values():
            for op in queue:
                for producer, early, bonus in op.producers:
                    t = producer.early_complete if early else producer.complete
                    if t is None:
                        continue  # wakes via the producer's own events
                    c = ceil(t - bonus)
                    if now < c < best:
                        best = c
                if op.is_load and op.mem_lines:
                    seq = op.dyn.seq
                    for line in op.mem_lines:
                        for store in store_by_line.get(line, ()):
                            if store.dyn.seq >= seq:
                                break
                            t = store.complete
                            if t is not None:
                                c = ceil(t)
                                if now < c < best:
                                    best = c
        engine = self.engine
        if engine is not None:
            c = ceil(engine._scrob_free_at) + 1
            if now < c < best:
                best = c
            for busy in engine._module_busy:
                c = ceil(busy)
                if now < c < best:
                    best = c
            for stream in engine.streams.values():
                if stream.start_cycle > now:
                    c = ceil(stream.start_cycle)
                    if now < c < best:
                        best = c
                for t in stream.chunk_ready.values():
                    c = ceil(t)
                    if now < c < best:
                        best = c
            if engine._store_queue:
                c = ceil(engine._store_queue[0][0])
                if now < c < best:
                    best = c
        if self._post_stores or (engine is not None and engine.stores_pending):
            t = self.hierarchy.l1_accept_horizon(now)
            if t != inf:
                c = ceil(t)
                if now < c < best:
                    best = c
        if best == inf:
            return now + 1.0  # no known event: tick normally (guarded)
        return float(best)

    # ---------------------------------------------------------------- fetch --

    def _fetch(self, now: float, trace_iter, line_bytes: int) -> bool:
        """Returns True when any front-end state changed this cycle."""
        if self._trace_done:
            return False
        progress = False
        blocker = self._block_branch
        if blocker is not None:
            if blocker.complete is None:
                self.stats.fetch_stall_cycles += 1
                return False
            resume = blocker.complete + self._frontend_depth
            if now < resume:
                self.stats.fetch_stall_cycles += 1
                return False
            self._block_branch = None
            progress = True
        if now < self._resume_fetch_at:
            self.stats.fetch_stall_cycles += 1
            return progress
        width = self._fetch_width
        room = self._decode_queue - len(self._decode)
        if room <= 0:
            # A full decode queue stalls fetch exactly like a blocked
            # branch does; count it so decode-bound kernels show up in
            # the stall breakdown instead of losing these cycles.
            self.stats.fetch_stall_cycles += 1
            return progress
        decoded = self._decoded
        for _ in range(min(width, room)):
            try:
                dyn = next(trace_iter)
            except StopIteration:
                self._trace_done = True
                return True
            # A pc that names another instruction (a trace mixing
            # programs) is decoded again, not timed with a stale record.
            dec = decoded.get(dyn.pc)
            if dec is None or dec.inst is not dyn.inst:
                dec = decoded[dyn.pc] = _Decoded(self, dyn.inst)
            op = _Op(dyn, dec)
            self.stats.fetched += 1
            self._decode.append(op)
            progress = True
            if dec.is_branch:
                wrong = self.predictor.record_outcome(dyn.pc, dyn.taken)
                if wrong:
                    op.mispredicted = True
                    self._block_branch = op
                    return True
                if dyn.taken:
                    return True  # taken branch ends the fetch group
        return progress

    # --------------------------------------------------------------- rename --

    def _rename(self, now: float) -> "tuple[int, Optional[str]]":
        """Returns (ops renamed, block cause counted this cycle or None)."""
        engine = self.engine
        # Store-FIFO stall short-circuit: while the decode head is parked
        # on a full Store FIFO, every structural check it passed keeps
        # passing (resources only drain during the stall), so the only
        # condition worth re-evaluating is the blocking stream's live
        # FIFO occupancy.
        memo = self._rename_block
        if memo is not None:
            op, stream, fifo_depth = memo
            if self._decode and self._decode[0] is op:
                if stream.store_reserved - stream.store_drained >= fifo_depth:
                    self.stats.block("store_fifo")
                    return 0, "store_fifo"
            self._rename_block = None
        renamed = 0
        fetch_width = self._fetch_width
        rat = self._rat
        while self._decode and renamed < fetch_width:
            op = self._decode[0]
            dyn = op.dyn
            dec = op.dec
            cause = self._structural_block(dec)
            if cause is not None:
                self.stats.block(cause)
                return renamed, cause
            # Stream store-FIFO reservation (may stall rename).
            if dyn.stream_writes and engine is not None:
                fifo_depth = engine.config.fifo_depth
                for (_, uid, __, last) in dyn.stream_writes:
                    if last:
                        stream = engine.streams[uid]
                        if (
                            stream.store_reserved - stream.store_drained
                            >= fifo_depth
                        ):
                            self.stats.block("store_fifo")
                            self._rename_block = (op, stream, fifo_depth)
                            return renamed, "store_fifo"
            self._decode.popleft()
            renamed += 1
            self._rob += 1
            self._rob_q.append(op)
            if self.observer is not None:
                self.observer("rename", dyn, now)
            # Resource allocation.  Data written to an output stream lives
            # in its reserved Store FIFO entry rather than a vector PR
            # (§IV-A Stream Iteration).
            if dec.alloc_dests:
                allocs = dec.needed_banks
                if dyn.stream_writes:
                    write_regs = {ev[0] for ev in dyn.stream_writes}
                    counts: Dict[str, int] = {}
                    for vidx, bank in dec.alloc_dests:
                        if vidx not in write_regs:
                            counts[bank] = counts.get(bank, 0) + 1
                    allocs = tuple(counts.items())
                free = self._free
                for bank, count in allocs:
                    free[bank] -= count
                op.allocs = allocs
            if dec.is_load:
                self._lq += 1
            if dec.is_store:
                self._sq += 1
            # Register dependences via the RAT (stream-read registers are
            # satisfied by the FIFO, not by a producer).
            if dec.srcs:
                stream_regs = (
                    {ev[0] for ev in dyn.stream_reads}
                    if dyn.stream_reads
                    else ()
                )
                mac_dest = dec.mac_dest
                producers = op.producers
                for key, vidx in dec.srcs:
                    if vidx in stream_regs:
                        continue
                    producer = rat[key]
                    if producer is not None:
                        pdec = producer.dec
                        # Cortex-A76-style accumulator forwarding: a MAC
                        # feeding the accumulator of the next MAC is
                        # consumed two cycles early (back-to-back FMLA
                        # chains).
                        producers.append((
                            producer,
                            key in pdec.early_keys,
                            2.0
                            if key == mac_dest and key == pdec.mac_dest
                            else 0.0,
                        ))
            for key in dec.dest_keys:
                rat[key] = op
            # Stream interactions.
            if engine is not None:
                if dyn.cfg_uid is not None:
                    info = self.stream_infos[dyn.cfg_uid]
                    start = engine.configure(info, now)
                    op.complete = start
                    op.early_complete = start
                elif dec.is_stream_co:
                    op.complete = now + 1
                    op.early_complete = now + 1
                if dyn.stream_reads:
                    op.stream_waits = dyn.stream_reads
                    for (_, uid, chunk, __) in dyn.stream_reads:
                        engine.rename_read(uid, chunk)
                if dyn.stream_writes:
                    op.store_streams = dyn.stream_writes
                    for (_, uid, __, last) in dyn.stream_writes:
                        if last:
                            engine.reserve_store(uid)
            elif dec.is_stream_co:
                op.complete = now + 1
                op.early_complete = now + 1
            # Dispatch.
            if op.complete is not None:
                continue  # completes outside the execution clusters
            if dec.sched is None:
                op.complete = now + 1
                op.early_complete = now + 1
                continue
            if dec.is_store:
                for addr in dyn.mem_writes or ():
                    line = addr // self.hierarchy.line_bytes
                    if not op.mem_lines or op.mem_lines[-1] != line:
                        op.mem_lines.append(line)
                for line in op.mem_lines:
                    self._store_by_line.setdefault(line, []).append(op)
            elif dec.is_load:
                seen = []
                for addr in dyn.mem_reads or ():
                    line = addr // self.hierarchy.line_bytes
                    if line not in seen:
                        seen.append(line)
                op.mem_lines = seen
            self._iq += 1
            dec.sched.append(op)
        return renamed, None

    def _structural_block(self, dec: _Decoded) -> Optional[str]:
        if self._rob >= self._rob_entries:
            return "rob"
        if dec.sched is not None:
            if self._iq >= self._iq_entries:
                return "iq"
            if len(dec.sched) >= self._scheduler_entries:
                return "scheduler"
        if dec.is_load and self._lq >= self._lq_entries:
            return "lq"
        if dec.is_store and self._sq >= self._sq_entries:
            return "sq"
        free = self._free
        for bank, count in dec.needed_banks:
            if free[bank] < count:
                return f"{bank}_regs"
        return None

    # ---------------------------------------------------------------- issue --

    def _ready(self, op: _Op, now: float) -> bool:
        """Is the op's every input available?  On failure, memoises the
        exact earliest cycle it could become ready in ``op.wake_at``, so
        the issue loop skips re-evaluating it until then.  Completion
        times never move later once set, which is what makes the memo
        exact.  A producer or older same-line store with no completion
        time yet gets the op as a waiter (``wake_at`` = inf) and resets
        its ``wake_at`` in :meth:`_execute`; an unfetched stream chunk
        (``wake_at`` = 0) is polled."""
        wake = 0.0
        producers = op.producers
        if producers:
            remaining = []
            for entry in producers:
                producer, early, bonus = entry
                t = producer.early_complete if early else producer.complete
                if t is None:
                    self._park(op, producer)
                    return False
                if t - bonus > now:
                    remaining.append(entry)
                    if t - bonus > wake:
                        wake = t - bonus
            op.producers = remaining
            if remaining:
                op.wake_at = wake
                return False
        if op.stream_waits:
            engine = self.engine
            blocked = False
            known = True
            for (_, uid, chunk, __) in op.stream_waits:
                t = engine.chunk_ready(uid, chunk)
                if t > now:
                    blocked = True
                    if t == math.inf:
                        known = False
                    elif t > wake:
                        wake = t
            if blocked:
                op.wake_at = wake if known else 0.0
                return False
        if op.is_load:
            seq = op.dyn.seq
            blocked = False
            for line in op.mem_lines:
                for store in self._store_by_line.get(line, ()):
                    if store.dyn.seq >= seq:
                        break  # stores are appended in rename (seq) order
                    t = store.complete
                    if t is None:
                        self._park(op, store)
                        return False
                    if t > now:
                        blocked = True
                        if t > wake:
                            wake = t
            if blocked:
                op.wake_at = wake
                return False
        return True

    @staticmethod
    def _park(op: _Op, blocker: _Op) -> None:
        """Skip ``op`` at issue until ``blocker`` executes: only
        :meth:`_execute` gives an in-flight op its completion time after
        younger ops have renamed."""
        op.wake_at = math.inf
        if blocker.waiters is None:
            blocker.waiters = [op]
        else:
            blocker.waiters.append(op)

    def _issue(self, now: float) -> int:
        """Issues ready ops; returns how many issued this cycle."""
        core = self.config.core
        budget = core.issue_width
        store_ports = core.store_ports
        load_ports = core.load_ports
        total = 0
        for queue, is_mem, cluster_ports in self._issue_plan:
            if not queue:
                continue
            issued = 0
            loads = stores = 0
            for op in queue:
                if budget <= 0 or issued >= cluster_ports:
                    break
                if is_mem:
                    if op.is_load and loads >= load_ports:
                        continue
                    if op.is_store and stores >= store_ports:
                        continue
                if op.wake_at > now or not self._ready(op, now):
                    continue
                self._execute(op, now)
                issued += 1
                budget -= 1
                if op.is_load:
                    loads += 1
                elif op.is_store:
                    stores += 1
            if issued:
                # In-place compaction on the `issued` flag set by
                # _execute (the old `op not in issued` rebuild rescanned
                # the whole scheduler per issued op).
                queue[:] = [op for op in queue if not op.issued]
                self._iq -= issued
                total += issued
        return total

    def _execute(self, op: _Op, now: float) -> None:
        dyn = op.dyn
        op.issued = True
        op.early_complete = now + 1
        if self.observer is not None:
            self.observer("issue", dyn, now)
        if op.is_load:
            self.stats.loads_issued += 1
            completion = now + 1
            for line in op.mem_lines:
                done = self.hierarchy.demand_access(
                    line * self.hierarchy.line_bytes, now + 1, False, pc=dyn.pc
                )
                if done > completion:
                    completion = done
            op.complete = completion
        elif op.is_store:
            self.stats.stores_issued += 1
            op.complete = now + 1  # address generation; data written at commit
        else:
            op.complete = now + op.dec.latency
        if op.waiters is not None:
            for waiter in op.waiters:
                waiter.wake_at = 0.0
            op.waiters = None

    def _drain_post_stores(self, now: float) -> bool:
        """Write committed stores to the L1, bounded by the store ports
        and by L1 MSHR availability (backpressure under saturation).
        Returns True when any store line drained or SQ entry freed."""
        drained = False
        l1 = self.hierarchy.l1d
        for _ in range(self.config.core.store_ports):
            if not self._post_stores:
                return drained
            if not l1.can_accept(now):
                return drained
            drained = True
            op, lines = self._post_stores[0]
            if lines:
                line = lines.pop(0)
                self.hierarchy.demand_access(
                    line * self.hierarchy.line_bytes, now, True, pc=op.dyn.pc
                )
                waiting = self._store_by_line.get(line)
                if waiting and waiting[0] is op:
                    waiting.pop(0)
                    if not waiting:
                        del self._store_by_line[line]
            if not lines:
                self._post_stores.popleft()
                self._sq -= 1
        return drained

    # --------------------------------------------------------------- commit --

    def _commit(self, now: float) -> None:
        engine = self.engine
        rat = self._rat
        width = self.config.core.commit_width
        for _ in range(width):
            if not self._rob_q:
                return
            op = self._rob_q[0]
            if op.complete is None or op.complete > now - 1:
                return
            self._rob_q.popleft()
            self._rob -= 1
            self.stats.committed += 1
            dyn = op.dyn
            dec = op.dec
            if self.observer is not None:
                self.observer("commit", dyn, now)
            for bank, count in op.allocs:
                self._free[bank] += count
            if op.is_load:
                self._lq -= 1
            if op.is_store:
                # The store drains to the L1 after commit; its SQ entry is
                # freed once the L1 accepts it (flow control).
                self._post_stores.append((op, list(op.mem_lines)))
            for key in dec.dest_keys:
                if rat[key] is op:
                    rat[key] = None
            if engine is not None:
                if dyn.cfg_uid is not None:
                    # The register now (architecturally) aliases this
                    # configuration; commit order is program order, so
                    # this is exactly the "latest config with sequence
                    # <= any later stop" mapping.
                    self._stream_alias[
                        self.stream_infos[dyn.cfg_uid].reg
                    ] = dyn.cfg_uid
                if op.stream_waits:
                    for (_, uid, chunk, last) in op.stream_waits:
                        if last:
                            engine.commit_read(uid, chunk)
                if op.store_streams:
                    for (_, uid, chunk, last) in op.store_streams:
                        if last:
                            engine.commit_write(uid, chunk, now)
                if dec.stop_reg >= 0:
                    # Terminate only the stream the register aliases at
                    # this point in program order — never streams
                    # configured later that reuse the register.
                    uid = self._stream_alias.pop(dec.stop_reg, None)
                    if uid is not None:
                        engine.terminate(uid)
