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

:meth:`Pipeline.run` is the core's only per-cycle function: one
iteration of its loop is one cycle, and its body does every stage in
place, in this order: engine tick, post-commit store drain, commit,
issue, rename, fetch.  Each stage sees what the stage before it left
this cycle.  The run keeps its constants and the machine's scalar state
(the ROB/IQ/LQ/SQ counters, the draining store's line index, the
blocking branch, the end of the trace, the rename memo) in locals and
writes the scalars back to their attributes before ``_event_horizon``
or ``_stall_report`` reads the pipeline, and when it returns or raises.
Issuing an op wakes the ops ``_ready`` parked on it (docs/TIMING.md,
"Cycle loop").
"""
from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence

from repro.cpu.branch_pred import GsharePredictor
from repro.cpu.config import MachineConfig
from repro.cpu.stats import PipelineStats
from repro.engine.engine import StreamingEngine
from repro.errors import ConfigError, SimulationError, StreamError
from repro.isa.instructions import Instruction
from repro.isa.microop import FuCluster, OpClass
from repro.isa.registers import Reg, RegClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.trace import DynOp, StreamTraceInfo, read_lines, write_lines

#: physical register banks: a register class's bank index, and the
#: rename-block cause a bank with too few free registers records
_BANK_OF = {RegClass.X: 0, RegClass.F: 1, RegClass.V: 2}
_BANK_CAUSE = ("int_regs", "fp_regs", "vec_regs")

#: op classes whose accumulator operand benefits from MAC->MAC forwarding
_MAC_CLASSES = (OpClass.VEC_MAC, OpClass.FP_MAC)

#: architectural register -> small int key (bank offset + index); the
#: RAT is a flat list indexed by these keys
_KEY_BASE = {cls: 32 * i for i, cls in enumerate(RegClass)}
_RAT_SIZE = 32 * len(RegClass)


def stall_limit(config: MachineConfig) -> int:
    """Cycles without a commit after which a run can never progress.

    A bound no working run comes near (docs/TIMING.md): every entry the
    ROB, the store queue and, on a streaming core, the Streaming Engine's
    FIFOs can hold waits in turn for the slowest trip an operation can
    take: a front-end refill, an L1 and an L2 miss, a DRAM access with
    its line transfer, and the longest execution latency."""
    core, dram = config.core, config.dram
    trip = (
        core.frontend_depth
        + config.l1d.hit_latency
        + config.l2.hit_latency
        + dram.access_latency
        + math.ceil(dram.line_transfer_cycles)
        + max(config.latencies.values())
    )
    entries = core.rob_entries + core.sq_entries
    if config.streaming:
        entries += config.engine.fifo_depth * config.engine.max_streams
    return entries * trip


def _reg_key(reg: Reg) -> int:
    return _KEY_BASE[reg.cls] + reg.index


def _names(events, vidx: int) -> bool:
    """Whether one of an op's stream events names vector register
    ``vidx``."""
    for event in events:
        if event[0] == vidx:
            return True
    return False


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
        #: (vector index, bank index) of each destination allocating a
        #: physical register, and the per-bank totals the structural
        #: check needs.
        #: Stream config/control name streams via the Stream Alias Table,
        #: not physical vector registers.
        alloc = []
        if not is_stream_co:
            for dest in dests:
                bank = _BANK_OF.get(dest.cls)
                if bank is not None:
                    alloc.append((_vec_index(dest), bank))
        self.alloc_dests = tuple(alloc)
        needed: Dict[int, int] = {}
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
    )

    def __init__(self, dyn: DynOp, dec: _Decoded) -> None:
        self.dyn = dyn
        self.dec = dec
        #: (producer, wants_early, forward_bonus) triples; pruned as they
        #: are satisfied
        self.producers: Sequence = ()
        #: ops parked on this one until it issues and gets a completion
        #: time
        self.waiters: Optional[List["_Op"]] = None
        #: (EngineStream, chunk, last) of each stream read / write,
        #: resolved at rename
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
        #: the cache lines a load reads or a store writes, from rename
        self.mem_lines: Sequence[int] = ()
        #: ((bank, count), ...) of physical registers allocated at rename
        self.allocs = ()


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
        #: free physical registers per bank (see _BANK_OF)
        self._free = [
            core.int_phys_regs - 32,
            core.fp_phys_regs - 32,
            core.vec_phys_regs - 32,
        ]
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
        #: committed demand stores awaiting L1 acceptance (SQ drains
        #: here), oldest first, and the head's next line to write
        self._post_stores: Deque[_Op] = deque()
        self._post_line = 0
        self._block_branch: Optional[_Op] = None
        self._trace_done = False
        #: Stream Alias Table at commit: architectural stream register ->
        #: uid of the latest *committed* configuration.  ``stream.stop``
        #: terminates only the stream its register currently aliases, not
        #: later reconfigurations that reuse the register.
        self._stream_alias: Dict[int, int] = {}
        #: cycles elided by the event-horizon fast path (diagnostic; not
        #: part of PipelineStats, which must be identical with it off)
        self.ff_skipped_cycles = 0
        #: the progress watchdog: a run that commits nothing for this many
        #: cycles raises SimulationError
        self.stall_limit = stall_limit(config)
        #: optional callable(event, dyn_op, cycle) receiving "rename",
        #: "issue", and "commit" events (used by repro.sim.debug)
        self.observer = None

    # ------------------------------------------------------------------ run --

    def run(self, trace: Iterable[DynOp]) -> PipelineStats:
        """Time ``trace``: one loop iteration per stepped cycle, its stages
        in place (docs/TIMING.md, "Cycle loop").

        The per-run constants and the mutable scalars of the machine are
        locals; the scalars are written back to their attributes before
        ``_event_horizon`` or ``_stall_report`` reads the pipeline, and
        when the run returns or raises."""
        config = self.config
        core = config.core
        fast_forward = config.fast_forward
        stats = self.stats
        causes = stats.rename_block_causes
        observer = self.observer
        fetch_width = core.fetch_width
        commit_width = core.commit_width
        issue_width = core.issue_width
        decode_queue = core.decode_queue
        frontend_depth = core.frontend_depth
        rob_entries, iq_entries = core.rob_entries, core.iq_entries
        lq_entries, sq_entries = core.lq_entries, core.sq_entries
        scheduler_entries = core.scheduler_entries
        load_ports, store_ports = core.load_ports, core.store_ports
        fifo_depth = config.engine.fifo_depth
        hierarchy = self.hierarchy
        line_bytes = hierarchy.line_bytes
        l1_can_accept = hierarchy.l1d.can_accept
        demand_access = hierarchy.demand_access
        record_outcome = self.predictor.record_outcome
        ready = self._ready
        resolve_reads = self._stream_reads
        engine = self.engine
        if engine is not None:
            engine_tick = engine.tick
            configure = engine.configure
            engine_stream = engine.stream
            commit_read = engine.commit_read
            commit_write = engine.commit_write
            terminate = engine.terminate
        decode = self._decode
        rob_q = self._rob_q
        rat = self._rat
        free = self._free
        decoded = self._decoded
        store_by_line = self._store_by_line
        post_stores = self._post_stores
        stream_alias = self._stream_alias
        stream_infos = self.stream_infos
        issue_plan = self._issue_plan
        rob, iq, lq, sq = self._rob, self._iq, self._lq, self._sq
        post_line = self._post_line
        block_branch = self._block_branch
        trace_done = self._trace_done
        rename_block = self._rename_block
        trace_iter = iter(trace)
        cycle = 0.0
        stall = self.stall_limit
        deadline = stall  # the watchdog: the last commit + stall_limit
        # Set when a quiescent cycle finds no known event: until a stage
        # makes progress the machine is frozen, so no event can appear
        # and the horizon need not be recomputed.
        frozen = False
        try:
            while cycle <= deadline:
                # Every stage notes whether it changed any machine state
                # this cycle; a fully quiescent cycle is eligible for the
                # event-horizon fast path at the bottom.  A stage whose
                # input is empty or provably blocked (a ROB head that has
                # not completed, an empty issue queue, an empty decode
                # queue) is skipped: it could only make no progress.
                progress = False
                if engine is not None:
                    progress = engine_tick(cycle)

                # -- Post-commit store drain: committed demand stores write
                # their lines to the L1, bounded by the store ports and by
                # L1 MSHR availability (backpressure under saturation).
                if post_stores:
                    ports = store_ports
                    while ports and post_stores and l1_can_accept(cycle):
                        ports -= 1
                        progress = True
                        op = post_stores[0]
                        lines = op.mem_lines
                        index = post_line
                        if index < len(lines):
                            line = lines[index]
                            demand_access(
                                line * line_bytes, cycle, True, op.dyn.pc
                            )
                            waiting = store_by_line.get(line)
                            if waiting and waiting[0] is op:
                                waiting.pop(0)
                                if not waiting:
                                    del store_by_line[line]
                            index += 1
                        if index < len(lines):
                            post_line = index
                        else:
                            # the SQ entry frees once the L1 accepts the
                            # store's last line (flow control)
                            post_stores.popleft()
                            post_line = 0
                            sq -= 1

                # -- Commit, in order: only a head completed by cycle - 1
                # commits, so nothing can while it has not.
                if rob_q:
                    head_t = rob_q[0].complete
                    if head_t is not None and head_t <= cycle - 1:
                        progress = True
                        deadline = cycle + stall
                        committed = loads = 0
                        while committed < commit_width and rob_q:
                            op = rob_q[0]
                            if op.complete is None or op.complete > cycle - 1:
                                break
                            rob_q.popleft()
                            committed += 1
                            dyn = op.dyn
                            dec = op.dec
                            if observer is not None:
                                observer("commit", dyn, cycle)
                            for bank, count in op.allocs:
                                free[bank] += count
                            if op.is_load:
                                loads += 1
                            if op.is_store:
                                post_stores.append(op)
                            for key in dec.dest_keys:
                                if rat[key] is op:
                                    rat[key] = None
                            if engine is not None:
                                if dyn.cfg_uid is not None:
                                    # The register now (architecturally)
                                    # aliases this configuration; commit
                                    # order is program order, so this is
                                    # exactly the "latest config with
                                    # sequence <= any later stop" mapping.
                                    stream_alias[
                                        stream_infos[dyn.cfg_uid].reg
                                    ] = dyn.cfg_uid
                                if op.stream_waits:
                                    for stream, chunk, last in op.stream_waits:
                                        if last:
                                            commit_read(stream, chunk)
                                if op.store_streams:
                                    for stream, chunk, last in (
                                        op.store_streams
                                    ):
                                        if last:
                                            commit_write(stream, chunk, cycle)
                                if dec.stop_reg >= 0:
                                    # Terminate only the stream the register
                                    # aliases at this point in program order
                                    # — never streams configured later that
                                    # reuse the register.
                                    uid = stream_alias.pop(dec.stop_reg, None)
                                    if uid is not None:
                                        terminate(uid)
                        rob -= committed
                        lq -= loads
                        stats.committed += committed

                # -- Issue ready ops, oldest first per cluster.  Issuing
                # executes the op: a load's lines go to the memory
                # hierarchy, and every op gets its completion time.
                if iq:
                    budget = issue_width
                    total = loads = stores = 0
                    for queue, is_mem, cluster_ports in issue_plan:
                        if not queue:
                            continue
                        issued = 0
                        limit = (
                            cluster_ports if cluster_ports < budget else budget
                        )
                        for op in queue:
                            if issued >= limit:
                                break
                            if op.wake_at > cycle:
                                continue  # known not ready before wake_at
                            if is_mem:
                                if op.is_load and loads >= load_ports:
                                    continue
                                if op.is_store and stores >= store_ports:
                                    continue
                            if not ready(op, cycle):
                                continue
                            op.issued = True
                            op.early_complete = cycle + 1
                            if observer is not None:
                                observer("issue", op.dyn, cycle)
                            if op.is_load:
                                loads += 1
                                completion = cycle + 1
                                pc = op.dyn.pc
                                for line in op.mem_lines:
                                    done = demand_access(
                                        line * line_bytes, cycle + 1, False, pc
                                    )
                                    if done > completion:
                                        completion = done
                                op.complete = completion
                            elif op.is_store:
                                stores += 1
                                # address generation; the data is written
                                # at commit
                                op.complete = cycle + 1
                            else:
                                op.complete = cycle + op.dec.latency
                            waiters = op.waiters
                            if waiters is not None:
                                for waiter in waiters:
                                    waiter.wake_at = 0.0
                                op.waiters = None
                            issued += 1
                        if issued:
                            queue[:] = [op for op in queue if not op.issued]
                            budget -= issued
                            total += issued
                    if total:
                        progress = True
                        iq -= total
                        stats.loads_issued += loads
                        stats.stores_issued += stores

                # -- Rename/dispatch, up to the fetch width, stopping at the
                # first structural limit (its cause is the Fig. 8.C metric).
                cause = None
                if decode:
                    # Store-FIFO stall short-circuit: while the decode head
                    # is parked on a full Store FIFO, every structural
                    # check it passed keeps passing (resources only drain
                    # during the stall), so the only condition worth
                    # re-evaluating is the blocking stream's live FIFO
                    # occupancy.
                    if rename_block is not None:
                        op, stream = rename_block
                        if (
                            decode[0] is op
                            and stream.store_reserved - stream.store_drained
                            >= fifo_depth
                        ):
                            cause = "store_fifo"
                        else:
                            rename_block = None
                    renamed = 0
                    while cause is None and decode and renamed < fetch_width:
                        op = decode[0]
                        dyn = op.dyn
                        dec = op.dec
                        sched = dec.sched
                        # Structural checks, in priority order.
                        if rob >= rob_entries:
                            cause = "rob"
                            break
                        if sched is not None:
                            if iq >= iq_entries:
                                cause = "iq"
                                break
                            if len(sched) >= scheduler_entries:
                                cause = "scheduler"
                                break
                        if dec.is_load and lq >= lq_entries:
                            cause = "lq"
                            break
                        if dec.is_store and sq >= sq_entries:
                            cause = "sq"
                            break
                        for bank, count in dec.needed_banks:
                            if free[bank] < count:
                                cause = _BANK_CAUSE[bank]
                                break
                        if cause is not None:
                            break
                        stream_reads = dyn.stream_reads
                        stream_writes = dyn.stream_writes
                        # Stream store-FIFO reservation (may stall rename).
                        if stream_writes is not None and engine is not None:
                            for _, uid, __, last in stream_writes:
                                if last:
                                    stream = engine.streams[uid]
                                    if (
                                        stream.store_reserved
                                        - stream.store_drained
                                        >= fifo_depth
                                    ):
                                        cause = "store_fifo"
                                        rename_block = (op, stream)
                                        break
                            if cause is not None:
                                break
                        decode.popleft()
                        renamed += 1
                        rob += 1
                        rob_q.append(op)
                        if observer is not None:
                            observer("rename", dyn, cycle)
                        # Resource allocation.  Data written to an output
                        # stream lives in its reserved Store FIFO entry
                        # rather than a vector PR (§IV-A Stream Iteration).
                        if dec.alloc_dests:
                            allocs = dec.needed_banks
                            if stream_writes is not None:
                                allocs = [
                                    (bank, 1) for vidx, bank in dec.alloc_dests
                                    if not _names(stream_writes, vidx)
                                ]
                            for bank, count in allocs:
                                free[bank] -= count
                            op.allocs = allocs
                        if dec.is_load:
                            lq += 1
                        if dec.is_store:
                            sq += 1
                        # Register dependences via the RAT (stream-read
                        # registers are satisfied by the FIFO, not by a
                        # producer).
                        if dec.srcs:
                            mac_dest = dec.mac_dest
                            producers = None
                            for key, vidx in dec.srcs:
                                if (
                                    vidx >= 0
                                    and stream_reads is not None
                                    and _names(stream_reads, vidx)
                                ):
                                    continue
                                producer = rat[key]
                                if producer is not None:
                                    pdec = producer.dec
                                    # Cortex-A76-style accumulator
                                    # forwarding: a MAC feeding the
                                    # accumulator of the next MAC is
                                    # consumed two cycles early
                                    # (back-to-back FMLA chains).
                                    entry = (
                                        producer,
                                        key in pdec.early_keys,
                                        2.0
                                        if key == mac_dest
                                        and key == pdec.mac_dest
                                        else 0.0,
                                    )
                                    if producers is None:
                                        producers = op.producers = [entry]
                                    else:
                                        producers.append(entry)
                        for key in dec.dest_keys:
                            rat[key] = op
                        # Stream interactions.
                        if engine is not None:
                            if dyn.cfg_uid is not None:
                                start = configure(
                                    stream_infos[dyn.cfg_uid], cycle
                                )
                                op.complete = start
                                op.early_complete = start
                            elif dec.is_stream_co:
                                op.complete = cycle + 1
                                op.early_complete = cycle + 1
                            if stream_reads is not None:
                                op.stream_waits = resolve_reads(dyn)
                            if stream_writes is not None:
                                store_streams = []
                                for _, uid, chunk, last in stream_writes:
                                    stream = engine_stream(uid)
                                    if last:
                                        stream.reserve_store()
                                    store_streams.append((stream, chunk, last))
                                op.store_streams = store_streams
                        elif dec.is_stream_co:
                            op.complete = cycle + 1
                            op.early_complete = cycle + 1
                        # Dispatch.
                        if op.complete is not None:
                            continue  # completes outside the clusters
                        if sched is None:
                            op.complete = cycle + 1
                            op.early_complete = cycle + 1
                            continue
                        if dec.is_store:
                            if dyn.mem_writes is not None:
                                lines = op.mem_lines = write_lines(
                                    dyn.mem_writes, line_bytes
                                )
                                for line in lines:
                                    waiting = store_by_line.get(line)
                                    if waiting is None:
                                        store_by_line[line] = [op]
                                    else:
                                        waiting.append(op)
                        elif dec.is_load:
                            if dyn.mem_reads is not None:
                                op.mem_lines = read_lines(
                                    dyn.mem_reads, line_bytes
                                )
                        iq += 1
                        sched.append(op)
                    if renamed:
                        progress = True
                    if cause is not None:
                        stats.rename_block_cycles += 1
                        causes[cause] = causes.get(cause, 0) + 1

                # -- Fetch into the decode queue, up to the fetch width; a
                # misprediction stalls fetch until the branch resolves plus
                # the front-end redirect depth.
                fetch_stalled = False
                if not trace_done:
                    if block_branch is not None:
                        t = block_branch.complete
                        if t is not None and cycle >= t + frontend_depth:
                            block_branch = None
                            progress = True
                    room = decode_queue - len(decode)
                    if block_branch is not None or room <= 0:
                        # A full decode queue stalls fetch exactly like a
                        # blocked branch does, so decode-bound kernels show
                        # up in the stall breakdown.
                        stats.fetch_stall_cycles += 1
                        fetch_stalled = True
                    else:
                        fetched = 0
                        if room > fetch_width:
                            room = fetch_width
                        for _ in range(room):
                            try:
                                dyn = next(trace_iter)
                            except StopIteration:
                                trace_done = True
                                progress = True
                                break
                            # A pc that names another instruction (a trace
                            # mixing programs) is decoded again, not timed
                            # with a stale record.
                            dec = decoded.get(dyn.pc)
                            if dec is None or dec.inst is not dyn.inst:
                                dec = _Decoded(self, dyn.inst)
                                decoded[dyn.pc] = dec
                            op = _Op(dyn, dec)
                            decode.append(op)
                            fetched += 1
                            if dec.is_branch:
                                if record_outcome(dyn.pc, dyn.taken):
                                    block_branch = op
                                    break
                                if dyn.taken:
                                    break  # a taken branch ends the group
                        if fetched:
                            stats.fetched += fetched
                            progress = True

                if trace_done and not rob_q and not decode:
                    if not (
                        post_stores
                        or (engine is not None and engine.stores_pending)
                    ):
                        break
                if progress:
                    frozen = False
                elif fast_forward and not frozen:
                    self._rob, self._iq, self._lq, self._sq = rob, iq, lq, sq
                    self._post_line = post_line
                    self._block_branch = block_branch
                    self._trace_done = trace_done
                    self._rename_block = rename_block
                    horizon = self._event_horizon(cycle)
                    frozen = horizon == math.inf
                    skipped = 0 if frozen else int(horizon - cycle) - 1
                    if skipped > 0:
                        # Nothing can change before the horizon, so every
                        # skipped cycle would have repeated this cycle's
                        # stall accounting exactly — back-fill it.
                        if fetch_stalled:
                            stats.fetch_stall_cycles += skipped
                        if cause is not None:
                            stats.rename_block_cycles += skipped
                            causes[cause] += skipped
                        if engine is not None:
                            engine.skip_idle(skipped)
                        self.ff_skipped_cycles += skipped
                        cycle += skipped
                cycle += 1
        finally:
            self._rob, self._iq, self._lq, self._sq = rob, iq, lq, sq
            self._post_line = post_line
            self._block_branch = block_branch
            self._trace_done = trace_done
            self._rename_block = rename_block
        if cycle > deadline:  # the loop ended on the watchdog
            raise SimulationError(self._stall_report(cycle))
        end = cycle
        if engine is not None:
            end = max(end, engine.last_drain_cycle)
        stats.cycles = max(end, 1.0)
        stats.bus_utilization = hierarchy.bus_utilization(stats.cycles)
        stats.branch_mispredicts = self.predictor.mispredictions
        stats.branches = self.predictor.predictions
        return stats

    def _stall_report(self, now: float) -> str:
        """Why a run that stopped committing cannot progress."""
        lines = [
            f"timing run wedged: no instruction committed for "
            f"{self.stall_limit} cycles (cycle {now:.0f})"
        ]
        if self._rob_q:
            head = self._rob_q[0]
            dyn = head.dyn
            lines.append(
                f"ROB head: seq {dyn.seq}, pc {dyn.pc} ({dyn.inst}), "
                f"waiting on {self._waiting_on(head, now)}"
            )
        else:
            lines.append(
                f"ROB empty: {len(self._decode)} op(s) in the decode queue, "
                f"{len(self._post_stores)} committed store(s) draining"
            )
        if self.engine is not None:
            for stream in self.engine.streams.values():
                lines.append(
                    f"engine stream uid {stream.uid} (u{stream.info.reg}): "
                    f"num_chunks {stream.num_chunks}, gen_next "
                    f"{stream.gen_next}, commit_head {stream.commit_head}"
                )
        return "\n".join(lines)

    def _waiting_on(self, op: _Op, now: float) -> str:
        if op.issued:
            return f"its own execution (completes at cycle {op.complete})"
        for producer, early, _ in op.producers:
            t = producer.early_complete if early else producer.complete
            if t is None or t > now:
                d = producer.dyn
                return f"producer seq {d.seq}, pc {d.pc} ({d.inst})"
        for stream, chunk, _ in op.stream_waits:
            if stream.ready_cycle(chunk) > now:
                return f"stream uid {stream.uid} chunk {chunk}"
        if op.is_load:
            for line in op.mem_lines:
                for store in self._store_by_line.get(line, ()):
                    if store.dyn.seq >= op.dyn.seq:
                        break
                    if store.complete is None or store.complete > now:
                        d = store.dyn
                        return (
                            f"older store seq {d.seq}, pc {d.pc} ({d.inst}) "
                            f"to line {line}"
                        )
        return "an issue slot"

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
        cycle its condition can flip.  With no known event it returns
        ``inf``: the machine is wedged, and ``run`` ticks normally until
        a stage progresses or the watchdog fires.
        """
        inf = math.inf
        ceil = math.ceil
        best = inf
        blocker = self._block_branch
        if blocker is not None and blocker.complete is not None:
            c = ceil(blocker.complete + self.config.core.frontend_depth)
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
        return float(best)

    # ------------------------------------------------------------ rename --

    def _stream_reads(self, dyn: DynOp) -> tuple:
        """``(stream, chunk, last)`` of each stream read of ``dyn``, for
        issue and commit to reach the Stream Table entry directly.

        A read of a chunk the engine does not hold can never become
        ready (the functional pass records a chunk only once it fills or
        ends a dimension), so it fails here instead of waiting forever."""
        waits = []
        for (_, uid, chunk, last) in dyn.stream_reads:
            stream = self.engine.stream(uid)
            if chunk >= stream.num_chunks:
                raise StreamError(
                    f"pc {dyn.pc} ({dyn.inst}): stream uid {uid} "
                    f"(u{stream.info.reg}) read of chunk {chunk}, but the "
                    f"engine holds {stream.num_chunks} chunks"
                )
            stream.rename_read(chunk)
            waits.append((stream, chunk, last))
        return tuple(waits)

    # ---------------------------------------------------------------- issue --

    def _ready(self, op: _Op, now: float) -> bool:
        """Is the op's every input available?  On failure, memoises the
        exact earliest cycle it could become ready in ``op.wake_at``, so
        the issue loop skips re-evaluating it until then.  Completion
        times never move later once set, which is what makes the memo
        exact.  A producer or older same-line store with no completion
        time yet gets the op as a waiter (``wake_at`` = inf), and the
        blocker resets its ``wake_at`` when it issues; an unfetched stream
        chunk (``wake_at`` = 0) is polled."""
        wake = 0.0
        producers = op.producers
        if producers:
            remaining = None
            for entry in producers:
                producer, early, bonus = entry
                t = producer.early_complete if early else producer.complete
                if t is None:
                    self._park(op, producer)
                    return False
                t -= bonus
                if t > now:
                    if remaining is None:
                        remaining = [entry]
                    else:
                        remaining.append(entry)
                    if t > wake:
                        wake = t
            if remaining is not None:
                op.producers = remaining
                op.wake_at = wake
                return False
            op.producers = ()
        if op.stream_waits:
            blocked = False
            known = True
            for (stream, chunk, _) in op.stream_waits:
                t = stream.ready_cycle(chunk)
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
        """Skip ``op`` at issue until ``blocker`` issues: only issue
        gives an in-flight op its completion time after younger ops have
        renamed."""
        op.wake_at = math.inf
        if blocker.waiters is None:
            blocker.waiters = [op]
        else:
            blocker.waiters.append(op)
