"""§VI.C — Streaming Engine hardware storage overheads, plus Table I."""
from __future__ import annotations

from dataclasses import replace

from repro.cpu.config import EngineConfig, MachineConfig
from repro.engine.engine import StreamingEngine
from repro.harness.report import ExperimentResult
from repro.harness.runner import Records
from repro.memory.hierarchy import MemoryHierarchy


def storage_overheads(records: Records) -> ExperimentResult:
    """Storage accounting for the evaluated engine and the reduced
    configuration the paper proposes (8 streams, 4 dims)."""
    rows = []
    for label, engine_cfg in (
        ("evaluated (32 streams, 8 dims, 7 mods)", EngineConfig()),
        (
            "reduced (8 streams, 4 dims, 3 mods)",
            EngineConfig(max_streams=8, max_dims=4, max_mods=3),
        ),
    ):
        cfg = MachineConfig(engine=engine_cfg)
        engine = StreamingEngine(engine_cfg, MemoryHierarchy(cfg))
        ov = engine.storage_overheads()
        rows.append(
            (
                label,
                ov["stream_table_bytes"],
                ov["request_queue_bytes"],
                ov["fifo_bytes"],
                ov["total_bytes"],
                f"{ov['total_bytes'] / 65536:.2f}",
            )
        )
    return ExperimentResult(
        "overheads",
        "Streaming Engine storage (paper: ~14 KB tables + ~17 KB FIFOs "
        "~= 1/2 L1; reduced config ~6 KB ~= 10% of L1)",
        ["configuration", "stream table B", "request queue B", "FIFOs B",
         "total B", "vs 64KB L1"],
        rows,
    )


def table1(records: Records) -> ExperimentResult:
    """Table I: the machine configuration actually simulated."""
    cfg = MachineConfig()
    core, eng = cfg.core, cfg.engine
    rows = [
        ("CPU", f"{core.fetch_width}-wide fetch, {core.commit_width}-wide "
                f"commit, {core.issue_width}-wide issue @ {cfg.freq_ghz} GHz"),
        ("Windows", f"{core.iq_entries} IQ, {core.lq_entries} LQ, "
                    f"{core.sq_entries} SQ, {core.rob_entries} ROB"),
        ("Registers", f"{core.int_phys_regs} Int, {core.fp_phys_regs} FP, "
                      f"{core.vec_phys_regs} x {cfg.vector_bits}-bit vector"),
        ("FUs", f"{core.int_alus} int ALUs, {core.fp_units} FP/vector, "
                f"{core.load_ports} load + {core.store_ports} store ports, "
                f"{core.scheduler_entries}-entry schedulers"),
        ("Streaming Engine", f"{eng.processing_modules} processing modules, "
                             f"{eng.fifo_depth}-entry FIFOs/stream, "
                             f"{eng.memory_request_queue} request queue"),
        ("L1-I/L1-D", f"{cfg.l1i.size_bytes // 1024}KB/"
                      f"{cfg.l1d.size_bytes // 1024}KB {cfg.l1d.assoc}-way, "
                      f"stride prefetcher depth "
                      f"{cfg.prefetch.l1_stride_depth}"),
        ("L2", f"{cfg.l2.size_bytes // 1024}KB {cfg.l2.assoc}-way, AMPM "
               f"prefetcher queue {cfg.prefetch.l2_ampm_queue}"),
        ("DRAM", f"dual-channel DDR3-1600, {cfg.dram.access_latency}-cycle "
                 f"loaded latency, {cfg.dram.peak_bytes_per_cycle:.1f} "
                 f"B/cycle peak"),
    ]
    return ExperimentResult(
        "table1",
        "CPU model configuration (paper Table I)",
        ["component", "configuration"],
        rows,
    )
