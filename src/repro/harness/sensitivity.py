"""Figs. 9-11 — sensitivity studies.

Fig. 9: number of physical vector registers (48/64/96), UVE vs SVE.
Fig. 10: Streaming Engine FIFO depth (2/4/8/12), UVE.
Fig. 11: stream cache level (L1/L2/DRAM), UVE.
"""
from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.cpu.config import default_machine
from repro.harness.report import ExperimentResult
from repro.harness.runner import Records, Runner, RunSpec

#: the benchmark subset the paper sweeps.
SWEEP_KERNELS = ("gemm", "jacobi-2d", "stream", "mamr")

#: Fig. 9 physical-vector-register counts.
PR_COUNTS = (48, 64, 96)
#: Fig. 10 FIFO depths.
FIFO_DEPTHS = (2, 4, 8, 12)
#: Fig. 11 stream cache levels.
CACHE_LEVELS = ("L1", "L2", "MEM")


def _pr_config(isa: str, count: int):
    cfg = default_machine(isa)
    return cfg.with_(core=replace(cfg.core, vec_phys_regs=count))


def _fifo_config(depth: int):
    cfg = default_machine("uve")
    return cfg.with_(engine=replace(cfg.engine, fifo_depth=depth))


def _level_config(level: str):
    cfg = default_machine("uve")
    return cfg.with_(engine=replace(cfg.engine, mem_level_override=level))


def vector_registers_specs(runner: Runner) -> List[RunSpec]:
    return [
        RunSpec(name, isa, _pr_config(isa, count))
        for name in SWEEP_KERNELS
        for isa in ("uve", "sve")
        for count in PR_COUNTS
    ]


def fifo_depth_specs(runner: Runner) -> List[RunSpec]:
    return [
        RunSpec(name, "uve", _fifo_config(depth))
        for name in SWEEP_KERNELS + ("3mm",)
        for depth in FIFO_DEPTHS
    ]


def stream_cache_level_specs(runner: Runner) -> List[RunSpec]:
    return [
        RunSpec(name, "uve", _level_config(level))
        for name in SWEEP_KERNELS
        for level in CACHE_LEVELS
    ]


def vector_registers(records: Records) -> ExperimentResult:
    """Fig. 9: performance sensitivity to physical vector registers."""
    counts = PR_COUNTS
    rows = []
    for name in SWEEP_KERNELS:
        for isa in ("uve", "sve"):
            cycles = [
                records[RunSpec(name, isa, _pr_config(isa, count))].cycles
                for count in counts
            ]
            rows.append(
                (name, isa) + tuple(f"{cycles[0] / c:.2f}x" for c in cycles)
            )
    return ExperimentResult(
        "fig9",
        "Sensitivity to the number of physical vector registers "
        "(normalized to 48 PRs; paper: SVE gains, UVE is flat)",
        ["benchmark", "isa"] + [f"{c} PRs" for c in counts],
        rows,
        notes=["the starred mamr runs scalar code on the SVE core"],
    )


def fifo_depth(records: Records) -> ExperimentResult:
    """Fig. 10: sensitivity to the load/store FIFO depth."""
    depths = FIFO_DEPTHS
    rows = []
    for name in SWEEP_KERNELS + ("3mm",):
        cycles = [
            records[RunSpec(name, "uve", _fifo_config(depth))].cycles
            for depth in depths
        ]
        base = cycles[depths.index(8)]
        rows.append((name,) + tuple(f"{base / c:.2f}x" for c in cycles))
    return ExperimentResult(
        "fig10",
        "Sensitivity to FIFO depth (normalized to depth 8; paper: >=4 "
        "needed, saturates at 8, latency-sensitive kernels keep gaining)",
        ["benchmark"] + [f"depth {d}" for d in depths],
        rows,
    )


def stream_cache_level(records: Records) -> ExperimentResult:
    """Fig. 11: sensitivity to the cache/memory level streams access."""
    levels = CACHE_LEVELS
    rows = []
    for name in SWEEP_KERNELS:
        cycles = [
            records[RunSpec(name, "uve", _level_config(level))].cycles
            for level in levels
        ]
        base = cycles[levels.index("L2")]
        rows.append((name,) + tuple(f"{base / c:.2f}x" for c in cycles))
    return ExperimentResult(
        "fig11",
        "Sensitivity to the streaming cache level (normalized to L2; "
        "paper: L2 best overall, kernel-specific exceptions)",
        ["benchmark", "L1", "L2", "DRAM"],
        rows,
    )
