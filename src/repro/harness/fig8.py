"""Fig. 8 — the paper's main evaluation panels.

Each function regenerates one panel as an :class:`ExperimentResult`:
A: committed-instruction reduction, B: speedup, C: rename blocks/cycle,
D: DRAM bus utilization, E: loop unrolling on GEMM, plus the left-hand
benchmark-characterisation table.
"""
from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.harness.report import ExperimentResult, geomean
from repro.harness.runner import Records, Runner, RunSpec
from repro.kernels import all_kernels, get_kernel

#: the three ISAs every fig8 comparison panel runs per benchmark.
COMPARISON_ISAS = ("uve", "sve", "neon")


def comparison_specs(runner: Runner) -> List[RunSpec]:
    """Runs shared by panels A-D: every benchmark on all three ISAs."""
    return [
        RunSpec(kernel.name, isa)
        for kernel in all_kernels()
        for isa in COMPARISON_ISAS
    ]


def _comparison(records: Records) -> Iterator[Tuple]:
    """Each benchmark with its UVE, SVE and NEON records."""
    for kernel in all_kernels():
        yield (kernel,) + tuple(
            records[RunSpec(kernel.name, isa)] for isa in COMPARISON_ISAS
        )


def unrolling_specs(runner: Runner) -> List[RunSpec]:
    """Unroll factors must divide the scaled GEMM K dimension."""
    kernel = get_kernel("gemm")
    k_dim = kernel.workload(seed=runner.seed, scale=runner.scale).params["k"]
    return [
        RunSpec("gemm", "uve", unroll=factor)
        for factor in (1, 2, 4, 8) if k_dim % factor == 0
    ]


def benchmark_table(records: Records) -> ExperimentResult:
    """Fig. 8 left table: per-benchmark stream/pattern characterisation."""
    rows = []
    for kernel in all_kernels():
        d = kernel.describe()
        rows.append(
            (
                d["letter"],
                d["name"],
                d["domain"],
                d["streams"],
                d["nesting"],
                d["kernels"],
                d["pattern"],
                "" if d["sve_vectorized"] else "*",
            )
        )
    return ExperimentResult(
        "fig8-table",
        "Benchmarks (A-S): #streams, max loop nesting, #kernels, pattern",
        ["id", "benchmark", "domain", "streams", "nesting", "kernels",
         "pattern", "SVE*"],
        rows,
        notes=["* = not vectorized by the baseline compiler (scalar SVE/NEON)"],
    )


def instruction_reduction(records: Records) -> ExperimentResult:
    """Fig. 8.A: reduction of committed instructions, UVE vs SVE/NEON."""
    rows = []
    red_sve, red_neon = [], []
    for kernel, u, s, n in _comparison(records):
        rs = 1 - u.committed / s.committed
        rn = 1 - u.committed / n.committed
        red_sve.append(rs)
        red_neon.append(rn)
        rows.append((kernel.letter, kernel.name, u.committed, s.committed,
                     n.committed, f"{rs:.1%}", f"{rn:.1%}"))
    rows.append(("", "average", "", "", "",
                 f"{sum(red_sve)/len(red_sve):.1%}",
                 f"{sum(red_neon)/len(red_neon):.1%}"))
    return ExperimentResult(
        "fig8a",
        "Reduction of committed instructions (paper: 60.9% vs SVE, "
        "93.2% vs NEON)",
        ["id", "benchmark", "uve", "sve", "neon", "vs SVE", "vs NEON"],
        rows,
    )


def speedup(records: Records) -> ExperimentResult:
    """Fig. 8.B: performance speedup of UVE over SVE and NEON."""
    rows = []
    vec_sve, all_neon = [], []
    for kernel, u, s, n in _comparison(records):
        sp_s = s.cycles / u.cycles
        sp_n = n.cycles / u.cycles
        if kernel.sve_vectorized:
            vec_sve.append(sp_s)
        all_neon.append(sp_n)
        rows.append((kernel.letter, kernel.name,
                     f"{sp_s:.2f}x", f"{sp_n:.2f}x",
                     "" if kernel.sve_vectorized else "*"))
    rows.append(("", "geomean (vectorized vs SVE)",
                 f"{geomean(vec_sve):.2f}x", f"{geomean(all_neon):.2f}x", ""))
    return ExperimentResult(
        "fig8b",
        "Speed-up of UVE (paper: 2.4x average over SVE on vectorized "
        "benchmarks; large spikes on * benchmarks)",
        ["id", "benchmark", "vs SVE", "vs NEON", "SVE*"],
        rows,
    )


def rename_blocks(records: Records) -> ExperimentResult:
    """Fig. 8.C: rename-stage blocks per cycle."""
    rows = []
    ratios = []
    for kernel, u, s, n in _comparison(records):
        rows.append((kernel.letter, kernel.name,
                     u.rename_blocks_per_cycle, s.rename_blocks_per_cycle,
                     n.rename_blocks_per_cycle))
        if kernel.sve_vectorized and s.rename_blocks_per_cycle > 0:
            ratios.append(
                u.rename_blocks_per_cycle / s.rename_blocks_per_cycle
            )
    note = (
        f"mean UVE/SVE ratio on vectorized benchmarks: "
        f"{sum(ratios)/len(ratios):.2f} (paper: -33.4% on average)"
    )
    return ExperimentResult(
        "fig8c",
        "Rename blocks per cycle (fraction of cycles rename stalled)",
        ["id", "benchmark", "uve", "sve", "neon"],
        rows,
        notes=[note],
    )


def bus_utilization(records: Records) -> ExperimentResult:
    """Fig. 8.D: DRAM bus utilization, (ReadBW+WriteBW)/PeakBW."""
    rows = []
    for kernel, u, s, n in _comparison(records):
        rows.append((kernel.letter, kernel.name,
                     u.bus_utilization, s.bus_utilization, n.bus_utilization))
    return ExperimentResult(
        "fig8d",
        "Memory bus utilization (paper: large increases on memory-bound "
        "benchmarks; no change on L2-bound ones)",
        ["id", "benchmark", "uve", "sve", "neon"],
        rows,
    )


def unrolling(records: Records) -> ExperimentResult:
    """Fig. 8.E: speed-up of loop unrolling on the UVE GEMM, normalised
    to the first (not unrolled) run of the run list."""
    base_cycles = next(iter(records.values())).cycles
    rows = [
        (spec.unroll, int(record.cycles),
         f"{base_cycles / record.cycles:.2f}x")
        for spec, record in records.items()
    ]
    return ExperimentResult(
        "fig8e",
        "GEMM loop-unrolling speed-up (UVE unrolled vs not unrolled)",
        ["unroll factor", "cycles", "speed-up"],
        rows,
    )
