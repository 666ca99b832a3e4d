"""Extension experiments beyond the paper's evaluation.

* ``ext-rvv`` — adds the paper's third comparator (RISC-V "V", Fig. 1.C)
  to the timing comparison on the 1-D benchmark family.
* ``ext-vl`` — the vector-length-agnosticism premise: the *same* UVE and
  SVE programs run unchanged on machines with 128- to 1024-bit vectors
  (NEON code is fixed-width and serves as the control).
* ``ext-shared-fifo`` — the paper's §IV-B future-work idea: one pooled
  load-FIFO budget shared across streams instead of fixed per-stream
  queues.
"""
from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.cpu.config import default_machine
from repro.harness.report import ExperimentResult
from repro.harness.runner import Records, Runner, RunSpec

#: kernels with RVV implementations (the 1-D family).
RVV_KERNELS = ("memcpy", "stream", "saxpy", "jacobi-1d", "jacobi-2d", "knn")

#: the vector-length sweep (ext-vl): kernels and hardware widths.
VL_KERNELS = ("saxpy", "jacobi-1d")
VL_WIDTHS = (128, 256, 512, 1024)

#: ext-shared-fifo benchmark subset.
SHARED_FIFO_KERNELS = ("stream", "jacobi-2d", "gemm", "mamr")


def _vl_config(isa: str, bits: int):
    return default_machine(isa).with_(vector_bits=bits)


def _pooled_config():
    cfg = default_machine("uve")
    return cfg.with_(engine=replace(cfg.engine, shared_fifo=True))


def _rvv_runs(name: str):
    """``name``'s UVE, SVE, RVV and NEON runs.  RVV code runs on the
    SVE core."""
    return (
        RunSpec(name, "uve"),
        RunSpec(name, "sve"),
        RunSpec(name, "rvv", default_machine("sve")),
        RunSpec(name, "neon"),
    )


def rvv_comparison_specs(runner: Runner) -> List[RunSpec]:
    return [spec for name in RVV_KERNELS for spec in _rvv_runs(name)]


def vector_length_sweep_specs(runner: Runner) -> List[RunSpec]:
    return [
        RunSpec(name, isa, _vl_config(isa, bits))
        for name in VL_KERNELS
        for isa in ("uve", "sve")
        for bits in VL_WIDTHS
    ]


def shared_fifo_specs(runner: Runner) -> List[RunSpec]:
    specs = []
    for name in SHARED_FIFO_KERNELS:
        specs.append(RunSpec(name, "uve"))
        specs.append(RunSpec(name, "uve", _pooled_config()))
    return specs


def rvv_comparison(records: Records) -> ExperimentResult:
    rows = []
    for name in RVV_KERNELS:
        uve, sve, rvv, neon = (records[spec] for spec in _rvv_runs(name))
        rows.append(
            (
                name,
                f"{sve.cycles / uve.cycles:.2f}x",
                f"{rvv.cycles / uve.cycles:.2f}x",
                f"{neon.cycles / uve.cycles:.2f}x",
                rvv.committed,
                sve.committed,
            )
        )
    return ExperimentResult(
        "ext-rvv",
        "UVE speed-up vs all three comparators of Fig. 1 (SVE, RVV, NEON)",
        ["benchmark", "vs SVE", "vs RVV", "vs NEON", "rvv inst", "sve inst"],
        rows,
        notes=["RVV strip-mines with vsetvli instead of predication; its "
               "loop overhead sits between SVE's and NEON's"],
    )


def vector_length_sweep(records: Records) -> ExperimentResult:
    """Run the *same* kernel builders at four hardware vector lengths."""
    rows = []
    widths = VL_WIDTHS
    for name in VL_KERNELS:
        for isa in ("uve", "sve"):
            cycles = [
                records[RunSpec(name, isa, _vl_config(isa, bits))].cycles
                for bits in widths
            ]
            base = cycles[widths.index(512)]
            rows.append(
                (name, isa)
                + tuple(f"{base / c:.2f}x" for c in cycles)
            )
    return ExperimentResult(
        "ext-vl",
        "Vector-length agnosticism: identical code, 128- to 1024-bit "
        "machines (normalized to 512-bit)",
        ["benchmark", "isa"] + [f"{w}b" for w in widths],
        rows,
        notes=["wider vectors help until the memory system saturates; "
               "no program was modified across columns"],
    )


def shared_fifo(records: Records) -> ExperimentResult:
    """§IV-B future work: pool the load-FIFO capacity across streams."""
    rows = []
    for name in SHARED_FIFO_KERNELS:
        fixed = records[RunSpec(name, "uve")]
        pooled = records[RunSpec(name, "uve", _pooled_config())]
        rows.append(
            (
                name,
                int(fixed.cycles),
                int(pooled.cycles),
                f"{fixed.cycles / pooled.cycles:.3f}x",
            )
        )
    return ExperimentResult(
        "ext-shared-fifo",
        "Shared (pooled) load FIFOs vs fixed per-stream queues "
        "(the paper's future-work design)",
        ["benchmark", "fixed", "pooled", "speed-up"],
        rows,
    )
