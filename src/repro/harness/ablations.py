"""Ablations of the design choices the paper calls out (DESIGN.md §6):
the stream scheduling policy (§IV-B), the number of Stream Processing
Modules, the baseline core's prefetchers (Table I) and MAC accumulator
forwarding, one ``ablation-*`` experiment each.
"""
from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.cpu.config import PrefetcherConfig, default_machine
from repro.harness.report import ExperimentResult
from repro.harness.runner import Records, Runner, RunSpec

SCHEDULER_KERNELS = ("stream", "jacobi-2d", "gemm")
SCHEDULER_POLICIES = ("fifo-occupancy", "round-robin")
SPM_KERNELS = ("gemm", "jacobi-2d", "stream")
SPM_MODULES = (2, 4, 8)
PREFETCH_KERNELS = ("memcpy", "saxpy", "jacobi-2d")
MAC_ROWS = tuple((kernel, isa) for kernel in ("gemm", "haccmk")
                 for isa in ("uve", "sve"))


def _engine_runs(kernel: str, field: str, values):
    """``kernel``'s UVE runs, one per value of the engine's ``field``."""
    cfg = default_machine("uve")
    return tuple(
        RunSpec(kernel, "uve",
                cfg.with_(engine=replace(cfg.engine, **{field: value})))
        for value in values
    )


def _scheduler_runs(kernel: str):
    return _engine_runs(kernel, "scheduler_policy", SCHEDULER_POLICIES)


def _spm_runs(kernel: str):
    return _engine_runs(kernel, "processing_modules", SPM_MODULES)


def _prefetch_runs(kernel: str):
    off = default_machine("sve").with_(prefetch=PrefetcherConfig(
        l1_stride_enabled=False, l2_ampm_enabled=False))
    return (RunSpec(kernel, "uve"), RunSpec(kernel, "sve"),
            RunSpec(kernel, "sve", off))


def _mac_runs(kernel: str, isa: str):
    cfg = default_machine(isa)
    forwarding = cfg.with_(core=replace(cfg.core, mac_forwarding=True))
    return RunSpec(kernel, isa), RunSpec(kernel, isa, forwarding)


def scheduler_specs(runner: Runner) -> List[RunSpec]:
    return [spec for name in SCHEDULER_KERNELS
            for spec in _scheduler_runs(name)]


def spm_specs(runner: Runner) -> List[RunSpec]:
    return [spec for name in SPM_KERNELS for spec in _spm_runs(name)]


def prefetch_specs(runner: Runner) -> List[RunSpec]:
    return [spec for name in PREFETCH_KERNELS
            for spec in _prefetch_runs(name)]


def mac_forwarding_specs(runner: Runner) -> List[RunSpec]:
    return [spec for row in MAC_ROWS for spec in _mac_runs(*row)]


def scheduler(records: Records) -> ExperimentResult:
    rows = []
    for name in SCHEDULER_KERNELS:
        occ, rr = (records[spec] for spec in _scheduler_runs(name))
        rows.append((name, int(occ.cycles), int(rr.cycles),
                     f"{rr.cycles / occ.cycles:.3f}x"))
    return ExperimentResult(
        "ablation-scheduler",
        "Stream scheduler: FIFO-occupancy priority vs round-robin",
        ["benchmark", "fifo-occupancy", "round-robin", "rr/occ"],
        rows,
    )


def spm(records: Records) -> ExperimentResult:
    rows = []
    for name in SPM_KERNELS:
        cycles = [records[spec].cycles for spec in _spm_runs(name)]
        rows.append((name,) + tuple(int(c) for c in cycles)
                    + (f"{cycles[0] / cycles[-1]:.3f}x",))
    return ExperimentResult(
        "ablation-spm",
        "Stream Processing Modules 2 vs 8 (paper: <0.1% difference)",
        ["benchmark"] + [f"{m} modules" for m in SPM_MODULES] + ["2/8"],
        rows,
    )


def prefetch(records: Records) -> ExperimentResult:
    rows = []
    for name in PREFETCH_KERNELS:
        uve, sve_on, sve_off = (
            records[spec] for spec in _prefetch_runs(name)
        )
        rows.append((name, f"{sve_on.cycles / uve.cycles:.2f}x",
                     f"{sve_off.cycles / uve.cycles:.2f}x"))
    return ExperimentResult(
        "ablation-prefetch",
        "UVE speed-up vs SVE with and without baseline prefetchers",
        ["benchmark", "prefetchers on", "prefetchers off"],
        rows,
        notes=["UVE needs no prefetchers; its advantage grows when the "
               "baseline loses them"],
    )


def mac_forwarding(records: Records) -> ExperimentResult:
    rows = []
    for kernel, isa in MAC_ROWS:
        plain, fwd = (records[spec] for spec in _mac_runs(kernel, isa))
        rows.append((kernel, isa, int(plain.cycles), int(fwd.cycles),
                     f"{plain.cycles / fwd.cycles:.3f}x"))
    return ExperimentResult(
        "ablation-mac-forwarding",
        "MAC accumulator forwarding off vs on",
        ["benchmark", "isa", "off", "on", "speed-up"],
        rows,
    )
