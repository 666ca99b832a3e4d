"""Ablation benchmarks for design choices DESIGN.md calls out:

* stream scheduler policy (FIFO-occupancy vs round-robin, §IV-B);
* number of Stream Processing Modules (paper: 2 vs 8 differ by <0.1%);
* baseline prefetchers on/off (UVE's advantage must persist either way).
"""
from dataclasses import replace

from repro.cpu.config import PrefetcherConfig, default_machine

from conftest import run_figure
from repro.harness import Experiment, RunSpec
from repro.harness.report import ExperimentResult

SCHEDULER_KERNELS = ("stream", "jacobi-2d", "gemm")
SPM_KERNELS = ("gemm", "jacobi-2d", "stream")
PREFETCH_KERNELS = ("memcpy", "saxpy", "jacobi-2d")
MAC_ROWS = tuple((kernel, isa) for kernel in ("gemm", "haccmk")
                 for isa in ("uve", "sve"))


def _engine(**changes):
    cfg = default_machine("uve")
    return cfg.with_(engine=replace(cfg.engine, **changes))


def _scheduler_runs(kernel):
    return tuple(
        RunSpec(kernel, "uve", _engine(scheduler_policy=policy))
        for policy in ("fifo-occupancy", "round-robin")
    )


def _spm_runs(kernel):
    return tuple(
        RunSpec(kernel, "uve", _engine(processing_modules=modules))
        for modules in (2, 4, 8)
    )


def _prefetch_runs(kernel):
    off = default_machine("sve").with_(prefetch=PrefetcherConfig(
        l1_stride_enabled=False, l2_ampm_enabled=False))
    return (RunSpec(kernel, "uve"), RunSpec(kernel, "sve"),
            RunSpec(kernel, "sve", off))


def _mac_runs(row):
    kernel, isa = row
    cfg = default_machine(isa)
    forwarding = cfg.with_(core=replace(cfg.core, mac_forwarding=True))
    return RunSpec(kernel, isa), RunSpec(kernel, isa, forwarding)


def _run_list(runs, rows):
    """The run list of a table whose row ``row`` reads ``runs(row)``."""
    return lambda runner: [spec for row in rows for spec in runs(row)]


def scheduler_policy(records) -> ExperimentResult:
    rows = []
    for kernel in SCHEDULER_KERNELS:
        occ, rr = (records[spec] for spec in _scheduler_runs(kernel))
        rows.append((kernel, int(occ.cycles), int(rr.cycles),
                     f"{rr.cycles / occ.cycles:.3f}x"))
    return ExperimentResult(
        "ablation-scheduler",
        "Stream scheduler: FIFO-occupancy priority vs round-robin",
        ["benchmark", "fifo-occupancy", "round-robin", "rr/occ"],
        rows,
    )


def processing_modules(records) -> ExperimentResult:
    rows = []
    for kernel in SPM_KERNELS:
        cycles = [records[spec].cycles for spec in _spm_runs(kernel)]
        rows.append((kernel,) + tuple(int(c) for c in cycles)
                    + (f"{cycles[0] / cycles[-1]:.3f}x",))
    return ExperimentResult(
        "ablation-spm",
        "Stream Processing Modules 2 vs 8 (paper: <0.1% difference)",
        ["benchmark", "2 modules", "4 modules", "8 modules", "2/8"],
        rows,
    )


def baseline_prefetchers(records) -> ExperimentResult:
    rows = []
    for kernel in PREFETCH_KERNELS:
        uve, sve_on, sve_off = (
            records[spec] for spec in _prefetch_runs(kernel)
        )
        rows.append((
            kernel,
            f"{sve_on.cycles / uve.cycles:.2f}x",
            f"{sve_off.cycles / uve.cycles:.2f}x",
        ))
    return ExperimentResult(
        "ablation-prefetch",
        "UVE speed-up vs SVE with and without baseline prefetchers",
        ["benchmark", "prefetchers on", "prefetchers off"],
        rows,
        notes=["UVE needs no prefetchers; its advantage grows when the "
               "baseline loses them"],
    )


def mac_forwarding(records) -> ExperimentResult:
    """Cortex-A76-style FMLA accumulator forwarding on/off: chains of
    multiply-accumulates (gemm, haccmk) speed up on both cores."""
    rows = []
    for kernel, isa in MAC_ROWS:
        plain, fwd = (records[spec] for spec in _mac_runs((kernel, isa)))
        rows.append(
            (kernel, isa, int(plain.cycles), int(fwd.cycles),
             f"{plain.cycles / fwd.cycles:.3f}x")
        )
    return ExperimentResult(
        "ablation-mac-forwarding",
        "MAC accumulator forwarding off vs on",
        ["benchmark", "isa", "off", "on", "speed-up"],
        rows,
    )


SCHEDULER = Experiment(
    scheduler_policy, _run_list(_scheduler_runs, SCHEDULER_KERNELS))
SPM = Experiment(processing_modules, _run_list(_spm_runs, SPM_KERNELS))
PREFETCH = Experiment(
    baseline_prefetchers, _run_list(_prefetch_runs, PREFETCH_KERNELS))
MAC_FORWARDING = Experiment(mac_forwarding, _run_list(_mac_runs, MAC_ROWS))


def test_ablation_mac_forwarding(benchmark, executor):
    result = run_figure(benchmark, executor, MAC_FORWARDING)
    assert result.rows
    for row in result.rows:
        assert float(row[4].rstrip("x")) >= 0.99  # never slower


def test_ablation_scheduler(benchmark, executor):
    result = run_figure(benchmark, executor, SCHEDULER)
    assert result.rows


def test_ablation_spm(benchmark, executor):
    result = run_figure(benchmark, executor, SPM)
    assert result.rows


def test_ablation_prefetch(benchmark, executor):
    result = run_figure(benchmark, executor, PREFETCH)
    assert result.rows
    # The advantage persists without baseline prefetchers.
    for row in result.rows:
        assert float(row[2].rstrip("x")) >= float(row[1].rstrip("x")) - 0.5
