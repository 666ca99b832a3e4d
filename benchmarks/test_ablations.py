"""Ablation benchmarks for design choices DESIGN.md calls out:

* stream scheduler policy (FIFO-occupancy vs round-robin, §IV-B);
* number of Stream Processing Modules (paper: 2 vs 8 differ by <0.1%);
* baseline prefetchers on/off (UVE's advantage must persist either way).
"""
from dataclasses import replace

from repro.cpu.config import PrefetcherConfig, default_machine

from conftest import run_figure
from repro.harness.report import ExperimentResult


def _run_with(runner, kernel, isa, mutate):
    cfg = mutate(default_machine(isa))
    return runner.run(kernel, isa, cfg)


def scheduler_policy(runner) -> ExperimentResult:
    rows = []
    for kernel in ("stream", "jacobi-2d", "gemm"):
        occ = _run_with(
            runner, kernel, "uve",
            lambda c: c.with_(engine=replace(c.engine,
                                             scheduler_policy="fifo-occupancy")),
        )
        rr = _run_with(
            runner, kernel, "uve",
            lambda c: c.with_(engine=replace(c.engine,
                                             scheduler_policy="round-robin")),
        )
        rows.append((kernel, int(occ.cycles), int(rr.cycles),
                     f"{rr.cycles / occ.cycles:.3f}x"))
    return ExperimentResult(
        "ablation-scheduler",
        "Stream scheduler: FIFO-occupancy priority vs round-robin",
        ["benchmark", "fifo-occupancy", "round-robin", "rr/occ"],
        rows,
    )


def processing_modules(runner) -> ExperimentResult:
    rows = []
    for kernel in ("gemm", "jacobi-2d", "stream"):
        cycles = []
        for modules in (2, 4, 8):
            record = _run_with(
                runner, kernel, "uve",
                lambda c, m=modules: c.with_(
                    engine=replace(c.engine, processing_modules=m)
                ),
            )
            cycles.append(record.cycles)
        rows.append((kernel,) + tuple(int(c) for c in cycles)
                    + (f"{cycles[0] / cycles[-1]:.3f}x",))
    return ExperimentResult(
        "ablation-spm",
        "Stream Processing Modules 2 vs 8 (paper: <0.1% difference)",
        ["benchmark", "2 modules", "4 modules", "8 modules", "2/8"],
        rows,
    )


def baseline_prefetchers(runner) -> ExperimentResult:
    rows = []
    for kernel in ("memcpy", "saxpy", "jacobi-2d"):
        uve = runner.run(kernel, "uve")
        sve_on = runner.run(kernel, "sve")
        sve_off = _run_with(
            runner, kernel, "sve",
            lambda c: c.with_(prefetch=PrefetcherConfig(
                l1_stride_enabled=False, l2_ampm_enabled=False)),
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


def mac_forwarding(runner) -> ExperimentResult:
    """Cortex-A76-style FMLA accumulator forwarding on/off: chains of
    multiply-accumulates (gemm, haccmk) speed up on both cores."""
    rows = []
    for kernel in ("gemm", "haccmk"):
        for isa in ("uve", "sve"):
            plain = runner.run(kernel, isa)
            cfg = default_machine(isa)
            cfg = cfg.with_(core=replace(cfg.core, mac_forwarding=True))
            fwd = runner.run(kernel, isa, cfg)
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


def test_ablation_mac_forwarding(benchmark, runner):
    result = run_figure(benchmark, runner, mac_forwarding)
    assert result.rows
    for row in result.rows:
        assert float(row[4].rstrip("x")) >= 0.99  # never slower


def test_ablation_scheduler(benchmark, runner):
    result = run_figure(benchmark, runner, scheduler_policy)
    assert result.rows


def test_ablation_spm(benchmark, runner):
    result = run_figure(benchmark, runner, processing_modules)
    assert result.rows


def test_ablation_prefetch(benchmark, runner):
    result = run_figure(benchmark, runner, baseline_prefetchers)
    assert result.rows
    # The advantage persists without baseline prefetchers.
    for row in result.rows:
        assert float(row[2].rstrip("x")) >= float(row[1].rstrip("x")) - 0.5
