"""Experiment harness: regenerates every table and figure of the paper."""
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.harness import ablations, extensions, fig8, overheads, sensitivity
from repro.harness.report import ExperimentResult
from repro.harness.runner import Records, Runner, RunRecord, RunSpec


def _no_specs(runner: Runner) -> List[RunSpec]:
    return []


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: its run list, and a table built from the
    records of exactly those runs.

    The campaign executor calls ``specs`` (the run list; experiments
    that share one share its runs), simulates or loads every run it
    names, and hands ``build`` their records in run-list order.  A table
    never simulates: reading a run its list did not declare raises
    ``KeyError``."""

    build: Callable[[Records], ExperimentResult]
    specs: Callable[[Runner], List[RunSpec]] = field(default=_no_specs)


#: experiment id -> Experiment
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(overheads.table1),
    "fig8-table": Experiment(fig8.benchmark_table),
    "fig8a": Experiment(fig8.instruction_reduction, fig8.comparison_specs),
    "fig8b": Experiment(fig8.speedup, fig8.comparison_specs),
    "fig8c": Experiment(fig8.rename_blocks, fig8.comparison_specs),
    "fig8d": Experiment(fig8.bus_utilization, fig8.comparison_specs),
    "fig8e": Experiment(fig8.unrolling, fig8.unrolling_specs),
    "fig9": Experiment(sensitivity.vector_registers,
                       sensitivity.vector_registers_specs),
    "fig10": Experiment(sensitivity.fifo_depth, sensitivity.fifo_depth_specs),
    "fig11": Experiment(sensitivity.stream_cache_level,
                        sensitivity.stream_cache_level_specs),
    "overheads": Experiment(overheads.storage_overheads),
    "ext-rvv": Experiment(extensions.rvv_comparison,
                          extensions.rvv_comparison_specs),
    "ext-vl": Experiment(extensions.vector_length_sweep,
                         extensions.vector_length_sweep_specs),
    "ext-shared-fifo": Experiment(extensions.shared_fifo,
                                  extensions.shared_fifo_specs),
    "ablation-scheduler": Experiment(ablations.scheduler,
                                     ablations.scheduler_specs),
    "ablation-spm": Experiment(ablations.spm, ablations.spm_specs),
    "ablation-prefetch": Experiment(ablations.prefetch,
                                    ablations.prefetch_specs),
    "ablation-mac-forwarding": Experiment(ablations.mac_forwarding,
                                          ablations.mac_forwarding_specs),
}


__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "Records",
    "RunRecord",
    "RunSpec",
    "Runner",
]
