"""Combined functional + timing simulation: record once, time many.

The Streaming Engine runs ahead of the core (paper §IV-B): it starts
fetching a stream's chunks as soon as the stream is configured, long
before the instructions that consume them are fetched.  The functional
simulator produces chunk addresses only as those instructions execute,
so the timing pipeline needs a finished functional run before timing
starts.  Simulation therefore has two steps:

* :func:`record` runs the functional simulator once over a program, a
  memory image and a vector width.  The :class:`Recording` it returns
  holds the dynamic trace (one :class:`DynOp` per committed
  instruction) in a plain list, the run's :class:`TraceSummary` with
  its per-stream chunk records, and the allocation break the cache
  warm-up covers.
* :meth:`Recording.time` times that recording under a
  :class:`MachineConfig`, on a fresh memory hierarchy warmed with the
  allocated data and a fresh :class:`Pipeline`.

:meth:`Simulator.run` is the two in a row.  The functional pass takes
nothing from the config but its vector width, and timing only reads the
trace and the chunk records, so one recording may be timed under every
config of that width: the campaign executor times each group of runs
that share a trace this way, and the fuzz oracle its timing cases.
Timing a recording under another vector width raises
:class:`~repro.errors.ConfigError`.  The timing model consumes exactly
the trace the engine metadata came from, so the two cannot diverge.

A held recording keeps each contiguous access and each stream chunk as
an address run (a ``range``), so it costs 164-191 bytes per committed
instruction on perfbench's SVE programs and 246-546 on its UVE ones,
whose ops also hold stream events (docs/TIMING.md, "Memory cost").
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.cpu.config import MachineConfig
from repro.cpu.pipeline import Pipeline
from repro.cpu.stats import PipelineStats
from repro.errors import ConfigError
from repro.isa.program import Program
from repro.kernels import Workload, get_kernel
from repro.memory.backing import Memory
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.functional import FunctionalSimulator
from repro.sim.trace import DynOp, TraceSummary


@dataclass
class SimulationResult:
    """Everything the experiment harness needs from one run."""

    program: str
    summary: TraceSummary
    timing: PipelineStats
    hierarchy: MemoryHierarchy
    pipeline: Pipeline

    @property
    def committed(self) -> int:
        return self.summary.committed

    @property
    def cycles(self) -> float:
        return self.timing.cycles

    @property
    def ipc(self) -> float:
        return self.timing.ipc

    @property
    def bus_utilization(self) -> float:
        return self.timing.bus_utilization

    @property
    def rename_blocks_per_cycle(self) -> float:
        return self.timing.rename_blocks_per_cycle

    def to_dict(self) -> dict:
        """JSON-serialisable summary of the run (for external tooling)."""
        engine = self.pipeline.engine
        out = {
            "program": self.program,
            "committed": self.committed,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "bus_utilization": self.bus_utilization,
            "rename_blocks_per_cycle": self.rename_blocks_per_cycle,
            "rename_block_causes": dict(self.timing.rename_block_causes),
            "mispredict_rate": self.timing.mispredict_rate,
            "fetch_stall_cycles": self.timing.fetch_stall_cycles,
            "dram_bytes": self.hierarchy.dram.total_bytes,
            "l1d_miss_rate": self.hierarchy.l1d.stats.miss_rate,
            "l2_miss_rate": self.hierarchy.l2.stats.miss_rate,
        }
        if engine is not None:
            out["engine"] = {
                "line_requests": engine.stats.line_requests,
                "chunks_filled": engine.stats.chunks_filled,
                "store_lines": engine.stats.store_lines,
                "mean_fifo_occupancy": engine.stats.mean_fifo_occupancy,
                "configs": engine.stats.configs,
            }
        return out


#: the per-instruction pipeline hook: ``observer(event, dyn_op, cycle)``
#: with event "rename", "issue" or "commit" (used by repro.sim.debug)
Observer = Callable[[str, DynOp, float], None]


@dataclass
class Recording:
    """One functional pass, ready to be timed under any config of its
    vector width."""

    program: str
    vector_bits: int
    trace: List[DynOp]
    summary: TraceSummary
    #: allocation break of the memory image: the warm-up pre-installs
    #: ``[0, mem_bytes)`` into the L2
    mem_bytes: int

    def pipeline(self, config: MachineConfig, warm: bool = True) -> Pipeline:
        """A fresh pipeline over a fresh hierarchy, ready to time the
        trace under ``config``."""
        if config.vector_bits != self.vector_bits:
            raise ConfigError(
                f"{self.program!r} was recorded with {self.vector_bits}-bit "
                f"vectors and cannot be timed under a "
                f"{config.vector_bits}-bit config"
            )
        hierarchy = MemoryHierarchy(config)
        if warm:
            hierarchy.warm(0, self.mem_bytes)
        return Pipeline(config, hierarchy, dict(self.summary.streams))

    def time(
        self,
        config: MachineConfig,
        warm: bool = True,
        observer: Optional[Observer] = None,
    ) -> SimulationResult:
        """Time the trace under ``config``; ``observer``, if given, is
        installed as the pipeline's per-instruction hook."""
        pipeline = self.pipeline(config, warm)
        pipeline.observer = observer
        timing = pipeline.run(self.trace)
        return SimulationResult(
            program=self.program,
            summary=self.summary,
            timing=timing,
            hierarchy=pipeline.hierarchy,
            pipeline=pipeline,
        )


def record(program: Program, memory: Memory, vector_bits: int) -> Recording:
    """Run ``program`` functionally over ``memory`` and keep its trace."""
    functional = FunctionalSimulator(
        program, memory=memory, vector_bits=vector_bits
    )
    trace = list(functional.trace())
    return Recording(
        program.name, vector_bits, trace, functional.summary, memory._brk
    )


def record_kernel(
    kernel_name: str,
    isa: str,
    vector_bits: int,
    scale: float = 1.0,
    seed: int = 0,
    unroll: int = 0,
) -> Tuple[Recording, Workload]:
    """Generate a kernel's workload, build it for ``isa`` and record it.
    ``unroll > 0`` selects the unrolled UVE build (Fig. 8.E).  The
    returned workload holds the memory after the run, for ``verify``."""
    kernel = get_kernel(kernel_name)
    wl = kernel.workload(seed=seed, scale=scale)
    if unroll:
        program = kernel.build_uve_unrolled(
            wl, vector_bits // 32, unroll=unroll
        )
    else:
        program = kernel.build(isa, wl, vector_bits)
    return record(program, wl.memory, vector_bits), wl


class Simulator:
    """Runs a program functionally and through the timing model."""

    def __init__(
        self,
        program: Program,
        memory: Memory,
        config: Optional[MachineConfig] = None,
        warm: bool = True,
    ) -> None:
        self.program = program
        self.memory = memory
        self.config = config or MachineConfig()
        #: pre-install the allocated data into the L2 (steady-state
        #: measurement); working sets beyond the L2 capacity overflow.
        self.warm = warm

    def run(self, observer: Optional[Observer] = None) -> SimulationResult:
        """Record the trace in one functional pass, then time it.

        ``observer``, if given, is installed as the pipeline's
        per-instruction rename/issue/commit hook.
        """
        recording = record(self.program, self.memory, self.config.vector_bits)
        return recording.time(self.config, self.warm, observer)
