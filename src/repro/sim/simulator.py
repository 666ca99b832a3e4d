"""Combined functional + timing simulation.

The Streaming Engine runs ahead of the core (paper §IV-B): it starts
fetching a stream's chunks as soon as the stream is configured, long
before the instructions that consume them are fetched.  The functional
simulator produces chunk addresses only as those instructions execute,
so the timing pipeline needs a finished functional run before timing
starts.  Simulation therefore runs the functional simulator once, keeps
its dynamic trace (one :class:`DynOp` per committed instruction) in a
plain list, and times that list with the same run's per-stream chunk
records (``summary.streams``).  The timing model consumes exactly the
trace the engine metadata came from, so the two cannot diverge.

The held trace costs about 220 bytes per committed instruction (see
docs/TIMING.md for measured peaks).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cpu.config import MachineConfig
from repro.cpu.pipeline import Pipeline
from repro.cpu.stats import PipelineStats
from repro.isa.program import Program
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

    def run_functional(self) -> TraceSummary:
        """Functional-only run (fast; used for instruction counts)."""
        sim = FunctionalSimulator(
            self.program, memory=self.memory,
            vector_bits=self.config.vector_bits,
        )
        return sim.run()

    def run(
        self, observer: Optional[Callable[[str, DynOp, float], None]] = None
    ) -> SimulationResult:
        """Record the trace in one functional pass, then time it.

        ``observer``, if given, is installed as the pipeline's
        per-instruction rename/issue/commit hook.
        """
        functional = FunctionalSimulator(
            self.program, memory=self.memory,
            vector_bits=self.config.vector_bits,
        )
        trace = list(functional.trace())
        summary = functional.summary
        hierarchy = MemoryHierarchy(self.config)
        if self.warm:
            hierarchy.warm(0, self.memory._brk)
        pipeline = Pipeline(self.config, hierarchy, dict(summary.streams))
        pipeline.observer = observer
        timing = pipeline.run(trace)
        return SimulationResult(
            program=self.program.name,
            summary=summary,
            timing=timing,
            hierarchy=hierarchy,
            pipeline=pipeline,
        )
