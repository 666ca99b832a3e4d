"""Debug and introspection helpers.

* :func:`functional_trace` — human-readable dump of a program's dynamic
  execution (instructions, memory addresses, stream chunk consumption).
* :func:`pipeline_timeline` — per-instruction rename/issue/commit cycles
  from a full timing run, rendered as a text pipeline diagram.
* :func:`stream_report` — per-stream summary (chunks, elements, lines).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cpu.config import MachineConfig, uve_machine
from repro.isa.microop import OpClass
from repro.isa.program import Program
from repro.memory.backing import Memory
from repro.sim.functional import FunctionalSimulator
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceSummary


def functional_trace(
    program: Program,
    memory: Memory,
    limit: int = 100,
    vector_bits: int = 512,
) -> str:
    """Execute functionally and render the first ``limit`` dynamic
    instructions with their side effects."""
    sim = FunctionalSimulator(program, memory=memory, vector_bits=vector_bits)
    lines: List[str] = []
    for op in sim.trace():
        if op.seq >= limit:
            lines.append(f"... (truncated at {limit} instructions)")
            break
        parts = [f"{op.seq:>6d}  pc={op.pc:<4d} {str(op.inst):<40s}"]
        if op.mem_reads:
            parts.append(f"R[{_addr_span(op.mem_reads)}]")
        if op.mem_writes:
            parts.append(f"W[{_addr_span(op.mem_writes)}]")
        if op.stream_reads:
            parts.append(
                "consume " + ",".join(
                    f"u{r}#{c}" for (r, _, c, __) in op.stream_reads
                )
            )
        if op.stream_writes:
            parts.append(
                "produce " + ",".join(
                    f"u{r}#{c}" for (r, _, c, __) in op.stream_writes
                )
            )
        if op.inst.opclass is OpClass.BRANCH:
            parts.append("taken" if op.taken else "not-taken")
        lines.append(" ".join(parts))
    return "\n".join(lines)


def _addr_span(addrs) -> str:
    """First and last address and the count, read off an address run
    without expanding it."""
    if len(addrs) == 1:
        return f"{addrs[0]:#x}"
    return f"{addrs[0]:#x}..{addrs[-1]:#x} ({len(addrs)})"


@dataclass
class OpTiming:
    seq: int
    pc: int
    text: str
    rename: Optional[float] = None
    issue: Optional[float] = None
    commit: Optional[float] = None


def pipeline_timeline(
    program: Program,
    memory: Memory,
    config: Optional[MachineConfig] = None,
    first: int = 0,
    count: int = 40,
) -> str:
    """Run the full simulator and render rename/issue/commit cycles for
    ``count`` instructions starting at dynamic index ``first``; the
    ``total:`` line is the run's :meth:`Simulator.run` cycle count."""
    window: Dict[int, OpTiming] = {}

    def observer(event: str, dyn, cycle: float) -> None:
        if not (first <= dyn.seq < first + count):
            return
        timing = window.get(dyn.seq)
        if timing is None:
            timing = window[dyn.seq] = OpTiming(dyn.seq, dyn.pc, str(dyn.inst))
        setattr(timing, event, cycle)

    result = Simulator(program, memory, config or uve_machine()).run(observer)

    header = (
        f"{'seq':>6s} {'pc':>4s} {'instruction':<40s} "
        f"{'rename':>8s} {'issue':>8s} {'commit':>8s}"
    )
    lines = [header, "-" * len(header)]
    for seq in sorted(window):
        t = window[seq]
        lines.append(
            f"{t.seq:>6d} {t.pc:>4d} {t.text:<40s} "
            f"{_cycle(t.rename)} {_cycle(t.issue)} {_cycle(t.commit)}"
        )
    lines.append(
        f"total: {result.cycles:.0f} cycles, IPC {result.ipc:.2f}"
    )
    return "\n".join(lines)


def _cycle(value: Optional[float]) -> str:
    return f"{value:>8.0f}" if value is not None else f"{'-':>8s}"


def stream_report(summary: TraceSummary) -> str:
    """Summarise the streams a functional run configured."""
    lines = [
        f"{'uid':>4s} {'reg':>4s} {'dir':>5s} {'dims':>4s} {'chunks':>7s} "
        f"{'elems':>8s} {'state B':>8s}"
    ]
    for uid in sorted(summary.streams):
        info = summary.streams[uid]
        lines.append(
            f"{uid:>4d} u{info.reg:<3d} "
            f"{'load' if info.is_load else 'store':>5s} {info.ndims:>4d} "
            f"{len(info.chunks):>7d} {info.total_elements():>8d} "
            f"{info.storage_bytes:>8d}"
        )
    return "\n".join(lines)
