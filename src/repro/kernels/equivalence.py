"""IR-vs-legacy equivalence gate for migrated kernels.

A kernel may switch to the shared loop-nest IR only if, per ISA, the IR
program is **instruction-identical** to the hand-written builder, or —
when the shapes legitimately differ (e.g. STREAM's hoisted constants) —
both programs verify against the NumPy reference on every ISA and their
timing-model cycle counts agree within noise.  ``check_kernel`` runs the
gate; the golden tests in ``tests/kernels/test_ir_equivalence.py`` lock
it in CI.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cpu.config import default_machine
from repro.isa.program import Program
from repro.kernels.base import Kernel
from repro.sim.functional import FunctionalSimulator
from repro.sim.simulator import Simulator

#: relative cycle difference treated as timing noise for the oracle path.
CYCLE_TOLERANCE = 0.05


@dataclass(frozen=True)
class Equivalence:
    """The gate's verdict for one kernel x ISA."""

    kernel: str
    isa: str
    verdict: str  # "identical" | "oracle"
    ir_committed: int
    legacy_committed: int
    ir_cycles: float = 0.0
    legacy_cycles: float = 0.0

    @property
    def cycle_delta(self) -> float:
        if not self.legacy_cycles:
            return 0.0
        return abs(self.ir_cycles - self.legacy_cycles) / self.legacy_cycles


def programs_identical(first: Program, second: Program) -> bool:
    """Instruction-for-instruction equality (labels included; names may
    differ)."""
    return (
        first.labels == second.labels
        and len(first) == len(second)
        and all(
            repr(a) == repr(b)
            for a, b in zip(first.instructions, second.instructions)
        )
    )


def _run_verified(
    kernel: Kernel,
    isa: str,
    lowering: str,
    *,
    seed: int,
    scale: float,
    vector_bits: int,
    timing: bool,
) -> Tuple[int, float]:
    """Build + run one lowering against a fresh workload; verify against
    the NumPy reference; return (committed, cycles)."""
    wl = kernel.workload(seed=seed, scale=scale)
    program = kernel.build(isa, wl, vector_bits, lowering=lowering)
    if timing:
        config = default_machine(isa).with_(vector_bits=vector_bits)
        result = Simulator(program, wl.memory, config).run()
        wl.verify()
        return result.committed, result.cycles
    summary = FunctionalSimulator(
        program, memory=wl.memory, vector_bits=vector_bits
    ).run()
    wl.verify()
    return summary.committed, 0.0


def check_kernel(
    kernel: Kernel,
    isa: str,
    *,
    seed: int = 0,
    scale: float = 0.25,
    vector_bits: int = 512,
    timing: Optional[bool] = None,
) -> Equivalence:
    """Gate one kernel x ISA: identical programs pass outright; diverging
    shapes must verify on the oracle and stay within cycle noise.

    ``timing=None`` runs the timing model only when needed (the oracle
    path); pass False to skip it (functional verification only) or True
    to force it.
    """
    wl = kernel.workload(seed=seed, scale=scale)
    ir_prog = kernel.build(isa, wl, vector_bits, lowering="ir")
    legacy_prog = kernel.build(isa, wl, vector_bits, lowering="legacy")
    if programs_identical(ir_prog, legacy_prog):
        summary = FunctionalSimulator(
            ir_prog, memory=wl.memory, vector_bits=vector_bits
        ).run()
        wl.verify()
        return Equivalence(
            kernel.name, isa, "identical", summary.committed, summary.committed
        )
    run_timing = True if timing is None else timing
    ir_committed, ir_cycles = _run_verified(
        kernel, isa, "ir",
        seed=seed, scale=scale, vector_bits=vector_bits, timing=run_timing,
    )
    legacy_committed, legacy_cycles = _run_verified(
        kernel, isa, "legacy",
        seed=seed, scale=scale, vector_bits=vector_bits, timing=run_timing,
    )
    verdict = Equivalence(
        kernel.name, isa, "oracle",
        ir_committed, legacy_committed, ir_cycles, legacy_cycles,
    )
    if run_timing and verdict.cycle_delta > CYCLE_TOLERANCE:
        raise AssertionError(
            f"{kernel.name}/{isa}: IR lowering shifts timing beyond noise "
            f"({verdict.ir_cycles:.0f} vs {verdict.legacy_cycles:.0f} "
            f"cycles, {verdict.cycle_delta:.1%} > {CYCLE_TOLERANCE:.0%})"
        )
    return verdict
