"""Golden committed-instruction counts per kernel and ISA.

These are regression locks: a change to a kernel's code shape or to an
ISA's semantics that alters the dynamic instruction count — the paper's
Fig. 8.A currency — must be deliberate and show up here.
Counts are at scale 0.25, seed 0.  The same runs check that
``FunctionalSimulator.run()``, which builds no DynOps, and a recorded
``trace()`` agree exactly.
"""
import hashlib
from functools import lru_cache

import pytest

from repro.isa.microop import OpClass
from repro.kernels import get_kernel
from repro.sim.functional import FunctionalSimulator
from repro.sim.trace import TraceSummary

#: kernel -> (uve, sve, neon) committed instructions at scale 0.25.
GOLDEN = {
    "memcpy": (2051, 5126, 16392),
    "stream": (3469, 9626, 32290),
    "saxpy": (774, 1801, 6155),
    "gemm": (344, 850, 4500),
    "3mm": (2479, 6076, 32716),
    "mvt": (193, 408, 1084),
    "gemver": (337, 794, 1852),
    "trisolv": (303, 535, 2776),
    "jacobi-1d": (2059, 6157, 20517),
    "jacobi-2d": (555, 1859, 4805),
    "irsmk": (193, 788, 4987),
    "haccmk": (580, 888, 2917),
    "knn": (1035, 1678, 6156),
    "covariance": (488, 19062, 19062),
    "mamr": (148, 2932, 2932),
    "mamr-diag": (117, 1900, 1900),
    "mamr-ind": (149, 3029, 3029),
    "seidel-2d": (3786, 4385, 4385),
    "floyd-warshall": (250, 2277, 2277),
}


def _simulator(name, isa):
    kernel = get_kernel(name)
    wl = kernel.workload(seed=0, scale=0.25)
    return FunctionalSimulator(kernel.build(isa, wl), memory=wl.memory), wl


def memory_digest(memory):
    return hashlib.sha256(memory.data).hexdigest()


@lru_cache(maxsize=None)
def functional_run(name, isa):
    """``(summary, final memory digest)`` of a verified ``run()``."""
    sim, wl = _simulator(name, isa)
    summary = sim.run()
    wl.verify()
    return summary, memory_digest(wl.memory)


def committed(name, isa):
    return functional_run(name, isa)[0].committed


def recount(ops):
    """Summary counts rebuilt op by op: the reference counting rules."""
    summary = TraceSummary()
    for op in ops:
        opclass = op.inst.opclass
        summary.committed += 1
        summary.by_class[opclass] = summary.by_class.get(opclass, 0) + 1
        if opclass is OpClass.BRANCH:
            summary.branches += 1
            if op.taken:
                summary.taken_branches += 1
    return summary


def counts(summary):
    return (
        summary.committed, summary.by_class, summary.branches,
        summary.taken_branches,
    )


def stream_records(summary):
    return {
        uid: (info.chunks, info.chunk_flags, info.origin_reads)
        for uid, info in summary.streams.items()
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_counts(name):
    uve, sve, neon = GOLDEN[name]
    assert committed(name, "uve") == uve
    assert committed(name, "sve") == sve
    assert committed(name, "neon") == neon


@pytest.mark.parametrize("isa", ["uve", "sve", "neon"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_and_trace_agree(name, isa):
    summary, digest = functional_run(name, isa)
    sim, wl = _simulator(name, isa)
    ops = list(sim.trace())
    traced = sim.summary
    assert counts(traced) == counts(summary)
    assert stream_records(traced) == stream_records(summary)
    assert memory_digest(wl.memory) == digest
    assert counts(recount(ops)) == counts(traced)
    # The timing core and the summary fold read a pc's static facts only
    # through ``op.inst``, so it must be the program's own instruction.
    instructions = sim.program.instructions
    assert all(op.inst is instructions[op.pc] for op in ops)


def test_golden_table_covers_all_kernels():
    from repro.kernels import kernel_names
    assert set(GOLDEN) == set(kernel_names())
