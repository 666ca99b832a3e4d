"""Equivalence property of the vectorized functional stream path: it
must be observationally identical to the legacy element-granular path
over randomly generated stream programs — same memory image, same
commit count, same recorded chunk trace.

The timing fast paths (``event_batching`` × ``fast_forward``) are checked
against the exact timing golden over every paper kernel, in
``tests/integration/test_timing_all_kernels.py``.
"""
import numpy as np
import pytest

from repro.fuzz.generator import generate_spec
from repro.fuzz.lowering import lower
from repro.fuzz.oracle import clone_memory
from repro.fuzz.reference import materialize
from repro.sim.functional import FunctionalSimulator

CASES = [(seed, index) for seed in (7, 42) for index in range(8)]


def run_functional(program, memory, vector_bits, vectorized):
    sim = FunctionalSimulator(
        program,
        memory=memory,
        vector_bits=vector_bits,
        vectorized_streams=vectorized,
    )
    summary = sim.run()
    return summary, memory


@pytest.mark.parametrize("seed,index", CASES)
def test_vectorized_streams_match_legacy(seed, index):
    spec = generate_spec(seed, index)
    art = materialize(spec)
    program = lower(spec, art, "uve")

    fast_sum, fast_mem = run_functional(
        program, clone_memory(art.memory), spec.vector_bits, True
    )
    ref_sum, ref_mem = run_functional(
        program, clone_memory(art.memory), spec.vector_bits, False
    )

    np.testing.assert_array_equal(fast_mem.data, ref_mem.data)
    assert fast_sum.committed == ref_sum.committed
    assert fast_sum.streams.keys() == ref_sum.streams.keys()
    for uid, fast_info in fast_sum.streams.items():
        ref_info = ref_sum.streams[uid]
        assert fast_info.chunks == ref_info.chunks
        assert fast_info.chunk_flags == ref_info.chunk_flags
        assert fast_info.origin_reads == ref_info.origin_reads
