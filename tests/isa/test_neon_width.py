"""NEON values are 128 bits wide whatever the machine's vector width.

The NEON classes read a register through :func:`neon_reader`, which
slices a held value that covers the 128 bits and otherwise takes
``MachineState.read_v``'s zero-pad and cast.  Both halves are checked
against ``read_v(reg, etype).data[:lanes]``, byte for byte, and every
registry kernel's NEON build must end in the same memory and
:class:`TraceSummary` on 128-, 256- and 512-bit machines.
"""
import numpy as np
import pytest

from repro.common.types import ElementType
from repro.fuzz.oracle import clone_memory
from repro.isa import u
from repro.isa.neon_ops import neon_lanes, neon_reader
from repro.isa.vector import VecValue, all_valid
from repro.kernels.registry import all_kernels
from repro.sim.functional import FunctionalSimulator, MachineState

F32, F64, I32, I64 = (
    ElementType.F32, ElementType.F64, ElementType.I32, ElementType.I64
)


def held(values, etype):
    data = np.array(values, dtype=etype.dtype)
    return VecValue(data, all_valid(len(data)))


#: register -> (values, element type) written before the reads
HELD = {
    1: ([1.5, -0.0, np.nan, 3.25, 7.0, 8.0, 9.0, 10.0], F32),  # wider
    2: ([2.5, -4.0], F32),  # narrower
    3: ([1 / 3, -2.75], F64),  # another dtype and width
    4: ([7, -3, 1 << 20, 5], I32),  # same width, another dtype
    5: ([1 << 40, -1], I64),
}


def assert_same_read(state, etype, index):
    # u1's NaN cast to an integer type is undefined, but the same cast.
    with np.errstate(invalid="ignore"):
        got = neon_reader(state, etype)(u(index))
        want = state.read_v(u(index), etype).data[: neon_lanes(etype)]
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("vector_bits", [64, 128, 256, 512])
@pytest.mark.parametrize("etype", [F32, F64, I32, I64], ids=str)
@pytest.mark.parametrize("index", [0, *HELD], ids=lambda i: f"u{i}")
def test_read_equals_read_v(vector_bits, etype, index):
    state = MachineState(vector_bits=vector_bits)
    for reg, (values, held_type) in HELD.items():
        state.write_v(u(reg), held(values, held_type), held_type)
    # u0 is a blank register: the value all 32 registers start with.
    assert_same_read(state, etype, index)
    state.set_vl(2, F32)  # fewer lanes than NEON has for 32-bit types
    assert_same_read(state, etype, index)


def test_covered_value_is_read_where_it_lies():
    state = MachineState(vector_bits=512)
    value = held(np.arange(16), F32)
    state.write_v(u(1), value, F32)
    got = neon_reader(state, F32)(u(1))
    assert got.base is value.data
    assert got.tolist() == [0.0, 1.0, 2.0, 3.0]


def final_state(kernel, vector_bits):
    wl = kernel.workload(seed=0, scale=0.05)
    memory = clone_memory(wl.memory)
    sim = FunctionalSimulator(
        kernel.build("neon", wl), memory=memory, vector_bits=vector_bits
    )
    summary = sim.run()
    counts = (summary.committed, summary.by_class, summary.branches,
              summary.taken_branches)
    return memory.data.tobytes(), counts


@pytest.mark.parametrize(
    "kernel", all_kernels(include_extensions=True), ids=lambda k: k.name
)
def test_kernel_runs_the_same_on_every_machine_width(kernel):
    if "neon" not in kernel.supported_isas():
        pytest.skip(f"{kernel.name} has no NEON build")
    at_128 = final_state(kernel, 128)
    for vector_bits in (256, 512):
        assert final_state(kernel, vector_bits) == at_128, vector_bits
