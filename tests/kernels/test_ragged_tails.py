"""The IR kernels' builds at element counts that leave a partial vector.

The registry's workloads hold a multiple of 16 elements, so none of
their builds runs a tail at 128, 256 or 512 bits.  Here memcpy, stream,
saxpy and dot are built through ``Kernel.build`` for counts below one
vector, between vectors and exactly one 512-bit vector, run on every ISA
at each width, verified against NumPy, and checked to leave every byte
outside their output arrays as it was.
"""
import numpy as np
import pytest

from repro.kernels import ALL_ISAS, get_kernel
from repro.kernels.base import Workload
from repro.kernels.saxpy import A
from repro.kernels.stream import SCALAR, stream_reference
from repro.memory.backing import Memory
from repro.sim.functional import FunctionalSimulator

KERNELS = ("memcpy", "stream", "saxpy", "dot")
SIZES = (1, 3, 15, 16, 17, 33)
VECTOR_BITS = (128, 256, 512)


def ragged_workload(name: str, n: int, seed: int = 7) -> Workload:
    """``name``'s arrays at ``n`` elements, placed in a small memory of
    random bytes, with the NumPy reference of every array the kernel
    writes.  The random padding between arrays makes a read or write
    past an array's last element change what it leaves behind."""
    rng = np.random.default_rng(seed)

    def vector():
        return rng.standard_normal(n).astype(np.float32)

    memory = Memory(1 << 16)
    memory.data[:] = rng.integers(0, 256, memory.size, dtype=np.uint8)
    wl = Workload(memory=memory, params={"n": n})
    if name == "memcpy":
        src = vector()
        wl.place("src", src)
        wl.place("dst", np.zeros(n, dtype=np.float32))
        wl.expected["dst"] = src.copy()
    elif name == "stream":
        a, b, c = vector(), vector(), vector()
        for array, values in (("a", a), ("b", b), ("c", c)):
            wl.place(array, values)
        ea, eb, ec = stream_reference(a, b, c, np.float32(SCALAR))
        wl.expected.update({"a": ea, "b": eb, "c": ec})
    elif name == "saxpy":
        xs, ys = vector(), vector()
        wl.place("x", xs)
        wl.place("y", ys)
        wl.expected["y"] = np.float32(A) * xs + ys
    else:
        xs = vector()
        # y follows x, as in the registry's dot workload, so the sum is
        # not lost to cancellation.
        ys = (xs + 0.5 * vector()).astype(np.float32)
        wl.place("x", xs)
        wl.place("y", ys)
        wl.place("out", np.zeros(1, dtype=np.float32))
        wl.expected["out"] = np.array(
            [np.dot(xs.astype(np.float64), ys.astype(np.float64))],
            dtype=np.float32,
        )
    return wl


def outside_outputs(wl: Workload) -> np.ndarray:
    """A mask of the memory bytes that no expected array covers."""
    mask = np.ones(wl.memory.size, dtype=bool)
    for name in wl.expected:
        addr, shape, dtype = wl.arrays[name]
        mask[addr:addr + int(np.prod(shape)) * np.dtype(dtype).itemsize] = False
    return mask


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", KERNELS)
def test_build_handles_ragged_tail(name, n):
    kernel = get_kernel(name)
    for isa in ALL_ISAS:
        for vector_bits in VECTOR_BITS:
            label = f"{name}/{isa} at {vector_bits} bits, n={n}"
            wl = ragged_workload(name, n)
            before = wl.memory.data.copy()
            program = kernel.build(isa, wl, vector_bits)
            FunctionalSimulator(
                program, memory=wl.memory, vector_bits=vector_bits
            ).run()
            try:
                wl.verify()
            except AssertionError as exc:
                raise AssertionError(f"{label}: {exc}") from None
            outside = outside_outputs(wl)
            assert np.array_equal(
                wl.memory.data[outside], before[outside]
            ), f"{label}: a byte outside the output arrays changed"
