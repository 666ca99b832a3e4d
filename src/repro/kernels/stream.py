"""Benchmark B: STREAM (McCalpin) — copy, scale, add, triad.

Four disjoint 1-D kernels run back-to-back over three arrays, the
classic memory-bandwidth benchmark; the paper's table reports it with
the highest kernel count of the memory benchmarks.
"""
from __future__ import annotations

import numpy as np

from repro.ir import FMA_OP, Op, loop1d
from repro.kernels.base import Kernel, Workload, scaled

SCALAR = 3.0


def stream_reference(a, b, c, s):
    """The four STREAM kernels in sequence (NumPy reference)."""
    c1 = a.copy()  # copy:  c = a
    b1 = s * c1  # scale: b = s*c
    c2 = a + b1  # add:   c = a + b
    a1 = b1 + s * c2  # triad: a = b + s*c
    return a1, b1, c2


class StreamKernel(Kernel):
    name = "stream"
    letter = "B"
    domain = "memory"
    n_streams = 10
    max_nesting = 1
    n_kernels = 4
    pattern = "1D"

    default_n = 24576  # 3 x 96 KB: beyond the L1, pressures the L2

    def workload(self, seed: int = 0, scale: float = 1.0) -> Workload:
        n = scaled(self.default_n, scale, minimum=64, multiple=16)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n).astype(np.float32)
        b = rng.standard_normal(n).astype(np.float32)
        c = rng.standard_normal(n).astype(np.float32)
        wl = Workload(memory=self.fresh_memory(), params={"n": n})
        wl.place("a", a)
        wl.place("b", b)
        wl.place("c", c)
        ea, eb, ec = stream_reference(a, b, c, np.float32(SCALAR))
        wl.expected.update({"a": ea, "b": eb, "c": ec})
        return wl

    def ir_nests(self, wl: Workload):
        """The four sub-kernels as one nest each, lowered back-to-back;
        each nest sets up its own loop registers and constant.  Triad
        reads c as the running value (a = SCALAR*c + b)."""
        n = wl.params["n"]
        a, bb, c = wl.addr("a"), wl.addr("b"), wl.addr("c")
        return (
            loop1d("copy", [a], c, n),
            loop1d("scale", [c], bb, n, ops=(Op("mul", "imm", SCALAR),)),
            loop1d("add", [a, bb], c, n, ops=(Op("add", "b"),)),
            loop1d("triad", [c, bb], a, n, ops=(Op(FMA_OP, "b", SCALAR),)),
        )
