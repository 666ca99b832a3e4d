"""Benchmark C: saxpy — the paper's running example (Fig. 1 / Fig. 4)."""
from __future__ import annotations

import numpy as np

from repro.ir import FMA_OP, Op, loop1d
from repro.kernels.base import Kernel, Workload, scaled

A = 2.5


class SaxpyKernel(Kernel):
    name = "saxpy"
    letter = "C"
    domain = "BLAS"
    n_streams = 3
    max_nesting = 1
    n_kernels = 1
    pattern = "1D"

    default_n = 16384  # 3 x 64 KB working set: beyond the L1

    def workload(self, seed: int = 0, scale: float = 1.0) -> Workload:
        n = scaled(self.default_n, scale, minimum=64, multiple=16)
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal(n).astype(np.float32)
        ys = rng.standard_normal(n).astype(np.float32)
        wl = Workload(memory=self.fresh_memory(), params={"n": n})
        wl.place("x", xs)
        wl.place("y", ys)
        wl.expected["y"] = np.float32(A) * xs + ys
        return wl

    def ir_nests(self, wl: Workload):
        # y = A*x + y: one fused step.
        return (
            loop1d(
                "saxpy",
                [wl.addr("x"), wl.addr("y")],
                wl.addr("y"),
                wl.params["n"],
                ops=(Op(FMA_OP, "b", A),),
            ),
        )
