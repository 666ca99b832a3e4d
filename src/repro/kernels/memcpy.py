"""Benchmark A: memcpy — pure 1-D streaming copy (memory domain)."""
from __future__ import annotations

import numpy as np

from repro.ir import loop1d
from repro.kernels.base import Kernel, Workload, scaled


class MemcpyKernel(Kernel):
    name = "memcpy"
    letter = "A"
    domain = "memory"
    n_streams = 2
    max_nesting = 1
    n_kernels = 1
    pattern = "1D"

    #: default element count: 2 x 256 KB, exceeding the L2 (DRAM-streaming,
    #: as in the paper's memory benchmarks).
    default_n = 65536

    def workload(self, seed: int = 0, scale: float = 1.0) -> Workload:
        n = scaled(self.default_n, scale, minimum=64, multiple=16)
        rng = np.random.default_rng(seed)
        src = rng.standard_normal(n).astype(np.float32)
        dst = np.zeros(n, dtype=np.float32)
        wl = Workload(memory=self.fresh_memory(), params={"n": n})
        wl.place("src", src)
        wl.place("dst", dst)
        wl.expected["dst"] = src.copy()
        return wl

    def ir_nests(self, wl: Workload):
        return (
            loop1d(
                "memcpy", [wl.addr("src")], wl.addr("dst"), wl.params["n"]
            ),
        )
