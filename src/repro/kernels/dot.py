"""Extension benchmark T: dot product — the IR-native reduction kernel.

Like memcpy, stream and saxpy, every ISA's program comes from the
shared loop-nest IR (:mod:`repro.lower`); this one exercises the
reduction path end to end — UVE's ``so.mac`` + final scalar reduce,
SVE's predicated ``fmla`` + ``fadd`` tree, NEON's vector accumulate +
scalar tail, and RVV's per-strip ``vfred`` fold.  ``paper=False`` keeps it out of the Fig. 8 figures and
golden tables.
"""
from __future__ import annotations

import numpy as np

from repro.ir import loop1d
from repro.kernels.base import Kernel, Workload, scaled


class DotKernel(Kernel):
    name = "dot"
    letter = "T"
    domain = "BLAS"
    n_streams = 3
    max_nesting = 1
    n_kernels = 1
    pattern = "1D"
    paper = False

    default_n = 16384  # matches saxpy's working set

    def workload(self, seed: int = 0, scale: float = 1.0) -> Workload:
        n = scaled(self.default_n, scale, minimum=64, multiple=16)
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal(n).astype(np.float32)
        # Correlate y with x so the reduction is dominated by sum(x^2):
        # the result stays O(n) positive and the float32-vs-float64
        # verification tolerance is not eaten by cancellation.
        ys = (xs + 0.5 * rng.standard_normal(n)).astype(np.float32)
        wl = Workload(memory=self.fresh_memory(), params={"n": n})
        wl.place("x", xs)
        wl.place("y", ys)
        wl.place("out", np.zeros(1, dtype=np.float32))
        wl.expected["out"] = np.array(
            [np.dot(xs.astype(np.float64), ys.astype(np.float64))],
            dtype=np.float32,
        )
        return wl

    def ir_nests(self, wl: Workload):
        return (
            loop1d(
                "dot",
                [wl.addr("x"), wl.addr("y")],
                wl.addr("out"),
                wl.params["n"],
                reduce="add",
                use_mac=True,
            ),
        )
