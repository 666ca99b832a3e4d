"""Benchmark I: jacobi-1d — two 3-point stencil sweeps (PolyBench):
``B[i] = (A[i-1]+A[i]+A[i+1])/3`` then the same from B back into A.

UVE needs no predication or tail handling: three shifted input streams
and one interior output stream per sweep.
"""
from __future__ import annotations

import numpy as np

from repro.common.types import ElementType
from repro.isa import ProgramBuilder, f, p, u, x
from repro.isa import neon_ops as neon
from repro.isa import scalar_ops as sc
from repro.isa import sve_ops as sve
from repro.isa import uve_ops as uve
from repro.isa.program import Program
from repro.kernels.base import Kernel, Workload, scaled
from repro.streams.pattern import Direction

F32 = ElementType.F32
THIRD = 1.0 / 3.0


def jacobi1d_reference(a):
    b = a.copy()
    b[1:-1] = (a[:-2] + a[1:-1] + a[2:]) / np.float32(3.0)
    a2 = b.copy()
    a2[1:-1] = (b[:-2] + b[1:-1] + b[2:]) / np.float32(3.0)
    return a2, b


class Jacobi1dKernel(Kernel):
    name = "jacobi-1d"
    letter = "I"
    domain = "stencil"
    n_streams = 8
    max_nesting = 1
    n_kernels = 2
    pattern = "1D"

    default_n = 16384

    def workload(self, seed: int = 0, scale: float = 1.0) -> Workload:
        n = scaled(self.default_n, scale, minimum=64, multiple=16)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n).astype(np.float32)
        wl = Workload(memory=self.fresh_memory(), params={"n": n})
        wl.place("a", a)
        wl.place("b", a.copy())
        ea, eb = jacobi1d_reference(a.astype(np.float64))
        wl.expected["a"] = ea.astype(np.float32)
        wl.expected["b"] = eb.astype(np.float32)
        return wl

    def build_uve(self, wl: Workload, lanes: int) -> Program:
        n = wl.params["n"]
        b = ProgramBuilder("jacobi1d-uve")
        b.emit(sc.FLi(f(0), THIRD), uve.SoDup(u(6), f(0), etype=F32))

        def sweep(tag, src, dst):
            se, de = src // 4, dst // 4
            interior = n - 2
            b.emit(
                uve.SsConfig1D(u(0), Direction.LOAD, se, interior, 1, etype=F32),
                uve.SsConfig1D(u(1), Direction.LOAD, se + 1, interior, 1, etype=F32),
                uve.SsConfig1D(u(2), Direction.LOAD, se + 2, interior, 1, etype=F32),
                uve.SsConfig1D(u(3), Direction.STORE, de + 1, interior, 1, etype=F32),
            )
            b.label(tag)
            b.emit(
                uve.SoOp("add", u(4), u(0), u(1), etype=F32),
                uve.SoOp("add", u(4), u(4), u(2), etype=F32),
                uve.SoOp("mul", u(3), u(4), u(6), etype=F32),
                uve.SoBranchEnd(u(0), tag, negate=True),
            )

        sweep("s1", wl.addr("a"), wl.addr("b"))
        sweep("s2", wl.addr("b"), wl.addr("a"))
        b.emit(sc.Halt())
        return b.build()

    def build_rvv(self, wl: Workload) -> Program:
        from repro.isa import rvv_ops as rvv
        n = wl.params["n"]
        b = ProgramBuilder("jacobi1d-rvv")
        b.emit(sc.FLi(f(0), THIRD))

        def sweep(tag, src, dst):
            remaining, vl, step = x(3), x(4), x(5)
            xs0, xs1, xs2, xd = x(8), x(9), x(10), x(11)
            b.emit(
                sc.Li(remaining, n - 2),
                sc.Li(xs0, src), sc.Li(xs1, src + 4), sc.Li(xs2, src + 8),
                sc.Li(xd, dst + 4),
            )
            b.label(tag)
            b.emit(
                rvv.VSetVli(vl, remaining, etype=F32),
                rvv.VlLoad(u(1), xs0, etype=F32),
                rvv.VlLoad(u(2), xs1, etype=F32),
                rvv.VlLoad(u(3), xs2, etype=F32),
                rvv.VOpVV("add", u(1), u(1), u(2), etype=F32),
                rvv.VOpVV("add", u(1), u(1), u(3), etype=F32),
                rvv.VOpVF("mul", u(1), u(1), f(0), etype=F32),
                rvv.VlStore(u(1), xd, etype=F32),
                sc.IntOp("sub", remaining, remaining, vl),
                sc.IntOp("sll", step, vl, 2),
                sc.IntOp("add", xs0, xs0, step),
                sc.IntOp("add", xs1, xs1, step),
                sc.IntOp("add", xs2, xs2, step),
                sc.IntOp("add", xd, xd, step),
                sc.BranchCmp("ne", remaining, 0, tag),
            )

        sweep("r1", wl.addr("a"), wl.addr("b"))
        sweep("r2", wl.addr("b"), wl.addr("a"))
        b.emit(sc.Halt())
        return b.build()

    def build_vector(self, wl: Workload, isa: str) -> Program:
        n = wl.params["n"]
        b = ProgramBuilder(f"jacobi1d-{isa}")
        if isa == "sve":
            b.emit(sc.FLi(f(0), THIRD), sve.Dup(u(0), f(0), etype=F32))

            def sweep(tag, src, dst):
                xsrc, xdst, xn, xoff = x(8), x(9), x(10), x(11)
                b.emit(
                    sc.Li(xsrc, src), sc.Li(xdst, dst + 4),
                    sc.Li(xn, n - 2), sc.Li(xoff, 0),
                    sve.WhileLt(p(1), xoff, xn, etype=F32),
                )
                b.label(tag)
                b.emit(
                    sve.Ld1(u(1), p(1), xsrc, index=xoff, etype=F32),
                    sc.IntOp("add", x(12), xsrc, 4),
                    sve.Ld1(u(2), p(1), x(12), index=xoff, etype=F32),
                    sc.IntOp("add", x(12), xsrc, 8),
                    sve.Ld1(u(3), p(1), x(12), index=xoff, etype=F32),
                    sve.VOp("add", u(1), p(1), u(1), u(2), etype=F32),
                    sve.VOp("add", u(1), p(1), u(1), u(3), etype=F32),
                    sve.VOp("mul", u(1), p(1), u(1), u(0), etype=F32),
                    sve.St1(u(1), p(1), xdst, index=xoff, etype=F32),
                    sve.IncElems(xoff, etype=F32),
                    sve.WhileLt(p(1), xoff, xn, etype=F32),
                    sve.BranchPred("first", p(1), tag, etype=F32),
                )

            sweep("s1", wl.addr("a"), wl.addr("b"))
            sweep("s2", wl.addr("b"), wl.addr("a"))
            b.emit(sc.Halt())
            return b.build()

        # NEON: 128-bit main loop + scalar tail per sweep.
        b.emit(sc.FLi(f(0), THIRD), neon.NVDup(u(0), f(0), etype=F32))

        def sweep(tag, src, dst):
            interior = n - 2
            main = interior - interior % 4
            xsrc, xdst, xoff = x(8), x(9), x(11)
            b.emit(sc.Li(xsrc, src), sc.Li(xdst, dst + 4), sc.Li(xoff, 0))
            b.emit(sc.BranchCmp("ge", xoff, main, f"{tag}_tail"))
            b.label(tag)
            b.emit(
                neon.NVLoad(u(1), xsrc, 0, etype=F32),
                neon.NVLoad(u(2), xsrc, 4, etype=F32),
                neon.NVLoad(u(3), xsrc, 8, etype=F32),
                neon.NVOp("add", u(1), u(1), u(2), etype=F32),
                neon.NVOp("add", u(1), u(1), u(3), etype=F32),
                neon.NVOp("mul", u(1), u(1), u(0), etype=F32),
                neon.NVStore(u(1), xdst, etype=F32, post_inc=True),
                sc.IntOp("add", xsrc, xsrc, 16),
                sc.IntOp("add", xoff, xoff, 4),
                sc.BranchCmp("lt", xoff, main, tag),
            )
            b.label(f"{tag}_tail")
            b.emit(sc.BranchCmp("ge", xoff, interior, f"{tag}_done"))
            b.label(f"{tag}_tail_loop")
            b.emit(
                sc.Load(f(1), xsrc, 0, etype=F32),
                sc.Load(f(2), xsrc, 4, etype=F32),
                sc.Load(f(3), xsrc, 8, etype=F32),
                sc.FOp("add", f(1), f(1), f(2)),
                sc.FOp("add", f(1), f(1), f(3)),
                sc.FOp("mul", f(1), f(1), f(0)),
                sc.Store(f(1), xdst, 0, etype=F32),
                sc.IntOp("add", xsrc, xsrc, 4),
                sc.IntOp("add", xdst, xdst, 4),
                sc.IntOp("add", xoff, xoff, 1),
                sc.BranchCmp("lt", xoff, interior, f"{tag}_tail_loop"),
            )
            b.label(f"{tag}_done")

        sweep("s1", wl.addr("a"), wl.addr("b"))
        sweep("s2", wl.addr("b"), wl.addr("a"))
        b.emit(sc.Halt())
        return b.build()
