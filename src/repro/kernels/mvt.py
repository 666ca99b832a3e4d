"""Benchmark F: mvt — x1 += A·y1 and x2 += Aᵀ·y2 (PolyBench).

x1 is a loop of row dot products.  UVE, SVE and NEON all compute x2 in
the outer-vectorized form docs/KERNELS.md describes: A stays row-major,
so its streams and loads are contiguous, and y2 is consumed one element
per row of A.
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


def emit_uve_dots(b, tag, mat, vec, acc_io, rows, cols, row_stride, col_stride,
                  alpha=1.0):
    """Emit a UVE loop computing ``acc_io[i] += alpha*dot(row_i(mat), vec)``.

    ``row_stride``/``col_stride`` select row-major (``cols,1``) or
    transposed (``1,cols``) traversal — the UVE loop body is identical,
    only the descriptor differs (the paper's Fig. 2 point).
    """
    b.emit(
        uve.SsSta(u(0), Direction.LOAD, mat // 4, cols, col_stride, etype=F32),
        uve.SsApp(u(0), 0, rows, row_stride, last=True),
        uve.SsSta(u(1), Direction.LOAD, vec // 4, cols, 1, etype=F32),
        uve.SsApp(u(1), 0, rows, 0, last=True),
        uve.SsConfig1D(u(2), Direction.LOAD, acc_io // 4, rows, 1, etype=F32),
        uve.SsConfig1D(u(3), Direction.STORE, acc_io // 4, rows, 1, etype=F32),
    )
    b.label(f"{tag}_row")
    b.emit(uve.SoDup(u(4), 0.0, etype=F32))
    b.label(f"{tag}_chunk")
    b.emit(
        uve.SoMac(u(4), u(0), u(1), etype=F32),
        uve.SoBranchDim(u(0), 0, f"{tag}_chunk", complete=False),
        uve.SoRedScalar("add", f(1), u(4), etype=F32),
    )
    if alpha != 1.0:
        b.emit(sc.FOp("mul", f(1), f(1), alpha))
    b.emit(
        uve.SoScalarRead(f(2), u(2), etype=F32),
        sc.FOp("add", f(1), f(1), f(2)),
        uve.SoScalarWrite(u(3), f(1), etype=F32),
        uve.SoBranchEnd(u(0), f"{tag}_row", negate=True),
    )


def emit_sve_row_dots(b, tag, mat, vec, acc_io, rows, cols, alpha=1.0):
    """SVE row-major dot products: acc_io[i] += alpha*dot(A[i], vec)."""
    xrow, xvec, xio = x(8), x(9), x(10)
    xcols, xi, xn, xoff = x(11), x(12), x(13), x(14)
    b.emit(
        sc.Li(xrow, mat), sc.Li(xvec, vec), sc.Li(xio, acc_io),
        sc.Li(xcols, cols), sc.Li(xn, rows), sc.Li(xi, 0),
    )
    b.label(f"{tag}_i")
    b.emit(
        sc.Li(xoff, 0),
        sve.WhileLt(p(1), xoff, xcols, etype=F32),
        sve.Dup(u(1), 0.0, etype=F32),
    )
    b.label(f"{tag}_col")
    b.emit(
        sve.Ld1(u(2), p(1), xrow, index=xoff, etype=F32),
        sve.Ld1(u(3), p(1), xvec, index=xoff, etype=F32),
        sve.Fmla(u(1), p(1), u(2), u(3), etype=F32),
        sve.IncElems(xoff, etype=F32),
        sve.WhileLt(p(1), xoff, xcols, etype=F32),
        sve.BranchPred("first", p(1), f"{tag}_col", etype=F32),
    )
    b.emit(
        sve.Red("add", f(1), p(0), u(1), etype=F32),
    )
    if alpha != 1.0:
        b.emit(sc.FOp("mul", f(1), f(1), alpha))
    b.emit(
        sc.Load(f(2), xio, 0, etype=F32),
        sc.FOp("add", f(1), f(1), f(2)),
        sc.Store(f(1), xio, 0, etype=F32),
        sc.IntOp("add", xio, xio, 4),
        sc.IntOp("add", xrow, xrow, 4 * cols),
        sc.IntOp("add", xi, xi, 1),
        sc.BranchCmp("lt", xi, xn, f"{tag}_i"),
    )


def emit_neon_row_dots(b, tag, mat, vec, acc_io, rows, cols, alpha=1.0):
    """NEON row-major dot products (cols must be a multiple of 4)."""
    xrow, xvec, xio = x(8), x(9), x(10)
    xi, xoff = x(12), x(14)
    b.emit(sc.Li(xrow, mat), sc.Li(xio, acc_io), sc.Li(xi, 0))
    b.label(f"{tag}_i")
    b.emit(
        sc.Li(xoff, 0), sc.Li(xvec, vec),
        neon.NVDup(u(1), 0.0, etype=F32),
        sc.Move(x(15), xrow),
    )
    b.label(f"{tag}_col")
    b.emit(
        neon.NVLoad(u(2), x(15), etype=F32, post_inc=True),
        neon.NVLoad(u(3), xvec, etype=F32, post_inc=True),
        neon.NVFma(u(1), u(2), u(3), etype=F32),
        sc.IntOp("add", xoff, xoff, 4),
        sc.BranchCmp("lt", xoff, cols, f"{tag}_col"),
    )
    b.emit(
        neon.NVRed("add", f(1), u(1), etype=F32),
    )
    if alpha != 1.0:
        b.emit(sc.FOp("mul", f(1), f(1), alpha))
    b.emit(
        sc.Load(f(2), xio, 0, etype=F32),
        sc.FOp("add", f(1), f(1), f(2)),
        sc.Store(f(1), xio, 0, etype=F32),
        sc.IntOp("add", xio, xio, 4),
        sc.IntOp("add", xrow, xrow, 4 * cols),
        sc.IntOp("add", xi, xi, 1),
        sc.BranchCmp("lt", xi, rows, f"{tag}_i"),
    )


class MvtKernel(Kernel):
    name = "mvt"
    letter = "F"
    domain = "algebra"
    n_streams = 8
    max_nesting = 2
    n_kernels = 2
    pattern = "2D"

    default_n = 64

    def workload(self, seed: int = 0, scale: float = 1.0) -> Workload:
        n = scaled(self.default_n, scale, minimum=16, multiple=16)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)).astype(np.float32)
        x1 = rng.standard_normal(n).astype(np.float32)
        x2 = rng.standard_normal(n).astype(np.float32)
        y1 = rng.standard_normal(n).astype(np.float32)
        y2 = rng.standard_normal(n).astype(np.float32)
        wl = Workload(memory=self.fresh_memory(), params={"n": n})
        for name, arr in (("a", a), ("x1", x1), ("x2", x2), ("y1", y1), ("y2", y2)):
            wl.place(name, arr)
        a64 = a.astype(np.float64)
        wl.expected["x1"] = (x1 + a64 @ y1.astype(np.float64)).astype(np.float32)
        wl.expected["x2"] = (x2 + a64.T @ y2.astype(np.float64)).astype(np.float32)
        return wl

    def build_uve(self, wl: Workload, lanes: int) -> Program:
        n = wl.params["n"]
        b = ProgramBuilder("mvt-uve")
        emit_uve_dots(b, "p1", wl.addr("a"), wl.addr("y1"), wl.addr("x1"),
                      rows=n, cols=n, row_stride=n, col_stride=1)
        emit_uve_col_accum(b, "p2", wl.addr("a"), wl.addr("y2"),
                           wl.addr("x2"), rows=n, cols=n, lanes=lanes)
        b.emit(sc.Halt())
        return b.build()

    def build_vector(self, wl: Workload, isa: str) -> Program:
        n = wl.params["n"]
        b = ProgramBuilder(f"mvt-{isa}")
        if isa == "sve":
            emit_sve_row_dots(b, "p1", wl.addr("a"), wl.addr("y1"), wl.addr("x1"), n, n)
            emit_sve_col_accum(b, "p2", wl.addr("a"), wl.addr("y2"), wl.addr("x2"), n, n)
        else:
            emit_neon_row_dots(b, "p1", wl.addr("a"), wl.addr("y1"), wl.addr("x1"), n, n)
            emit_neon_col_accum(b, "p2", wl.addr("a"), wl.addr("y2"), wl.addr("x2"), n, n)
        b.emit(sc.Halt())
        return b.build()


def emit_uve_col_accum(b, tag, mat, vec, acc_io, rows, cols, lanes, alpha=1.0):
    """``acc_io[tile] += alpha * sum_j mat[j][tile] * vec[j]`` — the
    outer-vectorized (column-accumulate) form of a transposed product:
    A stays row-major (contiguous dimension-0 streams), the transposed
    operand is consumed through the scalar-stream interface.  ``cols``
    must be a multiple of ``lanes``."""
    tiles = cols // lanes
    b.emit(
        # A tiles, swept j-fast then per tile.
        uve.SsSta(u(0), Direction.LOAD, mat // 4, lanes, 1, etype=F32),
        uve.SsApp(u(0), 0, rows, cols),
        uve.SsApp(u(0), 0, tiles, lanes, last=True),
        # vec, one element per j, re-read for every tile.
        uve.SsSta(u(1), Direction.LOAD, vec // 4, rows, 1, etype=F32),
        uve.SsApp(u(1), 0, tiles, 0, last=True),
        # acc_io in tile-sized chunks.
        uve.SsConfig1D(u(2), Direction.LOAD, acc_io // 4, cols, 1, etype=F32),
        uve.SsConfig1D(u(3), Direction.STORE, acc_io // 4, cols, 1, etype=F32),
    )
    b.label(f"{tag}_tile")
    b.emit(uve.SoDup(u(5), 0.0, etype=F32))
    b.label(f"{tag}_j")
    b.emit(
        uve.SoScalarRead(f(1), u(1), etype=F32),
        uve.SoMacScalar(u(5), u(0), f(1), etype=F32),
        uve.SoBranchDim(u(0), 1, f"{tag}_j", complete=False),
    )
    if alpha != 1.0:
        b.emit(uve.SoOpScalar("mul", u(5), u(5), alpha, etype=F32))
    b.emit(
        uve.SoOp("add", u(3), u(5), u(2), etype=F32),
        uve.SoBranchEnd(u(0), f"{tag}_tile", negate=True),
    )


def emit_sve_col_accum(b, tag, mat, vec, acc_io, rows, cols, alpha=1.0):
    """SVE outer-vectorized transposed product (contiguous loads)."""
    xmat, xvec, xio = x(8), x(9), x(10)
    xrows, xj, xm, xi0, xrowp = x(11), x(12), x(13), x(14), x(15)
    b.emit(
        sc.Li(xm, cols), sc.Li(xrows, rows),
        sc.Li(xio, acc_io), sc.Li(xi0, 0),
        sve.WhileLt(p(1), xi0, xm, etype=F32),
        sc.FLi(f(2), alpha), sve.Dup(u(6), f(2), etype=F32),
    )
    b.label(f"{tag}_tile")
    b.emit(
        sve.Dup(u(1), 0.0, etype=F32),
        sc.Li(xmat, mat), sc.Li(xvec, vec), sc.Li(xj, 0),
    )
    b.label(f"{tag}_j")
    b.emit(
        sve.Ld1R(u(2), p(1), xvec, etype=F32),
        sc.IntOp("add", xvec, xvec, 4),
        sve.Ld1(u(3), p(1), xmat, index=xi0, etype=F32),
        sc.IntOp("add", xmat, xmat, 4 * cols),
        sve.Fmla(u(1), p(1), u(2), u(3), etype=F32),
        sc.IntOp("add", xj, xj, 1),
        sc.BranchCmp("lt", xj, xrows, f"{tag}_j"),
    )
    b.emit(
        sve.Ld1(u(4), p(1), xio, index=xi0, etype=F32),
        sve.Fmla(u(4), p(1), u(1), u(6), etype=F32),
        sve.St1(u(4), p(1), xio, index=xi0, etype=F32),
        sve.IncElems(xi0, etype=F32),
        sve.WhileLt(p(1), xi0, xm, etype=F32),
        sve.BranchPred("first", p(1), f"{tag}_tile", etype=F32),
    )


def emit_neon_col_accum(b, tag, mat, vec, acc_io, rows, cols, alpha=1.0):
    """NEON outer-vectorized transposed product (cols % 4 == 0)."""
    xmat, xvec, xio = x(8), x(9), x(10)
    xj, xi0, xaddr = x(12), x(14), x(16)
    b.emit(
        sc.Li(xio, acc_io), sc.Li(xi0, 0),
        sc.FLi(f(2), alpha), neon.NVDup(u(6), f(2), etype=F32),
    )
    b.label(f"{tag}_tile")
    b.emit(
        neon.NVDup(u(1), 0.0, etype=F32),
        sc.IntOp("sll", xaddr, xi0, 2),
        sc.IntOp("add", xmat, xaddr, mat),
        sc.Li(xvec, vec), sc.Li(xj, 0),
    )
    b.label(f"{tag}_j")
    b.emit(
        sc.Load(f(1), xvec, 0, etype=F32),
        neon.NVDup(u(2), f(1), etype=F32),
        sc.IntOp("add", xvec, xvec, 4),
        neon.NVLoad(u(3), xmat, etype=F32),
        sc.IntOp("add", xmat, xmat, 4 * cols),
        neon.NVFma(u(1), u(2), u(3), etype=F32),
        sc.IntOp("add", xj, xj, 1),
        sc.BranchCmp("lt", xj, rows, f"{tag}_j"),
    )
    b.emit(
        sc.IntOp("sll", xaddr, xi0, 2),
        sc.IntOp("add", xaddr, xaddr, acc_io),
        neon.NVLoad(u(4), xaddr, etype=F32),
        neon.NVOp("mul", u(1), u(1), u(6), etype=F32),
        neon.NVOp("add", u(4), u(4), u(1), etype=F32),
        neon.NVStore(u(4), xaddr, etype=F32),
        sc.IntOp("add", xi0, xi0, 4),
        sc.BranchCmp("lt", xi0, cols, f"{tag}_tile"),
    )
