"""NEON backend: the fixed 128-bit baseline.

Two code shapes:

* **general** — the fuzzer's explicit loop nest with an unrolled
  full-vector main loop plus a scalar tail; falls back to the shared
  scalar body when the nest is not NEON-vectorisable (non-unit or
  dynamic innermost stride, predication).
* **streamlined** — the main-loop/tail idiom for unit-stride 1-D
  nests, which the memcpy, stream, saxpy and dot kernels lower to;
  ``tests/kernels/listing_golden.json`` pins their programs.
"""
from __future__ import annotations

from typing import Optional

from repro.ir.nodes import FMA_OP, Nest
from repro.isa.neon_ops import (
    NVDup,
    NVFma,
    NVLoad,
    NVOp,
    NVRed,
    NVStore,
    NVUnary,
    neon_lanes,
)
from repro.isa.program import ProgramBuilder
from repro.isa.registers import Reg, f, u, x
from repro.isa.scalar_ops import (
    BranchCmp,
    FLi,
    FMac,
    FOp,
    FUnary,
    IntOp,
    Jump,
    Li,
    Load,
    Store,
)
from repro.lower.common import (
    ACC_F,
    A_F,
    A_X,
    B_F,
    B_X,
    J_X,
    NestEmitter,
    Operand,
    PART_F,
    PART_X,
    ROW,
    RUN_F,
    RUN_X,
    SIZE_X,
    emit_acc_init,
    emit_acc_step,
    emit_acc_store,
    emit_scalar_chain,
    flat_base,
    imm_value,
    streamlined,
)
from repro.lower.scalar import scalar_body


# ---------------------------------------------------------------------------
# General path (explicit nest, main loop + scalar tail)
# ---------------------------------------------------------------------------


def _neon_vectorizable(emitter: NestEmitter) -> bool:
    """Fixed-width NEON only handles unit, never-modified innermost
    strides and has no predication; everything else runs scalar."""
    if emitter.nest.pred_cond is not None:
        return False
    for acc in emitter.row_arrays():
        if acc.strides[0] != 1:
            return False
        if ("stride", acc.name, 0) in emitter.dyn:
            return False
    return True


def _neon_chain(emitter: NestEmitter, va: Reg, vb: Reg) -> Reg:
    b, nest, etype = emitter.b, emitter.nest, emitter.etype
    run = va
    for i, step in enumerate(nest.ops):
        if step.op == FMA_OP:
            # Decomposed: the fused form would clobber the b input that a
            # later chain step may still reference (u(16+i) holds the coeff).
            b.emit(NVOp("mul", u(3), run, u(16 + i), etype))
            b.emit(NVOp("add", u(3), u(3), vb, etype))
        elif step.rhs is None:
            b.emit(NVUnary(step.op, u(3), run, etype))
        else:
            rhs = vb if step.rhs == "b" else u(16 + i)
            b.emit(NVOp(step.op, u(3), run, rhs, etype))
        run = u(3)
    return run


def _neon_body(emitter: NestEmitter) -> None:
    b, nest, etype = emitter.b, emitter.nest, emitter.etype
    is_f = nest.is_float
    has_b = nest.has_b
    lanes = neon_lanes(etype)
    part = PART_F if is_f else PART_X
    size_op = emitter.size_operand(0)
    if isinstance(size_op, Reg):
        b.emit(IntOp("and", SIZE_X, size_op, -lanes))
        main_op: Operand = SIZE_X
    else:
        main_op = size_op - size_op % lanes
    a_reg = A_F if is_f else A_X
    b_reg = B_F if is_f else B_X
    run_reg = RUN_F if is_f else RUN_X
    vtop, vend = emitter.label("n_top"), emitter.label("n_end")
    b.emit(Li(J_X, 0))
    b.label(vtop)
    b.emit(BranchCmp("ge", J_X, main_op, vend))
    b.emit(NVLoad(u(1), ROW["a"], 0, etype, post_inc=True))
    if has_b:
        b.emit(NVLoad(u(2), ROW["b"], 0, etype, post_inc=True))
    if nest.reduce is not None and nest.use_mac:
        b.emit(NVFma(u(4), u(1), u(2), etype))
    elif nest.reduce is not None:
        res = _neon_chain(emitter, u(1), u(2))
        b.emit(NVRed(nest.reduce, part, res, etype))
        emit_acc_step(b, nest, part)
    else:
        res = _neon_chain(emitter, u(1), u(2))
        b.emit(NVStore(res, ROW["c"], 0, etype, post_inc=True))
    b.emit(IntOp("add", J_X, J_X, lanes))
    b.emit(Jump(vtop))
    b.label(vend)
    # Scalar tail: the row cursors were already advanced by post_inc.
    ttop, tend = emitter.label("t_top"), emitter.label("t_end")
    b.label(ttop)
    b.emit(BranchCmp("ge", J_X, size_op, tend))
    b.emit(Load(a_reg, ROW["a"], 0, etype))
    if has_b:
        b.emit(Load(b_reg, ROW["b"], 0, etype))
    if nest.reduce is not None and nest.use_mac:
        b.emit(FMac(ACC_F, a_reg, b_reg))
    elif nest.reduce is not None:
        res = emit_scalar_chain(b, nest, a_reg, b_reg, run_reg)
        emit_acc_step(b, nest, res)
    else:
        res = emit_scalar_chain(b, nest, a_reg, b_reg, run_reg)
        b.emit(Store(res, ROW["c"], 0, etype))
    for acc in emitter.row_arrays():
        b.emit(IntOp("add", ROW[acc.name], ROW[acc.name], emitter.width))
    b.emit(IntOp("add", J_X, J_X, 1))
    b.emit(Jump(ttop))
    b.label(tend)


def _emit_general(b: ProgramBuilder, nest: Nest, prefix: str) -> None:
    emitter = NestEmitter(nest, b, prefix)
    etype = nest.etype
    emit_acc_init(b, nest)
    if not _neon_vectorizable(emitter):
        emitter.emit(scalar_body)
        if nest.reduce is not None:
            emit_acc_store(b, nest)
        return
    for i, step in enumerate(nest.ops):
        if step.rhs == "imm" or step.op == FMA_OP:
            b.emit(NVDup(u(16 + i), imm_value(nest, step.imm), etype))
    if nest.use_mac:
        b.emit(NVDup(u(4), imm_value(nest, 0), etype))
    emitter.emit(_neon_body)
    if nest.use_mac:
        b.emit(NVRed("add", PART_F, u(4), etype))
        b.emit(FOp("add", ACC_F, ACC_F, PART_F))
    if nest.reduce is not None:
        emit_acc_store(b, nest)


# ---------------------------------------------------------------------------
# Streamlined path (hand-kernel main loop + scalar tail)
# ---------------------------------------------------------------------------


def _streamlined_chain(
    b: ProgramBuilder, nest: Nest, run: Reg, vb, out_reg: Reg, fma_dup
) -> Reg:
    etype = nest.etype
    for i, step in enumerate(nest.ops):
        if step.op == FMA_OP:
            b.emit(NVFma(vb, run, fma_dup[i], etype))
            run = vb
        elif step.rhs is None:
            b.emit(NVUnary(step.op, out_reg, run, etype))
            run = out_reg
        else:
            rhs = vb if step.rhs == "b" else u(16 + i)
            b.emit(NVOp(step.op, out_reg, run, rhs, etype))
            run = out_reg
    return run


def _tail_chain(
    b: ProgramBuilder, nest: Nest, in_fregs, out_freg: Reg, fma_freg
) -> Reg:
    run = in_fregs[0]
    bf = in_fregs[1] if len(in_fregs) == 2 else None
    for i, step in enumerate(nest.ops):
        if step.op == FMA_OP:
            b.emit(FMac(bf, run, fma_freg[i]))
            run = bf
        elif step.rhs is None:
            b.emit(FUnary(step.op, out_freg, run))
            run = out_freg
        else:
            rhs = bf if step.rhs == "b" else imm_value(nest, step.imm)
            b.emit(FOp(step.op, out_freg, run, rhs))
            run = out_freg
    return run


def _emit_streamlined(b: ProgramBuilder, nest: Nest, prefix: str) -> None:
    etype = nest.etype
    lanes = neon_lanes(etype)
    width = etype.width
    n = nest.sizes[0]
    k = len(nest.inputs)
    reducing = nest.reduce is not None
    main, idx = x(3), x(4)
    bases = [x(8 + i) for i in range(k)]
    b.emit(Li(main, n - n % lanes))
    for base, acc in zip(bases, nest.inputs):
        b.emit(Li(base, flat_base(acc) * width))
    if not reducing:
        out_base = x(8 + k)
        b.emit(Li(out_base, flat_base(nest.output) * width))
    b.emit(Li(idx, 0))
    emit_acc_init(b, nest)
    fma_dup = {}
    fma_freg = {}
    const_i = 0
    for i, step in enumerate(nest.ops):
        if step.op == FMA_OP:
            b.emit(FLi(f(const_i), imm_value(nest, step.imm)))
            b.emit(NVDup(u(0), f(const_i), etype=etype))
            fma_dup[i] = u(0)
            fma_freg[i] = f(const_i)
            const_i += 1
        elif step.rhs == "imm":
            b.emit(NVDup(u(16 + i), imm_value(nest, step.imm), etype))
    if nest.use_mac:
        b.emit(NVDup(u(4), imm_value(nest, 0), etype))
    in_regs = [u(1 + i) for i in range(k)]
    out_reg = u(1 + k)
    vb = in_regs[1] if k == 2 else None
    part = PART_F if nest.is_float else PART_X
    loop, tail = f"{prefix}loop", f"{prefix}tail"
    tail_loop, done = f"{prefix}tail_loop", f"{prefix}done"
    b.emit(BranchCmp("ge", idx, main, tail))
    b.label(loop)
    for reg, base in zip(in_regs, bases):
        b.emit(NVLoad(reg, base, etype=etype, post_inc=True))
    if reducing and nest.use_mac:
        b.emit(NVFma(u(4), in_regs[0], vb, etype))
    elif reducing:
        res = _streamlined_chain(b, nest, in_regs[0], vb, out_reg, fma_dup)
        b.emit(NVRed(nest.reduce, part, res, etype))
        emit_acc_step(b, nest, part)
    else:
        store_reg = _streamlined_chain(
            b, nest, in_regs[0], vb, out_reg, fma_dup
        )
        b.emit(NVStore(store_reg, out_base, etype=etype, post_inc=True))
    b.emit(
        IntOp("add", idx, idx, lanes),
        BranchCmp("lt", idx, main, loop),
    )
    b.label(tail)
    b.emit(Li(x(5), n), BranchCmp("ge", idx, x(5), done))
    if reducing:
        # The hand-kernel tail registers f(1+i) would collide with the
        # ACC_F/PART_F accumulators, so a reduction tail uses A_F/B_F.
        in_fregs = [A_F, B_F][:k]
        out_freg = RUN_F
    else:
        in_fregs = [f(1 + i) for i in range(k)]
        out_freg = f(1 + k)
    b.label(tail_loop)
    for freg, base in zip(in_fregs, bases):
        b.emit(Load(freg, base, 0, etype))
    if reducing and nest.use_mac:
        b.emit(FMac(ACC_F, in_fregs[0], in_fregs[1]))
    elif reducing:
        res = _tail_chain(b, nest, in_fregs, out_freg, fma_freg)
        emit_acc_step(b, nest, res)
    else:
        store_freg = _tail_chain(b, nest, in_fregs, out_freg, fma_freg)
        b.emit(Store(store_freg, out_base, 0, etype))
    targets = bases if reducing else bases + [out_base]
    for base in targets:
        b.emit(IntOp("add", base, base, width))
    b.emit(
        IntOp("add", idx, idx, 1),
        BranchCmp("lt", idx, x(5), tail_loop),
    )
    b.label(done)
    if nest.use_mac:
        b.emit(NVRed("add", PART_F, u(4), etype))
        b.emit(FOp("add", ACC_F, ACC_F, PART_F))
    if reducing:
        emit_acc_store(b, nest)


def emit(
    b: ProgramBuilder,
    nest: Nest,
    prefix: str = "",
    inject: Optional[str] = None,
) -> None:
    """Append the NEON lowering of ``nest`` to ``b`` (no Halt)."""
    if streamlined(nest):
        _emit_streamlined(b, nest, prefix)
    else:
        _emit_general(b, nest, prefix)
