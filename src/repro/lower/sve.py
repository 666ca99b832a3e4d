"""SVE backend: the vector-length-agnostic baseline.

Two code shapes:

* **general** — the fuzzer's explicit loop nest with a
  ``whilelt``-predicated inner loop and gathers for non-unit strides,
  driven by :class:`~repro.lower.common.NestEmitter`.
* **streamlined** — the do-while idiom of Fig. 1.B for unit-stride
  1-D nests, which the memcpy, stream, saxpy and dot kernels lower to;
  ``tests/kernels/listing_golden.json`` pins their programs.
"""
from __future__ import annotations

from typing import Optional

from repro.ir.nodes import Access, FMA_OP, Nest
from repro.isa.program import ProgramBuilder
from repro.isa.registers import Reg, f, p, u, x
from repro.isa.scalar_ops import FLi, IntOp, Jump, Li
from repro.isa.sve_ops import (
    BranchPred,
    CmpPred,
    Dup,
    Fmla,
    INDEX_TYPES,
    IncElems,
    Index,
    Ld1,
    Ld1Gather,
    PTrue,
    Red,
    St1,
    St1Scatter,
    VOp,
    VUnary,
    WhileLt,
)
from repro.lower.common import (
    ACC_F,
    BranchCmp,
    J_X,
    NestEmitter,
    PART_F,
    PART_X,
    ROW,
    SIZE_X,
    T5,
    emit_acc_init,
    emit_acc_step,
    emit_acc_store,
    flat_base,
    imm_value,
    streamlined,
)


# ---------------------------------------------------------------------------
# General path (explicit nest, whilelt inner loop)
# ---------------------------------------------------------------------------


def _sve_access(
    emitter: NestEmitter, acc: Access, vreg: Reg, store: bool
) -> None:
    """Load/store one vector of ``acc``'s row under predicate p1.

    Unit, static innermost stride uses contiguous ld1/st1 indexed by the
    element counter; anything else goes through an index vector and
    gather/scatter.
    """
    b, etype = emitter.b, emitter.etype
    row = ROW[acc.name]
    s_op = emitter.stride_operand(acc, 0)
    if not isinstance(s_op, Reg) and s_op == 1:
        if store:
            b.emit(St1(vreg, p(1), row, index=J_X, etype=etype))
        else:
            b.emit(Ld1(vreg, p(1), row, index=J_X, etype=etype))
        return
    b.emit(IntOp("mul", T5, J_X, s_op))
    # The index vector holds integers of the data's width (F32 data
    # would round every index above 2**24).
    b.emit(Index(u(5), T5, s_op, INDEX_TYPES[etype.width]))
    if store:
        b.emit(St1Scatter(vreg, p(1), row, u(5), etype))
    else:
        b.emit(Ld1Gather(vreg, p(1), row, u(5), etype))


def _sve_chain(emitter: NestEmitter, va: Reg, vb: Reg) -> Reg:
    b, nest, etype = emitter.b, emitter.nest, emitter.etype
    run = va
    for i, step in enumerate(nest.ops):
        if step.op == FMA_OP:
            # No predicated fused op over a pre-dup'd immediate here:
            # decompose into mul-imm + add-b (u(16+i) holds the coeff).
            b.emit(VOp("mul", u(3), p(1), run, u(16 + i), etype))
            b.emit(VOp("add", u(3), p(1), u(3), vb, etype))
        elif step.rhs is None:
            b.emit(VUnary(step.op, u(3), p(1), run, etype))
        else:
            rhs = vb if step.rhs == "b" else u(16 + i)
            b.emit(VOp(step.op, u(3), p(1), run, rhs, etype))
        run = u(3)
    return run


def _sve_body(emitter: NestEmitter) -> None:
    b, nest, etype = emitter.b, emitter.nest, emitter.etype
    is_f = nest.is_float
    has_b = nest.has_b
    size_op = emitter.size_operand(0)
    if isinstance(size_op, Reg):
        size_reg = size_op
    else:
        b.emit(Li(SIZE_X, size_op))
        size_reg = SIZE_X
    part = PART_F if is_f else PART_X
    top, end = emitter.label("v_top"), emitter.label("v_end")
    b.emit(Li(J_X, 0))
    b.label(top)
    b.emit(BranchCmp("ge", J_X, size_reg, end))
    b.emit(WhileLt(p(1), J_X, size_reg, etype))
    _sve_access(emitter, nest.array("a"), u(1), store=False)
    if has_b:
        _sve_access(emitter, nest.array("b"), u(2), store=False)
    if nest.pred_cond is not None:
        b.emit(CmpPred(nest.pred_cond, p(2), p(1), u(1), u(2), etype))
        b.emit(Red("add", part, p(2), u(1), etype))
        emit_acc_step(b, nest, part)
    elif nest.reduce is not None and nest.use_mac:
        b.emit(Fmla(u(4), p(1), u(1), u(2), etype))
    elif nest.reduce is not None:
        res = _sve_chain(emitter, u(1), u(2))
        b.emit(Red(nest.reduce, part, p(1), res, etype))
        emit_acc_step(b, nest, part)
    else:
        res = _sve_chain(emitter, u(1), u(2))
        _sve_access(emitter, nest.output, res, store=True)
    b.emit(IncElems(J_X, etype))
    b.emit(Jump(top))
    b.label(end)


def _emit_general(b: ProgramBuilder, nest: Nest, prefix: str) -> None:
    emitter = NestEmitter(nest, b, prefix)
    etype = nest.etype
    emit_acc_init(b, nest)
    for i, step in enumerate(nest.ops):
        if step.rhs == "imm" or step.op == FMA_OP:
            b.emit(Dup(u(16 + i), imm_value(nest, step.imm), etype))
    if nest.use_mac:
        b.emit(Dup(u(4), imm_value(nest, 0), etype))
    emitter.emit(_sve_body)
    if nest.use_mac:
        b.emit(PTrue(p(2), etype))
        b.emit(Red("add", ACC_F, p(2), u(4), etype))
    if nest.reduce is not None:
        emit_acc_store(b, nest)


# ---------------------------------------------------------------------------
# Streamlined path (Fig. 1.B do-while, hand-kernel shape)
# ---------------------------------------------------------------------------


def _emit_streamlined(b: ProgramBuilder, nest: Nest, prefix: str) -> None:
    etype = nest.etype
    n = nest.sizes[0]
    k = len(nest.inputs)
    bound, idx = x(3), x(4)
    bases = [x(8 + i) for i in range(k)]
    b.emit(Li(bound, n))
    for base, acc in zip(bases, nest.inputs):
        b.emit(Li(base, flat_base(acc) * etype.width))
    if nest.reduce is None:
        out_base = x(8 + k)
        b.emit(Li(out_base, flat_base(nest.output) * etype.width))
    b.emit(Li(idx, 0))
    b.emit(WhileLt(p(1), idx, bound, etype=etype))
    emit_acc_init(b, nest)
    fma_dup = {}
    const_i = 0
    for i, step in enumerate(nest.ops):
        if step.op == FMA_OP:
            b.emit(FLi(f(const_i), imm_value(nest, step.imm)))
            b.emit(Dup(u(0), f(const_i), etype=etype))
            fma_dup[i] = u(0)
            const_i += 1
        elif step.rhs == "imm":
            b.emit(Dup(u(16 + i), imm_value(nest, step.imm), etype))
    if nest.use_mac:
        b.emit(Dup(u(4), imm_value(nest, 0), etype))
    in_regs = [u(1 + i) for i in range(k)]
    out_reg = u(1 + k)
    vb = in_regs[1] if k == 2 else None
    part = PART_F if nest.is_float else PART_X
    loop = f"{prefix}loop"
    b.label(loop)
    for reg, base in zip(in_regs, bases):
        b.emit(Ld1(reg, p(1), base, index=idx, etype=etype))
    if nest.reduce is not None and nest.use_mac:
        b.emit(Fmla(u(4), p(1), in_regs[0], vb, etype))
    elif nest.reduce is not None:
        run = _streamlined_chain(b, nest, in_regs[0], vb, out_reg, fma_dup)
        b.emit(Red(nest.reduce, part, p(1), run, etype))
        emit_acc_step(b, nest, part)
    else:
        store_reg = _streamlined_chain(
            b, nest, in_regs[0], vb, out_reg, fma_dup
        )
        b.emit(St1(store_reg, p(1), out_base, index=idx, etype=etype))
    b.emit(
        IncElems(idx, etype=etype),
        WhileLt(p(1), idx, bound, etype=etype),
        BranchPred("first", p(1), loop, etype=etype),
    )
    if nest.use_mac:
        b.emit(PTrue(p(2), etype))
        b.emit(Red("add", ACC_F, p(2), u(4), etype))
    if nest.reduce is not None:
        emit_acc_store(b, nest)


def _streamlined_chain(
    b: ProgramBuilder, nest: Nest, run: Reg, vb, out_reg: Reg, fma_dup
) -> Reg:
    etype = nest.etype
    for i, step in enumerate(nest.ops):
        if step.op == FMA_OP:
            b.emit(Fmla(vb, p(1), run, fma_dup[i], etype))
            run = vb
        elif step.rhs is None:
            b.emit(VUnary(step.op, out_reg, p(1), run, etype))
            run = out_reg
        else:
            rhs = vb if step.rhs == "b" else u(16 + i)
            b.emit(VOp(step.op, out_reg, p(1), run, rhs, etype))
            run = out_reg
    return run


def emit(
    b: ProgramBuilder,
    nest: Nest,
    prefix: str = "",
    inject: Optional[str] = None,
) -> None:
    """Append the SVE lowering of ``nest`` to ``b`` (no Halt)."""
    if streamlined(nest):
        _emit_streamlined(b, nest, prefix)
    else:
        _emit_general(b, nest, prefix)
