"""UVE backend: descriptor-configured streams (``ss.*``) with
stream-aware compute (``so.*``).

Modifiers and indirection are expressed in the descriptors, so the body
is a flat loop regardless of the nest depth — the defining property the
differential fuzz oracle exercises against the explicit-loop backends.

Two code shapes:

* **general** — the fuzzer's descriptor chains (``SsSta``/``SsApp*``)
  with the compute body keyed off the nest's reduction/predication/
  scalar-engine flags.  This is the only path that honours ``inject``
  (the deliberate UVE-only semantic distortions of
  :data:`repro.lower.INJECTIONS`), so an injection forces it.
* **streamlined** — the Fig. 1.D shape for unit-stride 1-D nests,
  which the memcpy, stream, saxpy and dot kernels lower to;
  ``tests/kernels/listing_golden.json`` pins their programs.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.types import ElementType
from repro.ir.nodes import Access, FMA_OP, Nest
from repro.isa.program import ProgramBuilder
from repro.isa.registers import Reg, f, p, u
from repro.isa.scalar_ops import FLi
from repro.isa.uve_ops import (
    SoBranchEnd,
    SoDup,
    SoMac,
    SoMove,
    SoOp,
    SoOpScalar,
    SoPredComp,
    SoRedScalar,
    SoScalarRead,
    SoScalarWrite,
    SoUnary,
    SsApp,
    SsAppInd,
    SsAppMod,
    SsConfig1D,
    SsSta,
)
from repro.lower.common import (
    ACC_F,
    ACC_X,
    A_F,
    A_X,
    B_F,
    B_X,
    PART_F,
    PART_X,
    RUN_F,
    RUN_X,
    emit_acc_init,
    emit_acc_step,
    emit_scalar_chain,
    flat_base,
    imm_value,
    streamlined,
)
from repro.streams.descriptor import IndirectBehavior, Param, StaticBehavior
from repro.streams.pattern import Direction

_PARAM = {"offset": Param.OFFSET, "size": Param.SIZE, "stride": Param.STRIDE}
_BEHAVIOR = {"add": StaticBehavior.ADD, "sub": StaticBehavior.SUB}


# ---------------------------------------------------------------------------
# General path (descriptor chains + flat compute loop)
# ---------------------------------------------------------------------------


def _uve_configure(
    b: ProgramBuilder,
    nest: Nest,
    acc: Access,
    reg: Reg,
    direction: Direction,
    inject: Optional[str],
) -> None:
    etype = nest.etype
    base0 = flat_base(acc)
    size0 = nest.sizes[0]
    if inject == "uve-dim0-size-off-by-one" and acc.name == "a" and size0 > 1:
        size0 -= 1

    if nest.indirect is not None and nest.indirect.array == acc.name:
        # Origin stream of row indices, then the indirect level on top
        # of the innermost descriptor (builders.indirect() shape).
        b.emit(
            SsConfig1D(
                u(3),
                Direction.LOAD,
                nest.indirect.idx_addr // 4,
                nest.sizes[1],
                1,
                etype=ElementType.I32,
            )
        )
        b.emit(SsSta(reg, direction, base0, size0, acc.strides[0], etype=etype))
        behavior = (
            IndirectBehavior.SET_VALUE
            if inject == "uve-ind-set-value"
            else IndirectBehavior.SET_ADD
        )
        b.emit(SsAppInd(reg, Param.OFFSET, behavior, u(3), last=True))
        return

    parts: List[Tuple[str, object]] = []
    for level in range(1, nest.ndims):
        parts.append(
            ("app", (acc.offsets[level], nest.sizes[level], acc.strides[level]))
        )
        for mod in nest.mods_for(acc, level):
            parts.append(("mod", mod))
    if not parts:
        b.emit(
            SsConfig1D(reg, direction, base0, size0, acc.strides[0], etype=etype)
        )
        return
    b.emit(SsSta(reg, direction, base0, size0, acc.strides[0], etype=etype))
    for i, (kind, payload) in enumerate(parts):
        last = i == len(parts) - 1
        if kind == "app":
            off, size, stride = payload
            b.emit(SsApp(reg, off, size, stride, last=last))
        else:
            mod = payload
            count = mod.count + (1 if inject == "uve-mod-extra-count" else 0)
            b.emit(
                SsAppMod(
                    reg,
                    _PARAM[mod.target],
                    _BEHAVIOR[mod.behavior],
                    mod.displacement,
                    count,
                    last=last,
                )
            )


def _uve_chain(
    b: ProgramBuilder, nest: Nest, operand_b: Optional[Reg], final: Optional[Reg]
) -> Reg:
    """The op chain on stream-aware vector ops.  ``final`` routes the
    last step straight into an output stream register (or None to keep
    the result in the u10 temporary)."""
    etype = nest.etype
    run = u(0)
    if not nest.ops:
        if final is not None:
            b.emit(SoMove(final, run, etype))
            return final
        return run
    for i, step in enumerate(nest.ops):
        dest = final if (final is not None and i == len(nest.ops) - 1) else u(10)
        if step.op == FMA_OP:
            b.emit(SoOpScalar("mul", u(10), run, imm_value(nest, step.imm), etype))
            b.emit(SoOp("add", dest, u(10), operand_b, etype))
        elif step.rhs is None:
            b.emit(SoUnary(step.op, dest, run, etype))
        elif step.rhs == "b":
            b.emit(SoOp(step.op, dest, run, operand_b, etype))
        else:
            b.emit(SoOpScalar(step.op, dest, run, imm_value(nest, step.imm), etype))
        run = dest
    return run


def _uve_prepare_b(b: ProgramBuilder, nest: Nest) -> Optional[Reg]:
    """Stream b is consumed exactly once per loop iteration: directly
    when the chain references it once, via a u9 staging move when it is
    referenced several times (or not at all, to keep chunks aligned)."""
    if not nest.has_b:
        return None
    uses = sum(1 for step in nest.ops if step.rhs == "b")
    if uses == 1:
        return u(1)
    b.emit(SoMove(u(9), u(1), nest.etype))
    return u(9)


def _emit_general(
    b: ProgramBuilder, nest: Nest, prefix: str, inject: Optional[str]
) -> None:
    etype = nest.etype
    is_f = nest.is_float
    part = PART_F if is_f else PART_X
    acc = ACC_F if is_f else ACC_X

    _uve_configure(b, nest, nest.array("a"), u(0), Direction.LOAD, inject)
    if nest.has_b:
        _uve_configure(b, nest, nest.array("b"), u(1), Direction.LOAD, inject)
    if nest.reduce is not None:
        b.emit(
            SsConfig1D(
                u(2), Direction.STORE, flat_base(nest.output), 1, 1, etype=etype
            )
        )
    else:
        _uve_configure(b, nest, nest.output, u(2), Direction.STORE, inject)

    emit_acc_init(b, nest)
    if nest.use_mac:
        b.emit(SoDup(u(8), 0, etype))

    loop = f"{prefix}loop"
    b.label(loop)
    if nest.scalar_engine:
        a_reg = A_F if is_f else A_X
        b_reg = B_F if is_f else B_X
        run_reg = RUN_F if is_f else RUN_X
        b.emit(SoScalarRead(a_reg, u(0), etype))
        if nest.has_b:
            b.emit(SoScalarRead(b_reg, u(1), etype))
        res = emit_scalar_chain(b, nest, a_reg, b_reg, run_reg)
        b.emit(SoScalarWrite(u(2), res, etype))
    elif nest.pred_cond is not None:
        b.emit(SoMove(u(8), u(0), etype))
        b.emit(SoMove(u(9), u(1), etype))
        b.emit(SoPredComp(nest.pred_cond, p(1), u(8), u(9), etype))
        b.emit(SoRedScalar("add", part, u(8), etype, pred=p(1)))
        emit_acc_step(b, nest, part)
    elif nest.reduce is not None:
        if nest.use_mac:
            b.emit(SoMac(u(8), u(0), u(1), etype))
        else:
            operand_b = _uve_prepare_b(b, nest)
            res = _uve_chain(b, nest, operand_b, final=None)
            b.emit(SoRedScalar(nest.reduce, part, res, etype))
            emit_acc_step(b, nest, part)
    else:
        operand_b = _uve_prepare_b(b, nest)
        _uve_chain(b, nest, operand_b, final=u(2))
    b.emit(SoBranchEnd(u(0), loop))

    if nest.reduce is not None:
        if nest.use_mac:
            b.emit(SoRedScalar("add", acc, u(8), etype))
        b.emit(SoScalarWrite(u(2), acc, etype))


# ---------------------------------------------------------------------------
# Streamlined path (Fig. 1.D: one stream per array, no-overhead loop)
# ---------------------------------------------------------------------------


def _emit_streamlined(b: ProgramBuilder, nest: Nest, prefix: str) -> None:
    etype = nest.etype
    n = nest.sizes[0]
    k = len(nest.inputs)
    reducing = nest.reduce is not None
    is_f = nest.is_float
    part = PART_F if is_f else PART_X
    acc = ACC_F if is_f else ACC_X
    in_regs = [u(i) for i in range(k)]
    out_reg = u(k)
    for reg, access in zip(in_regs, nest.inputs):
        b.emit(
            SsConfig1D(
                reg, Direction.LOAD, flat_base(access), n, 1, etype=etype,
                mem_level=nest.mem_level,
            )
        )
    if reducing:
        b.emit(
            SsConfig1D(
                out_reg, Direction.STORE, flat_base(nest.output), 1, 1,
                etype=etype,
            )
        )
    else:
        b.emit(
            SsConfig1D(
                out_reg, Direction.STORE, flat_base(nest.output), n, 1,
                etype=etype, mem_level=nest.mem_level,
            )
        )
    emit_acc_init(b, nest)
    fma_dup = {}
    const_i = 0
    for i, step in enumerate(nest.ops):
        if step.op == FMA_OP:
            b.emit(
                FLi(f(const_i), imm_value(nest, step.imm)),
                SoDup(u(k + 1), f(const_i), etype=etype),
            )
            fma_dup[i] = u(k + 1)
            const_i += 1
    if nest.use_mac:
        b.emit(SoDup(u(8), 0, etype))
    vb = in_regs[1] if k == 2 else None
    loop = f"{prefix}loop"
    b.label(loop)
    if reducing and nest.use_mac:
        b.emit(SoMac(u(8), in_regs[0], vb, etype))
    elif reducing:
        operand_b = _uve_prepare_b(b, nest)
        res = _streamlined_chain(b, nest, operand_b, None, fma_dup, k)
        b.emit(SoRedScalar(nest.reduce, part, res, etype))
        emit_acc_step(b, nest, part)
    else:
        operand_b = _uve_prepare_b(b, nest)
        _streamlined_chain(b, nest, operand_b, out_reg, fma_dup, k)
    b.emit(SoBranchEnd(in_regs[0], loop, negate=True))
    if reducing:
        if nest.use_mac:
            b.emit(SoRedScalar("add", acc, u(8), etype))
        b.emit(SoScalarWrite(out_reg, acc, etype))


def _streamlined_chain(
    b: ProgramBuilder,
    nest: Nest,
    operand_b: Optional[Reg],
    final: Optional[Reg],
    fma_dup,
    k: int,
) -> Reg:
    etype = nest.etype
    temp = u(k + 2)
    run = u(0)
    if not nest.ops:
        if final is not None:
            b.emit(SoMove(final, run, etype))
            return final
        return run
    for i, step in enumerate(nest.ops):
        dest = final if (final is not None and i == len(nest.ops) - 1) else temp
        if step.op == FMA_OP:
            b.emit(SoOp("mul", temp, fma_dup[i], run, etype))
            b.emit(SoOp("add", dest, temp, operand_b, etype))
        elif step.rhs is None:
            b.emit(SoUnary(step.op, dest, run, etype))
        elif step.rhs == "b":
            b.emit(SoOp(step.op, dest, run, operand_b, etype))
        else:
            b.emit(SoOpScalar(step.op, dest, run, imm_value(nest, step.imm), etype))
        run = dest
    return run


def emit(
    b: ProgramBuilder,
    nest: Nest,
    prefix: str = "",
    inject: Optional[str] = None,
) -> None:
    """Append the UVE lowering of ``nest`` to ``b`` (no Halt)."""
    if inject is None and streamlined(nest):
        _emit_streamlined(b, nest, prefix)
    else:
        _emit_general(b, nest, prefix, inject)
