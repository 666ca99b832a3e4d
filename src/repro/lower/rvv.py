"""RVV backend: the strip-mined vector-length-agnostic comparator
(paper Fig. 1.C).

Only the streamlined 1-D shape is implemented — ``vsetvli`` grants each
iteration's vector length, loads/stores are unit-stride, and the scalar
unit bumps every base pointer explicitly; the memcpy, stream, saxpy and
dot kernels lower to it, and ``tests/kernels/listing_golden.json`` pins
their programs.  General nests (modifiers, indirection,
predication, non-unit strides) raise :class:`LoweringError`; the
differential fuzzer deliberately excludes RVV from its oracle set.

Reductions fold per iteration (``vfred`` over the granted ``vl`` then a
scalar accumulate): this model's vector ops rewrite their destination
at the current ``vl``, so an accumulator register cannot survive the
shortened final iteration.
"""
from __future__ import annotations

import math
from typing import Optional

from repro.errors import LoweringError
from repro.ir.nodes import FMA_OP, Nest
from repro.isa.program import ProgramBuilder
from repro.isa.registers import Reg, f, u, x
from repro.isa.rvv_ops import VlLoad, VlStore, VOpVF, VOpVV, VMaccVF, VSetVli
from repro.isa.rvv_ops import VRed
from repro.isa.scalar_ops import BranchCmp, FLi, IntOp, Li
from repro.lower.common import (
    PART_F,
    emit_acc_init,
    emit_acc_step,
    emit_acc_store,
    flat_base,
    imm_value,
    streamlined,
)


def _check_supported(nest: Nest) -> None:
    if not streamlined(nest):
        raise LoweringError(
            f"rvv backend only lowers streamlined unit-stride 1-D nests; "
            f"{nest.name!r} does not qualify"
        )
    if not nest.is_float:
        raise LoweringError(
            f"rvv backend only lowers float nests; {nest.name!r} is "
            f"{nest.etype.name}"
        )
    for step in nest.ops:
        if step.rhs is None:
            raise LoweringError(
                f"rvv backend has no vector unary ops ({nest.name!r} uses "
                f"{step.op!r})"
            )


def _chain(b: ProgramBuilder, nest: Nest, run: Reg, vb, out_reg: Reg, fma_f) -> Reg:
    etype = nest.etype
    for i, step in enumerate(nest.ops):
        if step.op == FMA_OP:
            b.emit(VMaccVF(vb, fma_f[i], run, etype))
            run = vb
        elif step.rhs == "b":
            b.emit(VOpVV(step.op, out_reg, run, vb, etype))
            run = out_reg
        else:
            b.emit(VOpVF(step.op, out_reg, run, fma_f[i], etype))
            run = out_reg
    return run


def emit(
    b: ProgramBuilder,
    nest: Nest,
    prefix: str = "",
    inject: Optional[str] = None,
) -> None:
    """Append the RVV lowering of ``nest`` to ``b`` (no Halt)."""
    _check_supported(nest)
    etype = nest.etype
    width = etype.width
    shift = int(math.log2(width))
    n = nest.sizes[0]
    k = len(nest.inputs)
    reducing = nest.reduce is not None
    remaining, vl, step_r = x(3), x(4), x(5)
    bases = [x(8 + i) for i in range(k)]
    b.emit(Li(remaining, n))
    for base, acc in zip(bases, nest.inputs):
        b.emit(Li(base, flat_base(acc) * width))
    if not reducing:
        out_base = x(8 + k)
        b.emit(Li(out_base, flat_base(nest.output) * width))
    emit_acc_init(b, nest)
    fma_f = {}
    const_i = 0
    for i, step in enumerate(nest.ops):
        if step.op == FMA_OP or step.rhs == "imm":
            b.emit(FLi(f(const_i), imm_value(nest, step.imm)))
            fma_f[i] = f(const_i)
            const_i += 1
    in_regs = [u(1 + i) for i in range(k)]
    out_reg = u(1 + k)
    vb = in_regs[1] if k == 2 else None
    loop = f"{prefix}loop"
    b.label(loop)
    b.emit(VSetVli(vl, remaining, etype=etype))
    for reg, base in zip(in_regs, bases):
        b.emit(VlLoad(reg, base, etype=etype))
    if reducing:
        if nest.use_mac:
            b.emit(VOpVV("mul", out_reg, in_regs[0], vb, etype))
            res = out_reg
        else:
            res = _chain(b, nest, in_regs[0], vb, out_reg, fma_f)
        b.emit(VRed(nest.reduce, PART_F, res, etype))
        emit_acc_step(b, nest, PART_F)
        b.emit(
            IntOp("sub", remaining, remaining, vl),
            IntOp("sll", step_r, vl, shift),
        )
    else:
        store_reg = _chain(b, nest, in_regs[0], vb, out_reg, fma_f)
        b.emit(
            VlStore(store_reg, out_base, etype=etype),
            IntOp("sub", remaining, remaining, vl),
            IntOp("sll", step_r, vl, shift),
        )
    targets = bases if reducing else bases + [out_base]
    for base in targets:
        b.emit(IntOp("add", base, base, step_r))
    b.emit(BranchCmp("ne", remaining, 0, loop))
    if reducing:
        emit_acc_store(b, nest)
