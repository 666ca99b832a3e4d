"""NEON-like baseline ISA: fixed 128-bit SIMD, no predication.

Used for the paper's second baseline (ARM NEON).  Vector width is fixed
at 128 bits regardless of the machine's configured vector length, and
loop tails must be handled by scalar code — exactly the limitation that
vector-length-agnostic extensions (SVE, UVE) remove.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.types import ElementType
from repro.isa import semantics
from repro.isa.instructions import (
    Instruction,
    Operand,
    int_source,
    operand_regs,
    raw_source,
    scalar_dest,
    x_dest,
)
from repro.isa.microop import OpClass
from repro.isa.registers import Reg
from repro.isa.vector import VecValue, all_valid

#: NEON register width in bits.
NEON_BITS = 128


def neon_lanes(etype: ElementType) -> int:
    return NEON_BITS // (etype.width * 8)


def neon_reader(state, etype: ElementType):
    """``read(reg)``: the first :func:`neon_lanes` lanes of vector
    register ``reg`` in ``etype``, equal to
    ``state.read_v(reg, etype).data[:neon_lanes(etype)]``.

    A NEON value is 128 bits wide whatever the machine's vector width, so
    a held value of ``etype`` that covers those lanes is sliced where it
    lies (values are never written in place).  A narrower value, one of
    another dtype, or fewer machine lanes than NEON lanes (a narrow
    machine or a shortened vector length) takes ``read_v``'s zero-pad
    and cast."""
    lanes, dtype = neon_lanes(etype), etype.dtype
    vregs, read_v = state.vregs, state.read_v
    wide = state.vector_bits // (etype.width * 8) >= lanes

    def read(reg: Reg) -> np.ndarray:
        data = vregs[reg.index].data
        if (
            data.dtype is dtype
            and len(data) >= lanes
            and wide
            and (state.vl_elems is None or state.vl_elems >= lanes)
        ):
            return data[:lanes]
        return read_v(reg, etype).data[:lanes]

    return read


@dataclass(frozen=True)
class NVLoad(Instruction):
    """128-bit vector load from ``x[base] + offset`` (byte offset),
    optionally post-incrementing the base register by 16."""

    vd: Reg
    base: Reg
    offset: Operand = 0
    etype: ElementType = ElementType.F32
    post_inc: bool = False
    opclass = OpClass.VEC_LOAD

    def bind(self, state):
        etype, vd, write_v = self.etype, self.vd, state.write_v
        lanes, width = neon_lanes(etype), etype.width
        xregs, base = state.xregs, self.base.index
        src, offset = int_source(state, self.offset)
        read_block, record = state.mem.read_block, state.record_mem_read
        regs, _ = x_dest(state, self.base)
        post_inc, valid = self.post_inc, all_valid(lanes)

        def execute(state) -> Optional[str]:
            start = xregs[base] + src[offset]
            data = read_block(start, lanes, etype)
            record(range(start, start + lanes * width, width))
            write_v(vd, VecValue(data, valid), etype)
            if post_inc:
                regs[base] = xregs[base] + NEON_BITS // 8
            return None

        return execute

    @property
    def dests(self):
        return (self.vd, self.base) if self.post_inc else (self.vd,)

    @property
    def early_dests(self):
        return (self.base,) if self.post_inc else ()

    @property
    def srcs(self):
        return operand_regs(self.base, self.offset)

    def __str__(self):
        post = "!" if self.post_inc else ""
        return f"ldr.q {self.vd}, [{self.base}, {self.offset}]{post}"


@dataclass(frozen=True)
class NVStore(Instruction):
    """128-bit vector store, optional post-increment."""

    vs: Reg
    base: Reg
    offset: Operand = 0
    etype: ElementType = ElementType.F32
    post_inc: bool = False
    opclass = OpClass.VEC_STORE

    def bind(self, state):
        etype, vs, read = self.etype, self.vs, neon_reader(state, self.etype)
        lanes, width = neon_lanes(etype), etype.width
        xregs, base = state.xregs, self.base.index
        src, offset = int_source(state, self.offset)
        write_block, record = state.mem.write_block, state.record_mem_write
        regs, _ = x_dest(state, self.base)
        post_inc = self.post_inc

        def execute(state) -> Optional[str]:
            start = xregs[base] + src[offset]
            write_block(start, read(vs))
            record(range(start, start + lanes * width, width))
            if post_inc:
                regs[base] = xregs[base] + NEON_BITS // 8
            return None

        return execute

    @property
    def dests(self):
        return (self.base,) if self.post_inc else ()

    @property
    def early_dests(self):
        return (self.base,) if self.post_inc else ()

    @property
    def srcs(self):
        return operand_regs(self.vs, self.base, self.offset)

    def __str__(self):
        post = "!" if self.post_inc else ""
        return f"str.q {self.vs}, [{self.base}, {self.offset}]{post}"


@dataclass(frozen=True)
class NVOp(Instruction):
    """Unpredicated 128-bit element-wise op."""

    op: str
    vd: Reg
    vs1: Reg
    vs2: Reg
    etype: ElementType = ElementType.F32

    def __post_init__(self) -> None:
        semantics.binary(self.op)

    @property
    def opclass(self):  # type: ignore[override]
        return semantics.vector_opclass(self.op)

    def bind(self, state):
        fn, etype = semantics.binary(self.op), self.etype
        lanes, dtype = neon_lanes(etype), etype.dtype
        read, write_v = neon_reader(state, etype), state.write_v
        vs1, vs2, vd = self.vs1, self.vs2, self.vd
        valid = all_valid(lanes)

        def execute(state) -> Optional[str]:
            a = read(vs1)
            b = read(vs2)
            with np.errstate(divide="ignore", invalid="ignore"):
                result = fn(a, b)
            write_v(vd, VecValue(result.astype(dtype), valid), etype)
            return None

        return execute

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.vs1, self.vs2)

    def __str__(self):
        return f"{self.op}.4{self.etype.suffix} {self.vd}, {self.vs1}, {self.vs2}"


@dataclass(frozen=True)
class NVFma(Instruction):
    """128-bit fused multiply-accumulate: ``vd += vs1 * vs2``."""

    vd: Reg
    vs1: Reg
    vs2: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MAC

    def bind(self, state):
        etype = self.etype
        lanes, dtype = neon_lanes(etype), etype.dtype
        read, write_v = neon_reader(state, etype), state.write_v
        vd, vs1, vs2 = self.vd, self.vs1, self.vs2
        valid = all_valid(lanes)

        def execute(state) -> Optional[str]:
            data = (read(vd) + read(vs1) * read(vs2)).astype(dtype)
            write_v(vd, VecValue(data, valid), etype)
            return None

        return execute

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.vd, self.vs1, self.vs2)

    def __str__(self):
        return f"fmla.4{self.etype.suffix} {self.vd}, {self.vs1}, {self.vs2}"


@dataclass(frozen=True)
class NVDup(Instruction):
    """Broadcast a scalar register/immediate into a 128-bit register."""

    vd: Reg
    src: Operand
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MISC

    def bind(self, state):
        etype, vd, write_v = self.etype, self.vd, state.write_v
        lanes, dtype = neon_lanes(etype), etype.dtype
        src, i = raw_source(state, self.src)
        valid = all_valid(lanes)

        def execute(state) -> Optional[str]:
            data = np.full(lanes, src[i], dtype=dtype)
            write_v(vd, VecValue(data, valid), etype)
            return None

        return execute

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return operand_regs(self.src)

    def __str__(self):
        return f"dup.4{self.etype.suffix} {self.vd}, {self.src}"


@dataclass(frozen=True)
class NVRed(Instruction):
    """Horizontal reduction of a 128-bit register into a scalar."""

    op: str
    rd: Reg
    vs: Reg
    etype: ElementType = ElementType.F32

    def __post_init__(self) -> None:
        semantics.reduce_fn(self.op)

    opclass = OpClass.VEC_RED

    def bind(self, state):
        fn, vs = semantics.reduce_fn(self.op), self.vs
        read = neon_reader(state, self.etype)
        regs, rd, convert = scalar_dest(state, self.rd)

        def execute(state) -> Optional[str]:
            regs[rd] = convert(fn(read(vs)))
            return None

        return execute

    @property
    def dests(self):
        return (self.rd,)

    @property
    def srcs(self):
        return (self.vs,)

    def __str__(self):
        return f"f{self.op}v {self.rd}, {self.vs}.4{self.etype.suffix}"


@dataclass(frozen=True)
class NVUnary(Instruction):
    """Unpredicated 128-bit element-wise unary op."""

    op: str
    vd: Reg
    vs: Reg
    etype: ElementType = ElementType.F32

    def __post_init__(self) -> None:
        semantics.unary(self.op)

    @property
    def opclass(self):  # type: ignore[override]
        return OpClass.VEC_DIV if self.op == "sqrt" else OpClass.VEC_ALU

    def bind(self, state):
        fn, etype = semantics.unary(self.op), self.etype
        lanes, dtype = neon_lanes(etype), etype.dtype
        read, write_v = neon_reader(state, etype), state.write_v
        vs, vd = self.vs, self.vd
        valid = all_valid(lanes)

        def execute(state) -> Optional[str]:
            with np.errstate(invalid="ignore"):
                result = fn(read(vs))
            write_v(vd, VecValue(result.astype(dtype), valid), etype)
            return None

        return execute

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.vs,)

    def __str__(self):
        return f"f{self.op}.4{self.etype.suffix} {self.vd}, {self.vs}"
