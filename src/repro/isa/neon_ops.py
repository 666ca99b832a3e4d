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
from repro.isa.instructions import Instruction, Operand, operand_regs
from repro.isa.microop import OpClass
from repro.isa.registers import Reg, RegClass
from repro.isa.vector import VecValue

#: NEON register width in bits.
NEON_BITS = 128


def neon_lanes(etype: ElementType) -> int:
    return NEON_BITS // (etype.width * 8)


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

    def execute(self, state) -> Optional[str]:
        lanes = neon_lanes(self.etype)
        width = self.etype.width
        start = state.read_x(self.base) + state.value_int(self.offset)
        data = state.mem.read_block(start, lanes, self.etype)
        state.record_mem_read(range(start, start + lanes * width, width))
        state.write_v(self.vd, VecValue(data, np.ones(lanes, dtype=bool)), self.etype)
        if self.post_inc:
            state.write_x(self.base, state.read_x(self.base) + NEON_BITS // 8)
        return None

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

    def execute(self, state) -> Optional[str]:
        lanes = neon_lanes(self.etype)
        width = self.etype.width
        start = state.read_x(self.base) + state.value_int(self.offset)
        value = state.read_v(self.vs, self.etype)
        state.mem.write_block(start, value.data[:lanes])
        state.record_mem_write(range(start, start + lanes * width, width))
        if self.post_inc:
            state.write_x(self.base, state.read_x(self.base) + NEON_BITS // 8)
        return None

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

    def execute(self, state) -> Optional[str]:
        lanes = neon_lanes(self.etype)
        a = state.read_v(self.vs1, self.etype)
        b = state.read_v(self.vs2, self.etype)
        with np.errstate(divide="ignore", invalid="ignore"):
            result = semantics.binary(self.op)(a.data[:lanes], b.data[:lanes])
        data = result.astype(self.etype.dtype)
        state.write_v(
            self.vd, VecValue(data, np.ones(lanes, dtype=bool)), self.etype
        )
        return None

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

    def execute(self, state) -> Optional[str]:
        lanes = neon_lanes(self.etype)
        a = state.read_v(self.vs1, self.etype)
        b = state.read_v(self.vs2, self.etype)
        acc = state.read_v(self.vd, self.etype)
        data = (acc.data[:lanes] + a.data[:lanes] * b.data[:lanes]).astype(
            self.etype.dtype
        )
        state.write_v(
            self.vd, VecValue(data, np.ones(lanes, dtype=bool)), self.etype
        )
        return None

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

    def execute(self, state) -> Optional[str]:
        lanes = neon_lanes(self.etype)
        if isinstance(self.src, Reg):
            if self.src.cls is RegClass.F:
                value = state.read_f(self.src)
            else:
                value = state.read_x(self.src)
        else:
            value = self.src
        data = np.full(lanes, value, dtype=self.etype.dtype)
        state.write_v(
            self.vd, VecValue(data, np.ones(lanes, dtype=bool)), self.etype
        )
        return None

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

    def execute(self, state) -> Optional[str]:
        lanes = neon_lanes(self.etype)
        value = state.read_v(self.vs, self.etype)
        result = semantics.reduce_fn(self.op)(value.data[:lanes])
        if self.rd.cls is RegClass.F:
            state.write_f(self.rd, float(result))
        else:
            state.write_x(self.rd, int(result))
        return None

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

    def execute(self, state) -> Optional[str]:
        lanes = neon_lanes(self.etype)
        a = state.read_v(self.vs, self.etype)
        with np.errstate(invalid="ignore"):
            result = semantics.unary(self.op)(a.data[:lanes])
        state.write_v(
            self.vd,
            VecValue(result.astype(self.etype.dtype), np.ones(lanes, dtype=bool)),
            self.etype,
        )
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.vs,)

    def __str__(self):
        return f"f{self.op}.4{self.etype.suffix} {self.vd}, {self.vs}"
