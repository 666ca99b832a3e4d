"""RVV-like baseline ISA (RISC-V "V" extension, paper Fig. 1.C).

The third vector-length-agnostic comparator the paper discusses: instead
of SVE's predication, RVV strip-mines with ``vsetvli`` — each iteration
requests the remaining element count and receives a granted vector
length ``vl = min(avl, VLMAX)``; all vector instructions then operate on
exactly ``vl`` elements, which handles loop tails by shortening the last
iteration.  Address bumping is explicit scalar arithmetic, exactly as in
the paper's listing (the shaded overhead instructions of Fig. 1.C).
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


@dataclass(frozen=True)
class VSetVli(Instruction):
    """``vsetvli rd, rs_avl``: grant ``vl = min(avl, VLMAX)`` and make it
    the active vector length for subsequent vector instructions."""

    rd: Reg
    avl: Operand
    etype: ElementType = ElementType.F32
    opclass = OpClass.INT_ALU

    def execute(self, state) -> Optional[str]:
        request = state.value_int(self.avl)
        if request > 0:
            granted = state.set_vl(request, self.etype)
        else:
            state.set_vl(1, self.etype)  # keep a defined (minimal) VL
            granted = 0
        state.write_x(self.rd, granted)
        return None

    @property
    def dests(self):
        return (self.rd,)

    @property
    def srcs(self):
        return operand_regs(self.avl)

    def __str__(self):
        return f"vsetvli {self.rd}, {self.avl}, e{self.etype.width * 8}"


@dataclass(frozen=True)
class VlLoad(Instruction):
    """``vle.v vd, (rs)``: unit-stride load of ``vl`` elements."""

    vd: Reg
    base: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_LOAD

    def execute(self, state) -> Optional[str]:
        vl = state.lanes(self.etype)
        width = self.etype.width
        start = state.read_x(self.base)
        data = state.mem.read_block(start, vl, self.etype)
        full = np.zeros(max(vl, 1), dtype=self.etype.dtype)
        full[:vl] = data
        state.record_mem_read(range(start, start + vl * width, width))
        state.write_v(
            self.vd, VecValue(full, np.ones(max(vl, 1), dtype=bool)), self.etype
        )
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.base,)

    def __str__(self):
        return f"vle.v {self.vd}, ({self.base})"


@dataclass(frozen=True)
class VlStore(Instruction):
    """``vse.v vs, (rs)``: unit-stride store of ``vl`` elements."""

    vs: Reg
    base: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_STORE

    def execute(self, state) -> Optional[str]:
        vl = state.lanes(self.etype)
        width = self.etype.width
        start = state.read_x(self.base)
        value = state.read_v(self.vs, self.etype)
        state.mem.write_block(start, value.data[:vl])
        state.record_mem_write(range(start, start + vl * width, width))
        return None

    @property
    def srcs(self):
        return (self.vs, self.base)

    def __str__(self):
        return f"vse.v {self.vs}, ({self.base})"


@dataclass(frozen=True)
class VlLoadStrided(Instruction):
    """``vlse.v vd, (rs), rs_stride``: constant-stride load (bytes)."""

    vd: Reg
    base: Reg
    stride: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.GATHER

    def execute(self, state) -> Optional[str]:
        vl = state.lanes(self.etype)
        start = state.read_x(self.base)
        stride = state.read_x(self.stride)
        data = np.zeros(max(vl, 1), dtype=self.etype.dtype)
        addrs = []
        for i in range(vl):
            addr = start + i * stride
            data[i] = state.mem.read_scalar(addr, self.etype)
            addrs.append(addr)
        state.record_mem_read(tuple(addrs))
        state.write_v(
            self.vd, VecValue(data, np.ones(max(vl, 1), dtype=bool)), self.etype
        )
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.base, self.stride)

    def __str__(self):
        return f"vlse.v {self.vd}, ({self.base}), {self.stride}"


@dataclass(frozen=True)
class VOpVV(Instruction):
    """Vector-vector element-wise op over the active ``vl``."""

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
        vl = state.lanes(self.etype)
        a = state.read_v(self.vs1, self.etype)
        b = state.read_v(self.vs2, self.etype)
        with np.errstate(divide="ignore", invalid="ignore"):
            result = semantics.binary(self.op)(a.data[:vl], b.data[:vl])
        state.write_v(
            self.vd,
            VecValue(result.astype(self.etype.dtype),
                     np.ones(max(vl, 1), dtype=bool)),
            self.etype,
        )
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.vs1, self.vs2)

    def __str__(self):
        return f"v{self.op}.vv {self.vd}, {self.vs1}, {self.vs2}"


@dataclass(frozen=True)
class VOpVF(Instruction):
    """Vector-scalar element-wise op (``v<op>.vf``)."""

    op: str
    vd: Reg
    vs: Reg
    fs: Reg
    etype: ElementType = ElementType.F32

    def __post_init__(self) -> None:
        semantics.binary(self.op)

    @property
    def opclass(self):  # type: ignore[override]
        return semantics.vector_opclass(self.op)

    def execute(self, state) -> Optional[str]:
        vl = state.lanes(self.etype)
        a = state.read_v(self.vs, self.etype)
        s = state.read_f(self.fs) if self.fs.cls is RegClass.F else state.read_x(self.fs)
        with np.errstate(divide="ignore", invalid="ignore"):
            result = semantics.binary(self.op)(
                a.data[:vl], self.etype.dtype.type(s)
            )
        state.write_v(
            self.vd,
            VecValue(result.astype(self.etype.dtype),
                     np.ones(max(vl, 1), dtype=bool)),
            self.etype,
        )
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.vs, self.fs)

    def __str__(self):
        return f"v{self.op}.vf {self.vd}, {self.vs}, {self.fs}"


@dataclass(frozen=True)
class VMaccVF(Instruction):
    """``vfmacc.vf vd, fs, vs``: ``vd += fs * vs`` (Fig. 1.C's kernel op)."""

    vd: Reg
    fs: Reg
    vs: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MAC

    def execute(self, state) -> Optional[str]:
        vl = state.lanes(self.etype)
        acc = state.read_v(self.vd, self.etype)
        a = state.read_v(self.vs, self.etype)
        s = state.read_f(self.fs)
        result = acc.data[:vl] + self.etype.dtype.type(s) * a.data[:vl]
        state.write_v(
            self.vd,
            VecValue(result.astype(self.etype.dtype),
                     np.ones(max(vl, 1), dtype=bool)),
            self.etype,
        )
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.vd, self.fs, self.vs)

    def __str__(self):
        return f"vfmacc.vf {self.vd}, {self.fs}, {self.vs}"


@dataclass(frozen=True)
class VMaccVV(Instruction):
    """``vfmacc.vv vd, vs1, vs2``: ``vd += vs1 * vs2``."""

    vd: Reg
    vs1: Reg
    vs2: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MAC

    def execute(self, state) -> Optional[str]:
        vl = state.lanes(self.etype)
        acc = state.read_v(self.vd, self.etype)
        a = state.read_v(self.vs1, self.etype)
        b = state.read_v(self.vs2, self.etype)
        result = acc.data[:vl] + a.data[:vl] * b.data[:vl]
        state.write_v(
            self.vd,
            VecValue(result.astype(self.etype.dtype),
                     np.ones(max(vl, 1), dtype=bool)),
            self.etype,
        )
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.vd, self.vs1, self.vs2)

    def __str__(self):
        return f"vfmacc.vv {self.vd}, {self.vs1}, {self.vs2}"


@dataclass(frozen=True)
class VRed(Instruction):
    """``vfred<op>.vs``: reduce the active ``vl`` lanes into a scalar."""

    op: str
    rd: Reg
    vs: Reg
    etype: ElementType = ElementType.F32

    def __post_init__(self) -> None:
        semantics.reduce_fn(self.op)

    opclass = OpClass.VEC_RED

    def execute(self, state) -> Optional[str]:
        vl = state.lanes(self.etype)
        value = state.read_v(self.vs, self.etype)
        result = semantics.reduce_fn(self.op)(value.data[:vl]) if vl else 0
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
        return f"vfred{self.op}.vs {self.rd}, {self.vs}"


@dataclass(frozen=True)
class VDup(Instruction):
    """``vfmv.v.f``: broadcast a scalar to the active ``vl`` lanes."""

    vd: Reg
    src: Operand
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MISC

    def execute(self, state) -> Optional[str]:
        vl = state.lanes(self.etype)
        if isinstance(self.src, Reg):
            value = (
                state.read_f(self.src)
                if self.src.cls is RegClass.F
                else state.read_x(self.src)
            )
        else:
            value = self.src
        data = np.full(max(vl, 1), value, dtype=self.etype.dtype)
        state.write_v(
            self.vd, VecValue(data, np.ones(max(vl, 1), dtype=bool)), self.etype
        )
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return operand_regs(self.src)

    def __str__(self):
        return f"vfmv.v.f {self.vd}, {self.src}"
