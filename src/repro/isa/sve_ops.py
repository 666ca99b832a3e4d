"""SVE-like baseline vector ISA (vector-length agnostic, predicated).

Models the ARM SVE instructions used by the paper's baseline (Fig. 1.B):
``whilelt`` predicate generation, predicated contiguous loads/stores and
gathers, predicated arithmetic with merging semantics, ``fmla``,
element-count increments, and predicate-driven loop branches.  Vector
length comes from the machine configuration, exactly as in SVE.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.types import ElementType
from repro.errors import IsaError
from repro.isa import semantics
from repro.isa.instructions import (
    Instruction,
    Operand,
    int_source,
    operand_regs,
    x_dest,
)
from repro.isa.microop import OpClass
from repro.isa.registers import P0, Reg, RegClass
from repro.isa.vector import VecValue, all_valid


@dataclass(frozen=True)
class WhileLt(Instruction):
    """``whilelt pd, rs1, rs2``: lane *i* valid iff ``rs1 + i < rs2``.

    The lanes it sets are always a prefix, of ``rs2 - rs1`` lanes clamped
    to ``[0, lanes]``, and it records that prefix."""

    pd: Reg
    rs1: Reg
    rs2: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MISC

    def bind(self, state):
        lanes, etype = state.lanes, self.etype
        xregs, a, b = state.xregs, self.rs1.index, self.rs2.index
        write_pred, pd = state.write_pred, self.pd

        def execute(state) -> Optional[str]:
            count = xregs[b] - xregs[a]
            write_pred(pd, prefix=min(max(count, 0), lanes(etype)))
            return None

        return execute

    @property
    def dests(self):
        return (self.pd,)

    @property
    def srcs(self):
        return (self.rs1, self.rs2)

    def __str__(self):
        return f"whilelt {self.pd}.{self.etype.suffix}, {self.rs1}, {self.rs2}"


@dataclass(frozen=True)
class PTrue(Instruction):
    """``ptrue pd``: all lanes valid."""

    pd: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MISC

    def execute(self, state) -> Optional[str]:
        state.write_pred(self.pd, prefix=state.lanes(self.etype))
        return None

    @property
    def dests(self):
        return (self.pd,)

    def __str__(self):
        return f"ptrue {self.pd}.{self.etype.suffix}"


@dataclass(frozen=True)
class BranchPred(Instruction):
    """Predicate branch: ``kind`` is ``first`` (lane 0 set), ``any``, or
    ``none``."""

    kind: str
    pg: Reg
    label: str
    etype: ElementType = ElementType.F32
    opclass = OpClass.BRANCH

    def __post_init__(self) -> None:
        if self.kind not in ("first", "any", "none"):
            raise IsaError(f"unknown predicate-branch kind {self.kind!r}")

    def bind(self, state):
        lanes_of, etype = state.lanes, self.etype
        preds, prefixes, pg = state.preds, state.pred_prefix, self.pg.index
        label, first = self.label, self.kind == "first"
        # ``first`` and ``any`` branch when a lane is active, ``none``
        # when none is.
        when_active = self.kind != "none"

        def execute(state) -> Optional[str]:
            lanes = lanes_of(etype)
            prefix = prefixes[pg]
            if prefix >= 0:
                # Of a prefix, lane 0 is active exactly when any lane is.
                active = prefix > 0 and lanes > 0
            elif first:
                active = lanes > 0 and bool(preds[pg, 0])
            else:
                active = bool(preds[pg, :lanes].any())
            return label if active == when_active else None

        return execute

    @property
    def srcs(self):
        return (self.pg,)

    @property
    def label_target(self):
        return self.label

    def __str__(self):
        return f"b.{self.kind} {self.pg}, .{self.label}"


def _index_source(state, index: Optional[Operand]):
    """Where a contiguous access reads its element index (0 if none)."""
    return int_source(state, 0 if index is None else index)


@dataclass(frozen=True)
class Ld1(Instruction):
    """Predicated contiguous vector load: lanes from ``base + index*ew``."""

    vd: Reg
    pg: Reg
    base: Reg
    index: Optional[Operand] = None
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_LOAD

    def bind(self, state):
        etype, lanes_of, write_v = self.etype, state.lanes, state.write_v
        width, dtype, vd = etype.width, etype.dtype, self.vd
        preds, prefixes, pg = state.preds, state.pred_prefix, self.pg.index
        xregs, base = state.xregs, self.base.index
        src, index = _index_source(state, self.index)
        read_block, size = state.mem.read_block, state.mem.size
        read = state.mem.scalar_reader(etype)
        record = state.record_mem_read

        def execute(state) -> Optional[str]:
            lanes = lanes_of(etype)
            start = xregs[base] + src[index] * width
            prefix = prefixes[pg]
            if prefix >= lanes or (prefix < 0 and preds[pg, :lanes].all()):
                # Every lane active: one contiguous block.
                data = read_block(start, lanes, etype)
                addrs = range(start, start + lanes * width, width)
                valid = all_valid(lanes)
            elif prefix >= 0 and start >= 0 and start + prefix * width <= size:
                # The first ``prefix`` lanes active and in bounds: one
                # shorter block.  Out of bounds, the lane loop raises at
                # the first bad lane.
                data = np.zeros(lanes, dtype=dtype)
                data[:prefix] = read_block(start, prefix, etype)
                addrs = range(start, start + prefix * width, width)
                valid = preds[pg, :lanes].copy()
            else:
                mask = preds[pg, :lanes]
                data = np.zeros(lanes, dtype=dtype)
                addrs = []
                for i in range(lanes):
                    if mask[i]:
                        addr = start + i * width
                        data[i] = read(addr)
                        addrs.append(addr)
                addrs = tuple(addrs)
                valid = mask.copy()
            record(addrs)
            write_v(vd, VecValue(data, valid), etype)
            return None

        return execute

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return operand_regs(self.pg, self.base, self.index)

    def __str__(self):
        idx = f", {self.index}, lsl" if self.index is not None else ""
        return f"ld1{self.etype.suffix} {self.vd}, {self.pg}/z, [{self.base}{idx}]"


@dataclass(frozen=True)
class Ld1R(Instruction):
    """Load-and-replicate: broadcast ``mem[base]`` to all valid lanes."""

    vd: Reg
    pg: Reg
    base: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_LOAD

    def bind(self, state):
        etype, lanes_of, write_v = self.etype, state.lanes, state.write_v
        dtype, vd = etype.dtype, self.vd
        preds, prefixes, pg = state.preds, state.pred_prefix, self.pg.index
        xregs, base = state.xregs, self.base.index
        read = state.mem.scalar_reader(etype)
        record = state.record_mem_read

        def execute(state) -> Optional[str]:
            lanes = lanes_of(etype)
            addr = xregs[base]
            value = read(addr)
            record((addr,))
            if prefixes[pg] >= lanes:
                valid = all_valid(lanes)
            else:
                valid = preds[pg, :lanes].copy()
            data = np.full(lanes, value, dtype=dtype)
            write_v(vd, VecValue(data, valid), etype)
            return None

        return execute

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.pg, self.base)

    def __str__(self):
        return f"ld1r{self.etype.suffix} {self.vd}, {self.pg}/z, [{self.base}]"


@dataclass(frozen=True)
class St1(Instruction):
    """Predicated contiguous vector store."""

    vs: Reg
    pg: Reg
    base: Reg
    index: Optional[Operand] = None
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_STORE

    def bind(self, state):
        etype, lanes_of, read_v = self.etype, state.lanes, state.read_v
        width, vs = etype.width, self.vs
        preds, prefixes, pg = state.preds, state.pred_prefix, self.pg.index
        xregs, base = state.xregs, self.base.index
        src, index = _index_source(state, self.index)
        write_block, size = state.mem.write_block, state.mem.size
        write = state.mem.scalar_writer(etype)
        record = state.record_mem_write

        def execute(state) -> Optional[str]:
            lanes = lanes_of(etype)
            value = read_v(vs, etype)
            start = xregs[base] + src[index] * width
            prefix = prefixes[pg]
            if prefix >= lanes or (prefix < 0 and preds[pg, :lanes].all()):
                # Every lane active: one contiguous block.
                write_block(start, value.data)
                addrs = range(start, start + lanes * width, width)
            elif prefix >= 0 and start >= 0 and start + prefix * width <= size:
                # The first ``prefix`` lanes active and in bounds: one
                # shorter block.  Out of bounds, the lane loop writes the
                # lanes before the first bad one and raises there.
                write_block(start, value.data[:prefix])
                addrs = range(start, start + prefix * width, width)
            else:
                mask = preds[pg, :lanes]
                addrs = []
                for i in range(lanes):
                    if mask[i]:
                        addr = start + i * width
                        write(addr, value.data[i])
                        addrs.append(addr)
                addrs = tuple(addrs)
            record(addrs)
            return None

        return execute

    @property
    def srcs(self):
        return operand_regs(self.vs, self.pg, self.base, self.index)

    def __str__(self):
        idx = f", {self.index}, lsl" if self.index is not None else ""
        return f"st1{self.etype.suffix} {self.vs}, {self.pg}, [{self.base}{idx}]"


#: a gather/scatter index vector holds signed integers of the data's
#: element width; read as the data's type, an F32 index would round
#: every index above 2**24.
INDEX_TYPES = {
    etype.width: etype
    for etype in (ElementType.I8, ElementType.I16, ElementType.I32,
                  ElementType.I64)
}


@dataclass(frozen=True)
class Ld1Gather(Instruction):
    """Gather load: lane *i* from ``base + vindex[i]*ew``."""

    vd: Reg
    pg: Reg
    base: Reg
    vindex: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.GATHER

    def execute(self, state) -> Optional[str]:
        lanes = state.lanes(self.etype)
        mask = state.read_pred(self.pg, lanes)
        base = state.read_x(self.base)
        index = state.read_v(self.vindex, INDEX_TYPES[self.etype.width])
        width = self.etype.width
        data = np.zeros(lanes, dtype=self.etype.dtype)
        addrs = []
        for i in range(lanes):
            if mask[i]:
                addr = base + int(index.data[i]) * width
                data[i] = state.mem.read_scalar(addr, self.etype)
                addrs.append(addr)
        state.record_mem_read(tuple(addrs))
        state.write_v(self.vd, VecValue(data, mask.copy()), self.etype)
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.pg, self.base, self.vindex)

    def __str__(self):
        return (
            f"ld1{self.etype.suffix} {self.vd}, {self.pg}/z, "
            f"[{self.base}, {self.vindex}]"
        )


@dataclass(frozen=True)
class St1Scatter(Instruction):
    """Scatter store: lane *i* to ``base + vindex[i]*ew``."""

    vs: Reg
    pg: Reg
    base: Reg
    vindex: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.SCATTER

    def execute(self, state) -> Optional[str]:
        lanes = state.lanes(self.etype)
        mask = state.read_pred(self.pg, lanes)
        base = state.read_x(self.base)
        index = state.read_v(self.vindex, INDEX_TYPES[self.etype.width])
        value = state.read_v(self.vs, self.etype)
        width = self.etype.width
        addrs = []
        for i in range(lanes):
            if mask[i]:
                addr = base + int(index.data[i]) * width
                state.mem.write_scalar(addr, value.data[i], self.etype)
                addrs.append(addr)
        state.record_mem_write(tuple(addrs))
        return None

    @property
    def srcs(self):
        return (self.vs, self.pg, self.base, self.vindex)

    def __str__(self):
        return (
            f"st1{self.etype.suffix} {self.vs}, {self.pg}, "
            f"[{self.base}, {self.vindex}]"
        )


@dataclass(frozen=True)
class VOp(Instruction):
    """Predicated element-wise op with merging: inactive lanes keep vd."""

    op: str
    vd: Reg
    pg: Reg
    vs1: Reg
    vs2: Reg
    etype: ElementType = ElementType.F32

    def __post_init__(self) -> None:
        semantics.binary(self.op)

    @property
    def opclass(self):  # type: ignore[override]
        return semantics.vector_opclass(self.op)

    def bind(self, state):
        fn, etype, lanes_of = semantics.binary(self.op), self.etype, state.lanes
        dtype = etype.dtype
        preds, prefixes, pg = state.preds, state.pred_prefix, self.pg.index
        read_v, write_v = state.read_v, state.write_v
        vs1, vs2, vd = self.vs1, self.vs2, self.vd

        def execute(state) -> Optional[str]:
            lanes = lanes_of(etype)
            a = read_v(vs1, etype)
            b = read_v(vs2, etype)
            with np.errstate(divide="ignore", invalid="ignore"):
                result = fn(a.data, b.data)
            if prefixes[pg] >= lanes:
                # Every lane active: nothing of vd to merge.
                data = result.astype(dtype)
                valid = a.valid if a.valid is b.valid else a.valid & b.valid
            else:
                mask = preds[pg, :lanes]
                old = read_v(vd, etype)
                data = np.where(mask, result, old.data).astype(dtype)
                valid = np.where(mask, a.valid & b.valid, old.valid)
            write_v(vd, VecValue(data, valid), etype)
            return None

        return execute

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.pg, self.vs1, self.vs2, self.vd)

    def __str__(self):
        return (
            f"f{self.op} {self.vd}.{self.etype.suffix}, {self.pg}/m, "
            f"{self.vs1}, {self.vs2}"
        )


@dataclass(frozen=True)
class Fmla(Instruction):
    """Predicated fused multiply-accumulate: ``vd += vs1 * vs2``."""

    vd: Reg
    pg: Reg
    vs1: Reg
    vs2: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MAC

    def bind(self, state):
        etype, lanes_of = self.etype, state.lanes
        dtype = etype.dtype
        preds, prefixes, pg = state.preds, state.pred_prefix, self.pg.index
        read_v, write_v = state.read_v, state.write_v
        vs1, vs2, vd = self.vs1, self.vs2, self.vd

        def execute(state) -> Optional[str]:
            lanes = lanes_of(etype)
            a = read_v(vs1, etype)
            b = read_v(vs2, etype)
            acc = read_v(vd, etype)
            result = acc.data + a.data * b.data
            if prefixes[pg] >= lanes:
                # Every lane active: nothing of the accumulator to merge.
                data = result.astype(dtype)
                if a.valid is b.valid is acc.valid:
                    valid = acc.valid
                else:
                    valid = a.valid & b.valid & acc.valid
            else:
                mask = preds[pg, :lanes]
                data = np.where(mask, result, acc.data).astype(dtype)
                valid = np.where(mask, a.valid & b.valid & acc.valid, acc.valid)
            write_v(vd, VecValue(data, valid), etype)
            return None

        return execute

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.pg, self.vs1, self.vs2, self.vd)

    def __str__(self):
        return f"fmla {self.vd}.{self.etype.suffix}, {self.pg}/m, {self.vs1}, {self.vs2}"


@dataclass(frozen=True)
class Dup(Instruction):
    """Broadcast a scalar register or immediate to every lane."""

    vd: Reg
    src: Operand
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MISC

    def execute(self, state) -> Optional[str]:
        lanes = state.lanes(self.etype)
        if isinstance(self.src, Reg):
            if self.src.cls is RegClass.F:
                value = state.read_f(self.src)
            else:
                value = state.read_x(self.src)
        else:
            value = self.src
        data = np.full(lanes, value, dtype=self.etype.dtype)
        state.write_v(self.vd, VecValue(data, np.ones(lanes, dtype=bool)), self.etype)
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return operand_regs(self.src)

    def __str__(self):
        return f"dup {self.vd}.{self.etype.suffix}, {self.src}"


@dataclass(frozen=True)
class Index(Instruction):
    """``index vd, base, step``: lane *i* = base + i*step."""

    vd: Reg
    base: Operand
    step: Operand
    etype: ElementType = ElementType.I32
    opclass = OpClass.VEC_MISC

    def execute(self, state) -> Optional[str]:
        lanes = state.lanes(self.etype)
        base = state.value_int(self.base)
        step = state.value_int(self.step)
        data = (base + np.arange(lanes) * step).astype(self.etype.dtype)
        state.write_v(self.vd, VecValue(data, np.ones(lanes, dtype=bool)), self.etype)
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return operand_regs(self.base, self.step)

    def __str__(self):
        return f"index {self.vd}.{self.etype.suffix}, {self.base}, {self.step}"


@dataclass(frozen=True)
class IncElems(Instruction):
    """``incw rd``: rd += number of lanes (loop-counter increment)."""

    rd: Reg
    etype: ElementType = ElementType.F32
    mult: int = 1
    opclass = OpClass.INT_ALU

    def bind(self, state):
        lanes, etype, mult = state.lanes, self.etype, self.mult
        xregs = state.xregs
        regs, rd = x_dest(state, self.rd)

        def execute(state) -> Optional[str]:
            regs[rd] = int(xregs[rd] + lanes(etype) * mult)
            return None

        return execute

    @property
    def dests(self):
        return (self.rd,)

    @property
    def srcs(self):
        return (self.rd,)

    def __str__(self):
        return f"inc{self.etype.suffix} {self.rd}"


@dataclass(frozen=True)
class CntElems(Instruction):
    """``cntw rd``: rd = number of lanes."""

    rd: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.INT_ALU

    def execute(self, state) -> Optional[str]:
        state.write_x(self.rd, state.lanes(self.etype))
        return None

    @property
    def dests(self):
        return (self.rd,)

    def __str__(self):
        return f"cnt{self.etype.suffix} {self.rd}"


@dataclass(frozen=True)
class Red(Instruction):
    """Predicated horizontal reduction into a scalar register."""

    op: str
    rd: Reg
    pg: Reg
    vs: Reg
    etype: ElementType = ElementType.F32

    def __post_init__(self) -> None:
        semantics.reduce_fn(self.op)

    opclass = OpClass.VEC_RED

    def execute(self, state) -> Optional[str]:
        lanes = state.lanes(self.etype)
        mask = state.read_pred(self.pg, lanes)
        value = state.read_v(self.vs, self.etype)
        active = value.data[mask & value.valid]
        if len(active) == 0:
            result = 0.0
        else:
            result = semantics.reduce_fn(self.op)(active)
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
        return (self.pg, self.vs)

    def __str__(self):
        return f"f{self.op}v {self.rd}, {self.pg}, {self.vs}.{self.etype.suffix}"


@dataclass(frozen=True)
class CmpPred(Instruction):
    """Predicated vector compare producing a predicate."""

    cond: str
    pd: Reg
    pg: Reg
    vs1: Reg
    vs2: Reg
    etype: ElementType = ElementType.F32

    def __post_init__(self) -> None:
        semantics.compare(self.cond)

    opclass = OpClass.VEC_MISC

    def execute(self, state) -> Optional[str]:
        lanes = state.lanes(self.etype)
        mask = state.read_pred(self.pg, lanes)
        a = state.read_v(self.vs1, self.etype)
        b = state.read_v(self.vs2, self.etype)
        result = semantics.compare(self.cond)(a.data, b.data) & mask
        state.write_pred(self.pd, result)
        return None

    @property
    def dests(self):
        return (self.pd,)

    @property
    def srcs(self):
        return (self.pg, self.vs1, self.vs2)

    def __str__(self):
        return (
            f"fcmp{self.cond} {self.pd}.{self.etype.suffix}, {self.pg}/z, "
            f"{self.vs1}, {self.vs2}"
        )


@dataclass(frozen=True)
class Sel(Instruction):
    """``sel vd, pg, vs1, vs2``: lane-wise select."""

    vd: Reg
    pg: Reg
    vs1: Reg
    vs2: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_ALU

    def execute(self, state) -> Optional[str]:
        lanes = state.lanes(self.etype)
        mask = state.read_pred(self.pg, lanes)
        a = state.read_v(self.vs1, self.etype)
        b = state.read_v(self.vs2, self.etype)
        data = np.where(mask, a.data, b.data).astype(self.etype.dtype)
        valid = np.where(mask, a.valid, b.valid)
        state.write_v(self.vd, VecValue(data, valid), self.etype)
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.pg, self.vs1, self.vs2)

    def __str__(self):
        return f"sel {self.vd}.{self.etype.suffix}, {self.pg}, {self.vs1}, {self.vs2}"


@dataclass(frozen=True)
class VUnary(Instruction):
    """Predicated element-wise unary op (``neg``, ``abs``, ``sqrt``)."""

    op: str
    vd: Reg
    pg: Reg
    vs: Reg
    etype: ElementType = ElementType.F32

    def __post_init__(self) -> None:
        semantics.unary(self.op)

    @property
    def opclass(self):  # type: ignore[override]
        return OpClass.VEC_DIV if self.op == "sqrt" else OpClass.VEC_ALU

    def execute(self, state) -> Optional[str]:
        lanes = state.lanes(self.etype)
        mask = state.read_pred(self.pg, lanes)
        a = state.read_v(self.vs, self.etype)
        old = state.read_v(self.vd, self.etype)
        with np.errstate(invalid="ignore"):
            result = semantics.unary(self.op)(a.data)
        data = np.where(mask, result, old.data).astype(self.etype.dtype)
        valid = np.where(mask, a.valid, old.valid)
        state.write_v(self.vd, VecValue(data, valid), self.etype)
        return None

    @property
    def dests(self):
        return (self.vd,)

    @property
    def srcs(self):
        return (self.pg, self.vs, self.vd)

    def __str__(self):
        return f"f{self.op} {self.vd}.{self.etype.suffix}, {self.pg}/m, {self.vs}"


# Default all-true predicate alias for unpredicated use.
PG_ALL = P0
