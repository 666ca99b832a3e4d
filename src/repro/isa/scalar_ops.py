"""Scalar base ISA (RISC-V flavoured).

Provides the integer/FP scalar instructions, scalar memory accesses and
branches used by loop control in the baseline kernels and by the scalar
fallback implementations of the benchmarks the ARM compiler could not
vectorize.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.types import ElementType
from repro.errors import IsaError
from repro.isa import semantics
from repro.isa.instructions import (
    Instruction,
    Operand,
    float_source,
    int_source,
    operand_regs,
    raw_source,
    scalar_dest,
    x_dest,
)
from repro.isa.microop import OpClass
from repro.isa.registers import Reg, RegClass


def _check_class(reg: Reg, cls: RegClass, what: str) -> None:
    if reg.cls is not cls:
        raise IsaError(f"{what} must be an {cls.value}-register, got {reg}")


def _int_div(a: int, b: int) -> int:
    """Exact integer division truncating toward zero (RISC-V DIV).  It
    never traps: x/0 yields a defined value, 0 here for simplicity."""
    if not b:
        return 0
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


@dataclass(frozen=True)
class Li(Instruction):
    """Load integer immediate: ``rd = imm``."""

    rd: Reg
    imm: int
    opclass = OpClass.INT_ALU

    def bind(self, state):
        regs, rd = x_dest(state, self.rd)
        imm = int(self.imm)

        def execute(state) -> Optional[str]:
            regs[rd] = imm
            return None

        return execute

    @property
    def dests(self):
        return (self.rd,)

    def __str__(self):
        return f"li {self.rd}, {self.imm}"


@dataclass(frozen=True)
class FLi(Instruction):
    """Load FP immediate: ``fd = value`` (assembler convenience)."""

    fd: Reg
    value: float
    opclass = OpClass.FP_ALU

    def bind(self, state):
        fregs, fd = state.fregs, self.fd.index
        value = float(self.value)

        def execute(state) -> Optional[str]:
            fregs[fd] = value
            return None

        return execute

    @property
    def dests(self):
        return (self.fd,)

    def __str__(self):
        return f"fli {self.fd}, {self.value}"


@dataclass(frozen=True)
class IntOp(Instruction):
    """Integer ALU op: ``rd = rs1 <op> rs2`` (register or immediate rs2)."""

    op: str
    rd: Reg
    rs1: Reg
    rs2: Operand

    def __post_init__(self) -> None:
        semantics.binary(self.op)

    @property
    def opclass(self):  # type: ignore[override]
        return semantics.scalar_int_opclass(self.op)

    def bind(self, state):
        fn = _int_div if self.op == "div" else semantics.binary(self.op)
        xregs, a = state.xregs, self.rs1.index
        src, b = int_source(state, self.rs2)
        regs, rd = x_dest(state, self.rd)

        def execute(state) -> Optional[str]:
            regs[rd] = int(fn(xregs[a], src[b]))
            return None

        return execute

    @property
    def dests(self):
        return (self.rd,)

    @property
    def srcs(self):
        return operand_regs(self.rs1, self.rs2)

    def __str__(self):
        return f"{self.op} {self.rd}, {self.rs1}, {self.rs2}"


@dataclass(frozen=True)
class FOp(Instruction):
    """Scalar FP op: ``fd = fs1 <op> fs2``."""

    op: str
    fd: Reg
    fs1: Reg
    fs2: Operand

    def __post_init__(self) -> None:
        semantics.binary(self.op)

    @property
    def opclass(self):  # type: ignore[override]
        return semantics.scalar_fp_opclass(self.op)

    def bind(self, state):
        fn = semantics.binary(self.op)
        fregs, fd, a = state.fregs, self.fd.index, self.fs1.index
        src, b = float_source(state, self.fs2)

        def execute(state) -> Optional[str]:
            fregs[fd] = float(fn(fregs[a], src[b]))
            return None

        return execute

    @property
    def dests(self):
        return (self.fd,)

    @property
    def srcs(self):
        return operand_regs(self.fs1, self.fs2)

    def __str__(self):
        return f"f{self.op} {self.fd}, {self.fs1}, {self.fs2}"


@dataclass(frozen=True)
class FUnary(Instruction):
    """Scalar FP unary op (``neg``, ``abs``, ``sqrt``, ``mov``)."""

    op: str
    fd: Reg
    fs: Reg

    def __post_init__(self) -> None:
        semantics.unary(self.op)

    @property
    def opclass(self):  # type: ignore[override]
        return OpClass.FP_DIV if self.op == "sqrt" else OpClass.FP_ALU

    def execute(self, state) -> Optional[str]:
        state.write_f(self.fd, float(semantics.unary(self.op)(state.read_f(self.fs))))
        return None

    @property
    def dests(self):
        return (self.fd,)

    @property
    def srcs(self):
        return (self.fs,)

    def __str__(self):
        return f"f{self.op} {self.fd}, {self.fs}"


@dataclass(frozen=True)
class FMac(Instruction):
    """Scalar fused multiply-add: ``fd += fs1 * fs2``."""

    fd: Reg
    fs1: Reg
    fs2: Reg
    opclass = OpClass.FP_MAC

    def execute(self, state) -> Optional[str]:
        acc = state.read_f(self.fd)
        state.write_f(self.fd, acc + state.read_f(self.fs1) * state.read_f(self.fs2))
        return None

    @property
    def dests(self):
        return (self.fd,)

    @property
    def srcs(self):
        return (self.fd, self.fs1, self.fs2)

    def __str__(self):
        return f"fmadd {self.fd}, {self.fs1}, {self.fs2}"


@dataclass(frozen=True)
class Move(Instruction):
    """Inter-bank scalar move (``rd = rs``), with int<->float convert."""

    rd: Reg
    rs: Reg
    opclass = OpClass.INT_ALU

    def execute(self, state) -> Optional[str]:
        if self.rs.cls is RegClass.F:
            value = state.read_f(self.rs)
        else:
            value = state.read_x(self.rs)
        if self.rd.cls is RegClass.F:
            state.write_f(self.rd, float(value))
        else:
            state.write_x(self.rd, int(value))
        return None

    @property
    def dests(self):
        return (self.rd,)

    @property
    def srcs(self):
        return (self.rs,)

    def __str__(self):
        return f"mv {self.rd}, {self.rs}"


@dataclass(frozen=True)
class Load(Instruction):
    """Scalar load: ``rd = mem[x[base] + offset]`` (byte offset)."""

    rd: Reg
    base: Reg
    offset: Operand
    etype: ElementType = ElementType.I64

    def __post_init__(self) -> None:
        _check_class(self.base, RegClass.X, "load base")

    opclass = OpClass.LOAD

    def bind(self, state):
        xregs, base = state.xregs, self.base.index
        src, offset = int_source(state, self.offset)
        read = state.mem.scalar_reader(self.etype)
        record = state.record_mem_read
        regs, rd, convert = scalar_dest(state, self.rd)

        def execute(state) -> Optional[str]:
            addr = xregs[base] + src[offset]
            value = read(addr)
            record((addr,))
            regs[rd] = convert(value)
            return None

        return execute

    @property
    def dests(self):
        return (self.rd,)

    @property
    def srcs(self):
        return operand_regs(self.base, self.offset)

    def __str__(self):
        return f"l{self.etype.suffix} {self.rd}, {self.offset}({self.base})"


@dataclass(frozen=True)
class Store(Instruction):
    """Scalar store: ``mem[x[base] + offset] = rs``."""

    rs: Reg
    base: Reg
    offset: Operand
    etype: ElementType = ElementType.I64

    def __post_init__(self) -> None:
        _check_class(self.base, RegClass.X, "store base")

    opclass = OpClass.STORE

    def bind(self, state):
        xregs, base = state.xregs, self.base.index
        src, offset = int_source(state, self.offset)
        regs, rs = raw_source(state, self.rs)
        write = state.mem.scalar_writer(self.etype)
        record = state.record_mem_write

        def execute(state) -> Optional[str]:
            addr = xregs[base] + src[offset]
            write(addr, regs[rs])
            record((addr,))
            return None

        return execute

    @property
    def srcs(self):
        return operand_regs(self.rs, self.base, self.offset)

    def __str__(self):
        return f"s{self.etype.suffix} {self.rs}, {self.offset}({self.base})"


@dataclass(frozen=True)
class BranchCmp(Instruction):
    """Conditional branch: taken when ``rs1 <cond> rs2``."""

    cond: str
    rs1: Reg
    rs2: Operand
    label: str

    def __post_init__(self) -> None:
        semantics.compare(self.cond)

    opclass = OpClass.BRANCH

    def bind(self, state):
        compare = semantics.compare(self.cond)
        label, a = self.label, self.rs1.index
        if self.rs1.cls is RegClass.F:
            regs = state.fregs
            src, b = float_source(state, self.rs2)
        else:
            regs = state.xregs
            src, b = int_source(state, self.rs2)

        def execute(state) -> Optional[str]:
            return label if compare(regs[a], src[b]) else None

        return execute

    @property
    def srcs(self):
        return operand_regs(self.rs1, self.rs2)

    @property
    def label_target(self):
        return self.label

    def __str__(self):
        return f"b{self.cond} {self.rs1}, {self.rs2}, .{self.label}"


@dataclass(frozen=True)
class Jump(Instruction):
    """Unconditional jump."""

    label: str
    opclass = OpClass.BRANCH

    def bind(self, state):
        label = self.label

        def execute(state) -> Optional[str]:
            return label

        return execute

    @property
    def label_target(self):
        return self.label

    def __str__(self):
        return f"j .{self.label}"


@dataclass(frozen=True)
class Halt(Instruction):
    """Stop program execution (test harness convention)."""

    opclass = OpClass.HALT

    def execute(self, state) -> Optional[str]:
        state.halt()
        return None

    def __str__(self):
        return "halt"


@dataclass(frozen=True)
class Nop(Instruction):
    opclass = OpClass.NOP

    def execute(self, state) -> Optional[str]:
        return None

    def __str__(self):
        return "nop"
