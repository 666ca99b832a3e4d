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
from repro.isa.instructions import Instruction, Operand, operand_regs
from repro.isa.microop import OpClass
from repro.isa.registers import Reg, RegClass


def _check_class(reg: Reg, cls: RegClass, what: str) -> None:
    if reg.cls is not cls:
        raise IsaError(f"{what} must be an {cls.value}-register, got {reg}")


@dataclass(frozen=True)
class Li(Instruction):
    """Load integer immediate: ``rd = imm``."""

    rd: Reg
    imm: int
    opclass = OpClass.INT_ALU

    def execute(self, state) -> Optional[str]:
        state.write_x(self.rd, int(self.imm))
        return None

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

    def execute(self, state) -> Optional[str]:
        state.write_f(self.fd, float(self.value))
        return None

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

    def execute(self, state) -> Optional[str]:
        a = state.read_x(self.rs1)
        b = state.value_int(self.rs2)
        if self.op == "div":
            # RISC-V semantics: division never traps (x/0 yields a
            # defined value; we use 0 for simplicity).
            result = int(a / b) if b else 0
        else:
            result = semantics.binary(self.op)(a, b)
        state.write_x(self.rd, int(result))
        return None

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

    def execute(self, state) -> Optional[str]:
        a = state.read_f(self.fs1)
        b = state.value_float(self.fs2)
        state.write_f(self.fd, float(semantics.binary(self.op)(a, b)))
        return None

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

    def execute(self, state) -> Optional[str]:
        addr = state.read_x(self.base) + state.value_int(self.offset)
        value = state.mem.read_scalar(addr, self.etype)
        state.record_mem_read([addr])
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

    def execute(self, state) -> Optional[str]:
        addr = state.read_x(self.base) + state.value_int(self.offset)
        if self.rs.cls is RegClass.F:
            value = state.read_f(self.rs)
        else:
            value = state.read_x(self.rs)
        state.mem.write_scalar(addr, value, self.etype)
        state.record_mem_write([addr])
        return None

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

    def execute(self, state) -> Optional[str]:
        if self.rs1.cls is RegClass.F:
            a = state.read_f(self.rs1)
            b = state.value_float(self.rs2)
        else:
            a = state.read_x(self.rs1)
            b = state.value_int(self.rs2)
        return self.label if semantics.compare(self.cond)(a, b) else None

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

    def execute(self, state) -> Optional[str]:
        return self.label

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
