"""UVE instruction set (paper §III).

Stream configuration (``ss.*``) instructions build descriptor patterns
dimension-by-dimension; streaming compute (``so.*``) instructions operate
on vector registers, implicitly consuming from / producing to the streams
bound to them (features F1/F4); stream branches implement the paper's
end-of-stream and end-of-dimension loop control (F5); control
instructions suspend/resume/stop streams.

O/E/S configuration operands accept scalar registers (the architectural
form) or Python immediates (an assembler convenience that only shortens
the one-time loop preamble, never the measured loop bodies).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.types import ElementType
from repro.errors import IsaError
from repro.isa import semantics
from repro.isa.instructions import Instruction, Operand, operand_regs
from repro.isa.microop import OpClass
from repro.isa.registers import P0, Reg, RegClass
from repro.isa.vector import VecValue
from repro.streams.descriptor import (
    IndirectBehavior,
    Param,
    StaticBehavior,
)
from repro.streams.pattern import Direction, MemLevel


def _check_vec(reg: Reg, what: str) -> None:
    if reg.cls is not RegClass.V:
        raise IsaError(f"{what} must be a u-register, got {reg}")


# ---------------------------------------------------------------------------
# Stream configuration (ss.ld / ss.st / ss.sta / ss.app / ss.end, §III-B)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SsConfig1D(Instruction):
    """``ss.{ld|st}.<w>``: configure a complete 1-D stream in one
    instruction."""

    u: Reg
    direction: Direction
    offset: Operand
    size: Operand
    stride: Operand = 1
    etype: ElementType = ElementType.F32
    mem_level: MemLevel = MemLevel.L2

    def __post_init__(self) -> None:
        _check_vec(self.u, "stream register")

    opclass = OpClass.STREAM_CFG

    def execute(self, state) -> Optional[str]:
        state.stream_begin(self.u.index, self.direction, self.etype, self.mem_level)
        state.stream_dim(
            self.u.index,
            state.value_int(self.offset),
            state.value_int(self.size),
            state.value_int(self.stride),
        )
        state.stream_finish(self.u.index)
        return None

    @property
    def dests(self):
        return (self.u,)

    @property
    def srcs(self):
        return operand_regs(self.offset, self.size, self.stride)

    def __str__(self):
        kind = "ld" if self.direction is Direction.LOAD else "st"
        return (
            f"ss.{kind}.{self.etype.suffix} {self.u}, {self.offset}, "
            f"{self.size}, {self.stride}"
        )


@dataclass(frozen=True)
class SsSta(Instruction):
    """``ss.{ld|st}.sta.<w>``: start a multi-dimensional stream
    configuration with its dimension-0 descriptor."""

    u: Reg
    direction: Direction
    offset: Operand
    size: Operand
    stride: Operand = 1
    etype: ElementType = ElementType.F32
    mem_level: MemLevel = MemLevel.L2

    def __post_init__(self) -> None:
        _check_vec(self.u, "stream register")

    opclass = OpClass.STREAM_CFG

    def execute(self, state) -> Optional[str]:
        state.stream_begin(self.u.index, self.direction, self.etype, self.mem_level)
        state.stream_dim(
            self.u.index,
            state.value_int(self.offset),
            state.value_int(self.size),
            state.value_int(self.stride),
        )
        return None

    @property
    def dests(self):
        return (self.u,)

    @property
    def srcs(self):
        return operand_regs(self.offset, self.size, self.stride)

    def __str__(self):
        kind = "ld" if self.direction is Direction.LOAD else "st"
        return (
            f"ss.{kind}.sta.{self.etype.suffix} {self.u}, {self.offset}, "
            f"{self.size}, {self.stride}"
        )


@dataclass(frozen=True)
class SsApp(Instruction):
    """``ss.app`` / ``ss.end``: append a dimension descriptor; with
    ``last=True`` it also completes the configuration."""

    u: Reg
    offset: Operand
    size: Operand
    stride: Operand
    last: bool = False

    def __post_init__(self) -> None:
        _check_vec(self.u, "stream register")

    opclass = OpClass.STREAM_CFG

    def execute(self, state) -> Optional[str]:
        state.stream_dim(
            self.u.index,
            state.value_int(self.offset),
            state.value_int(self.size),
            state.value_int(self.stride),
        )
        if self.last:
            state.stream_finish(self.u.index)
        return None

    @property
    def dests(self):
        return (self.u,)

    @property
    def srcs(self):
        return operand_regs(self.offset, self.size, self.stride)

    def __str__(self):
        name = "ss.end" if self.last else "ss.app"
        return f"{name} {self.u}, {self.offset}, {self.size}, {self.stride}"


@dataclass(frozen=True)
class SsAppMod(Instruction):
    """``ss.app.mod`` / ``ss.end.mod``: attach a static modifier to the
    most recently appended dimension (targeting the dimension below)."""

    u: Reg
    target: Param
    behavior: StaticBehavior
    displacement: Operand
    count: Operand
    last: bool = False

    def __post_init__(self) -> None:
        _check_vec(self.u, "stream register")

    opclass = OpClass.STREAM_CFG

    def execute(self, state) -> Optional[str]:
        state.stream_static_mod(
            self.u.index,
            self.target,
            self.behavior,
            state.value_int(self.displacement),
            state.value_int(self.count),
        )
        if self.last:
            state.stream_finish(self.u.index)
        return None

    @property
    def dests(self):
        return (self.u,)

    @property
    def srcs(self):
        return operand_regs(self.displacement, self.count)

    def __str__(self):
        name = "ss.end.mod" if self.last else "ss.app.mod"
        return (
            f"{name} {self.u}, {self.target.value}, {self.behavior.value}, "
            f"{self.displacement}, {self.count}"
        )


@dataclass(frozen=True)
class SsAppInd(Instruction):
    """``ss.app.ind`` / ``ss.end.ind``: attach an indirect modifier whose
    origin is the stream configured on ``origin`` (which becomes
    engine-internal and can no longer be consumed by the core)."""

    u: Reg
    target: Param
    behavior: IndirectBehavior
    origin: Reg
    last: bool = False

    def __post_init__(self) -> None:
        _check_vec(self.u, "stream register")
        _check_vec(self.origin, "origin stream register")

    opclass = OpClass.STREAM_CFG

    def execute(self, state) -> Optional[str]:
        state.stream_indirect_mod(
            self.u.index, self.target, self.behavior, self.origin.index
        )
        if self.last:
            state.stream_finish(self.u.index)
        return None

    @property
    def dests(self):
        return (self.u,)

    @property
    def srcs(self):
        return (self.origin,)

    def __str__(self):
        name = "ss.end.ind" if self.last else "ss.app.ind"
        return (
            f"{name} {self.u}, {self.target.value}, {self.behavior.value}, "
            f"{self.origin}"
        )


# ---------------------------------------------------------------------------
# Stream control (ss.suspend / ss.resume / ss.stop)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SsCtl(Instruction):
    """Stream control: ``kind`` in {``suspend``, ``resume``, ``stop``}."""

    kind: str
    u: Reg
    opclass = OpClass.STREAM_CTL

    def __post_init__(self) -> None:
        _check_vec(self.u, "stream register")
        if self.kind not in ("suspend", "resume", "stop"):
            raise IsaError(f"unknown stream-control kind {self.kind!r}")

    def execute(self, state) -> Optional[str]:
        state.stream_control(self.u.index, self.kind)
        return None

    @property
    def dests(self):
        return (self.u,)

    def __str__(self):
        return f"ss.{self.kind} {self.u}"


# ---------------------------------------------------------------------------
# Streaming compute (so.*)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoDup(Instruction):
    """``so.v.dup.<w>``: broadcast a scalar to all vector elements."""

    ud: Reg
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
        state.write_operand(self.ud, VecValue(data, np.ones(lanes, dtype=bool)), self.etype)
        return None

    @property
    def dests(self):
        return (self.ud,)

    @property
    def srcs(self):
        return operand_regs(self.src)

    def __str__(self):
        return f"so.v.dup.{self.etype.suffix} {self.ud}, {self.src}"


class _StreamAwareCompute(Instruction):
    """Shared machinery for compute ops with stream-aware operands."""

    pred: Reg = P0

    def _read_sources(self, state, etype, *regs):
        """Read operand registers, consuming each bound stream once."""
        values = {}
        for reg in regs:
            if reg not in values:
                values[reg] = state.read_operand(reg, etype)
        return [values[reg] for reg in regs]


@dataclass(frozen=True)
class SoOp(_StreamAwareCompute):
    """``so.a.<op>.fp``: element-wise op with implicit stream load/store."""

    op: str
    ud: Reg
    us1: Reg
    us2: Reg
    etype: ElementType = ElementType.F32
    pred: Reg = P0

    def __post_init__(self) -> None:
        semantics.binary(self.op)

    @property
    def opclass(self):  # type: ignore[override]
        return semantics.vector_opclass(self.op)

    def execute(self, state) -> Optional[str]:
        a, b = self._read_sources(state, self.etype, self.us1, self.us2)
        mask = state.read_pred(self.pred, state.lanes(self.etype))
        with np.errstate(divide="ignore", invalid="ignore"):
            result = semantics.binary(self.op)(a.data, b.data)
        # Lanes the Streaming Engine disabled (stream padding) act as a
        # false predicate: where only one operand is valid, its value
        # passes through unchanged (merging semantics).
        both = a.valid & b.valid
        merged = np.where(both, result, np.where(a.valid, a.data, b.data))
        valid = (a.valid | b.valid) & mask
        state.write_operand(
            self.ud, VecValue(merged.astype(self.etype.dtype), valid), self.etype
        )
        return None

    @property
    def dests(self):
        return (self.ud,)

    @property
    def srcs(self):
        extra = (self.pred,) if self.pred != P0 else ()
        return (self.us1, self.us2) + extra

    def __str__(self):
        return f"so.a.{self.op}.fp {self.ud}, {self.us1}, {self.us2}"


@dataclass(frozen=True)
class SoOpScalar(_StreamAwareCompute):
    """Vector-scalar op: ``ud = us1 <op> scalar`` (scalar reg or imm)."""

    op: str
    ud: Reg
    us1: Reg
    scalar: Operand
    etype: ElementType = ElementType.F32
    pred: Reg = P0

    def __post_init__(self) -> None:
        semantics.binary(self.op)

    @property
    def opclass(self):  # type: ignore[override]
        return semantics.vector_opclass(self.op)

    def execute(self, state) -> Optional[str]:
        (a,) = self._read_sources(state, self.etype, self.us1)
        if isinstance(self.scalar, Reg):
            if self.scalar.cls is RegClass.F:
                s = state.read_f(self.scalar)
            else:
                s = state.read_x(self.scalar)
        else:
            s = self.scalar
        mask = state.read_pred(self.pred, state.lanes(self.etype))
        with np.errstate(divide="ignore", invalid="ignore"):
            result = semantics.binary(self.op)(a.data, self.etype.dtype.type(s))
        valid = a.valid & mask
        state.write_operand(
            self.ud, VecValue(result.astype(self.etype.dtype), valid), self.etype
        )
        return None

    @property
    def dests(self):
        return (self.ud,)

    @property
    def srcs(self):
        extra = (self.pred,) if self.pred != P0 else ()
        return (self.us1,) + operand_regs(self.scalar) + extra

    def __str__(self):
        return f"so.a.{self.op}.sc {self.ud}, {self.us1}, {self.scalar}"


@dataclass(frozen=True)
class SoMac(_StreamAwareCompute):
    """``so.a.mac.fp``: ``ud += us1 * us2`` (``ud`` must be a plain
    register — a stream cannot be simultaneously read and written,
    see the Fig. 4 caption)."""

    ud: Reg
    us1: Reg
    us2: Reg
    etype: ElementType = ElementType.F32
    pred: Reg = P0
    opclass = OpClass.VEC_MAC

    def execute(self, state) -> Optional[str]:
        if state.is_stream(self.ud.index):
            raise IsaError(
                f"so.a.mac destination {self.ud} is stream-bound; a stream "
                "cannot operate in both read and write modes"
            )
        a, b = self._read_sources(state, self.etype, self.us1, self.us2)
        acc = state.read_v(self.ud, self.etype)
        mask = state.read_pred(self.pred, state.lanes(self.etype))
        active = a.valid & b.valid & mask
        data = np.where(active, acc.data + a.data * b.data, acc.data)
        valid = acc.valid | active
        state.write_v(
            self.ud, VecValue(data.astype(self.etype.dtype), valid), self.etype
        )
        return None

    @property
    def dests(self):
        return (self.ud,)

    @property
    def srcs(self):
        extra = (self.pred,) if self.pred != P0 else ()
        return (self.ud, self.us1, self.us2) + extra

    def __str__(self):
        return f"so.a.mac.fp {self.ud}, {self.us1}, {self.us2}"


@dataclass(frozen=True)
class SoMacScalar(_StreamAwareCompute):
    """``so.a.mac.sc``: ``ud += us1 * scalar`` (vector MAC with a scalar
    multiplier; ``ud`` must be a plain register)."""

    ud: Reg
    us1: Reg
    scalar: Operand
    etype: ElementType = ElementType.F32
    pred: Reg = P0
    opclass = OpClass.VEC_MAC

    def execute(self, state) -> Optional[str]:
        if state.is_stream(self.ud.index):
            raise IsaError(
                f"so.a.mac.sc destination {self.ud} is stream-bound; a "
                "stream cannot operate in both read and write modes"
            )
        (a,) = self._read_sources(state, self.etype, self.us1)
        if isinstance(self.scalar, Reg):
            if self.scalar.cls is RegClass.F:
                s = state.read_f(self.scalar)
            else:
                s = state.read_x(self.scalar)
        else:
            s = self.scalar
        acc = state.read_v(self.ud, self.etype)
        mask = state.read_pred(self.pred, state.lanes(self.etype))
        active = a.valid & mask
        data = np.where(
            active, acc.data + a.data * self.etype.dtype.type(s), acc.data
        )
        valid = acc.valid | active
        state.write_v(
            self.ud, VecValue(data.astype(self.etype.dtype), valid), self.etype
        )
        return None

    @property
    def dests(self):
        return (self.ud,)

    @property
    def srcs(self):
        extra = (self.pred,) if self.pred != P0 else ()
        return (self.ud, self.us1) + operand_regs(self.scalar) + extra

    def __str__(self):
        return f"so.a.mac.sc {self.ud}, {self.us1}, {self.scalar}"


@dataclass(frozen=True)
class SoUnary(_StreamAwareCompute):
    """``so.a.<op>.u``: element-wise unary op with stream-aware source."""

    op: str
    ud: Reg
    us: Reg
    etype: ElementType = ElementType.F32
    pred: Reg = P0

    def __post_init__(self) -> None:
        semantics.unary(self.op)

    @property
    def opclass(self):  # type: ignore[override]
        return OpClass.VEC_DIV if self.op == "sqrt" else OpClass.VEC_ALU

    def execute(self, state) -> Optional[str]:
        (a,) = self._read_sources(state, self.etype, self.us)
        mask = state.read_pred(self.pred, state.lanes(self.etype))
        with np.errstate(invalid="ignore"):
            result = semantics.unary(self.op)(a.data)
        valid = a.valid & mask
        state.write_operand(
            self.ud, VecValue(result.astype(self.etype.dtype), valid), self.etype
        )
        return None

    @property
    def dests(self):
        return (self.ud,)

    @property
    def srcs(self):
        extra = (self.pred,) if self.pred != P0 else ()
        return (self.us,) + extra

    def __str__(self):
        return f"so.a.{self.op}.u {self.ud}, {self.us}"


@dataclass(frozen=True)
class SoMove(_StreamAwareCompute):
    """``so.v.mv``: vector move (consumes a stream chunk when the source
    is stream-bound — Fig. 2's ``vectormove``)."""

    ud: Reg
    us: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MISC

    def execute(self, state) -> Optional[str]:
        (a,) = self._read_sources(state, self.etype, self.us)
        state.write_operand(self.ud, a, self.etype)
        return None

    @property
    def dests(self):
        return (self.ud,)

    @property
    def srcs(self):
        return (self.us,)

    def __str__(self):
        return f"so.v.mv {self.ud}, {self.us}"


@dataclass(frozen=True)
class SoRed(_StreamAwareCompute):
    """``so.r.<op>``: horizontal reduction over valid lanes, producing a
    single element (into lane 0 of a register, or one element of an
    output stream — Fig. 2's ``horizontal_max``)."""

    op: str
    ud: Reg
    us: Reg
    etype: ElementType = ElementType.F32
    pred: Reg = P0

    def __post_init__(self) -> None:
        semantics.reduce_fn(self.op)

    opclass = OpClass.VEC_RED

    def execute(self, state) -> Optional[str]:
        (a,) = self._read_sources(state, self.etype, self.us)
        mask = state.read_pred(self.pred, state.lanes(self.etype))
        active = a.data[a.valid & mask]
        result = semantics.reduce_fn(self.op)(active) if len(active) else 0
        if state.is_stream(self.ud.index):
            state.stream_write_scalar(self.ud.index, result)
        else:
            lanes = state.lanes(self.etype)
            data = np.zeros(lanes, dtype=self.etype.dtype)
            data[0] = result
            valid = np.zeros(lanes, dtype=bool)
            valid[0] = True
            state.write_v(self.ud, VecValue(data, valid), self.etype)
        return None

    @property
    def dests(self):
        return (self.ud,)

    @property
    def srcs(self):
        extra = (self.pred,) if self.pred != P0 else ()
        return (self.us,) + extra

    def __str__(self):
        return f"so.r.{self.op} {self.ud}, {self.us}"


@dataclass(frozen=True)
class SoRedScalar(_StreamAwareCompute):
    """Horizontal reduction into a scalar register."""

    op: str
    rd: Reg
    us: Reg
    etype: ElementType = ElementType.F32
    pred: Reg = P0

    def __post_init__(self) -> None:
        semantics.reduce_fn(self.op)

    opclass = OpClass.VEC_RED

    def execute(self, state) -> Optional[str]:
        (a,) = self._read_sources(state, self.etype, self.us)
        mask = state.read_pred(self.pred, state.lanes(self.etype))
        active = a.data[a.valid & mask]
        result = semantics.reduce_fn(self.op)(active) if len(active) else 0
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
        extra = (self.pred,) if self.pred != P0 else ()
        return (self.us,) + extra

    def __str__(self):
        return f"so.r.{self.op}.sc {self.rd}, {self.us}"


@dataclass(frozen=True)
class SoScalarRead(Instruction):
    """Vector-to-scalar: pop one element from a stream into a scalar
    register (element-wise shift consumption, §III-B *Scalar processing*)."""

    rd: Reg
    us: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MISC

    def execute(self, state) -> Optional[str]:
        value = state.stream_read_scalar(self.us.index)
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
        return (self.us,)

    def __str__(self):
        return f"so.v.tosc {self.rd}, {self.us}"


@dataclass(frozen=True)
class SoScalarWrite(Instruction):
    """Scalar-to-vector: push one scalar element to an output stream."""

    us: Reg
    src: Operand
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MISC

    def execute(self, state) -> Optional[str]:
        if isinstance(self.src, Reg):
            if self.src.cls is RegClass.F:
                value = state.read_f(self.src)
            else:
                value = state.read_x(self.src)
        else:
            value = self.src
        state.stream_write_scalar(self.us.index, value)
        return None

    @property
    def dests(self):
        return (self.us,)

    @property
    def srcs(self):
        return operand_regs(self.src)

    def __str__(self):
        return f"so.v.fromsc {self.us}, {self.src}"


# ---------------------------------------------------------------------------
# Predication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoPredComp(_StreamAwareCompute):
    """Vector compare into a predicate register."""

    cond: str
    pd: Reg
    us1: Reg
    us2: Reg
    etype: ElementType = ElementType.F32

    def __post_init__(self) -> None:
        semantics.compare(self.cond)

    opclass = OpClass.VEC_MISC

    def execute(self, state) -> Optional[str]:
        a, b = self._read_sources(state, self.etype, self.us1, self.us2)
        mask = semantics.compare(self.cond)(a.data, b.data) & a.valid & b.valid
        state.write_pred(self.pd, mask)
        return None

    @property
    def dests(self):
        return (self.pd,)

    @property
    def srcs(self):
        return (self.us1, self.us2)

    def __str__(self):
        return f"so.p.{self.cond} {self.pd}, {self.us1}, {self.us2}"


@dataclass(frozen=True)
class SoPredNot(Instruction):
    """Element-wise predicate negation."""

    pd: Reg
    ps: Reg
    etype: ElementType = ElementType.F32
    opclass = OpClass.VEC_MISC

    def execute(self, state) -> Optional[str]:
        mask = state.read_pred(self.ps, state.lanes(self.etype))
        state.write_pred(self.pd, ~mask)
        return None

    @property
    def dests(self):
        return (self.pd,)

    @property
    def srcs(self):
        return (self.ps,)

    def __str__(self):
        return f"so.p.not {self.pd}, {self.ps}"


# ---------------------------------------------------------------------------
# Stream branches (loop control, §III-B)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoBranchEnd(Instruction):
    """``so.b.end`` / ``so.b.nend``: branch on (not-)end-of-stream."""

    u: Reg
    label: str
    negate: bool = True  # default: branch while NOT ended (loop back)
    opclass = OpClass.BRANCH

    def execute(self, state) -> Optional[str]:
        ended = state.stream_ended(self.u.index)
        taken = (not ended) if self.negate else ended
        return self.label if taken else None

    @property
    def srcs(self):
        return (self.u,)

    @property
    def label_target(self):
        return self.label

    def __str__(self):
        kind = "nend" if self.negate else "end"
        return f"so.b.{kind} {self.u}, .{self.label}"


@dataclass(frozen=True)
class SoBranchDim(Instruction):
    """``so.b.dim<k>[.n]c``: branch on (not-)completion of dimension *k*
    at the last consumed/produced chunk of the stream."""

    u: Reg
    dim: int
    label: str
    complete: bool = True
    opclass = OpClass.BRANCH

    def execute(self, state) -> Optional[str]:
        done = state.stream_dim_complete(self.u.index, self.dim)
        taken = done if self.complete else not done
        return self.label if taken else None

    @property
    def srcs(self):
        return (self.u,)

    @property
    def label_target(self):
        return self.label

    def __str__(self):
        kind = "c" if self.complete else "nc"
        return f"so.b.dim{self.dim}{kind} {self.u}, .{self.label}"


# ---------------------------------------------------------------------------
# Advanced control (getvl/setvl) and legacy vector memory ops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoGetVl(Instruction):
    """``ss.getvl``: read the current vector length (in elements)."""

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
        return f"ss.getvl {self.rd}"


@dataclass(frozen=True)
class SoSetVl(Instruction):
    """``ss.setvl``: request a vector length in elements; the machine
    grants ``min(request, hardware lanes)`` (cf. RVV ``vsetvli``)."""

    rd: Reg
    request: Operand
    etype: ElementType = ElementType.F32
    opclass = OpClass.INT_ALU

    def execute(self, state) -> Optional[str]:
        granted = state.set_vl(state.value_int(self.request), self.etype)
        state.write_x(self.rd, granted)
        return None

    @property
    def dests(self):
        return (self.rd,)

    @property
    def srcs(self):
        return operand_regs(self.request)

    def __str__(self):
        return f"ss.setvl {self.rd}, {self.request}"


@dataclass(frozen=True)
class SsLoadVec(Instruction):
    """Legacy (non-streaming) vector load with post-increment
    (``ss.load``, §III-B: kept in the ISA for non-streamable accesses)."""

    ud: Reg
    base: Reg
    etype: ElementType = ElementType.F32
    post_inc: bool = True
    opclass = OpClass.VEC_LOAD

    def execute(self, state) -> Optional[str]:
        lanes = state.lanes(self.etype)
        width = self.etype.width
        start = state.read_x(self.base)
        data = state.mem.read_block(start, lanes, self.etype)
        state.record_mem_read(range(start, start + lanes * width, width))
        state.write_v(self.ud, VecValue(data, np.ones(lanes, dtype=bool)), self.etype)
        if self.post_inc:
            state.write_x(self.base, start + lanes * width)
        return None

    @property
    def dests(self):
        return (self.ud, self.base) if self.post_inc else (self.ud,)

    @property
    def early_dests(self):
        return (self.base,) if self.post_inc else ()

    @property
    def srcs(self):
        return (self.base,)

    def __str__(self):
        return f"ss.load.{self.etype.suffix} {self.ud}, ({self.base})"


@dataclass(frozen=True)
class SsStoreVec(Instruction):
    """Legacy (non-streaming) vector store with post-increment."""

    us: Reg
    base: Reg
    etype: ElementType = ElementType.F32
    post_inc: bool = True
    opclass = OpClass.VEC_STORE

    def execute(self, state) -> Optional[str]:
        lanes = state.lanes(self.etype)
        width = self.etype.width
        start = state.read_x(self.base)
        value = state.read_v(self.us, self.etype)
        state.mem.write_block(start, value.data[:lanes])
        state.record_mem_write(range(start, start + lanes * width, width))
        if self.post_inc:
            state.write_x(self.base, start + lanes * width)
        return None

    @property
    def dests(self):
        return (self.base,) if self.post_inc else ()

    @property
    def early_dests(self):
        return (self.base,) if self.post_inc else ()

    @property
    def srcs(self):
        return (self.us, self.base)

    def __str__(self):
        return f"ss.store.{self.etype.suffix} {self.us}, ({self.base})"
