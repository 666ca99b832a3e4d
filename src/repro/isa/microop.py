"""Micro-op classification used by the timing model.

Each architectural instruction corresponds to exactly one µOp (the
paper's RISC-style design principle); the :class:`OpClass` determines
which functional unit executes it and with what latency (configured in
:mod:`repro.cpu.config`).
"""
from __future__ import annotations

import enum


class OpClass(enum.Enum):
    # Scalar integer cluster.
    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    # Scalar / vector FP and SIMD cluster (shared FUs, per Table I).
    FP_ALU = "fp_alu"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    FP_MAC = "fp_mac"
    VEC_ALU = "vec_alu"
    VEC_MUL = "vec_mul"
    VEC_MAC = "vec_mac"
    VEC_DIV = "vec_div"
    VEC_RED = "vec_red"  # horizontal reductions
    VEC_MISC = "vec_misc"  # moves, dup, predicate manipulation
    # Memory cluster.
    LOAD = "load"
    STORE = "store"
    VEC_LOAD = "vec_load"
    VEC_STORE = "vec_store"
    GATHER = "gather"
    SCATTER = "scatter"
    # Control.
    BRANCH = "branch"
    # Streaming (executed by rename/commit + Streaming Engine).
    STREAM_CFG = "stream_cfg"
    STREAM_CTL = "stream_ctl"
    # Misc.
    NOP = "nop"
    HALT = "halt"

    # Members are singletons compared by identity, so the identity hash
    # is exact; Enum.__hash__ runs in Python on every dict lookup.
    __hash__ = object.__hash__

    @property
    def is_mem(self) -> bool:
        return self in _MEM

    @property
    def is_load(self) -> bool:
        return self in (OpClass.LOAD, OpClass.VEC_LOAD, OpClass.GATHER)

    @property
    def is_store(self) -> bool:
        return self in (OpClass.STORE, OpClass.VEC_STORE, OpClass.SCATTER)

    @property
    def is_branch(self) -> bool:
        return self is OpClass.BRANCH

    @property
    def is_vector(self) -> bool:
        return self in _VECTOR

    @property
    def cluster(self) -> "FuCluster":
        return _CLUSTER[self]


class FuCluster(enum.Enum):
    """Functional-unit cluster an op issues to (Table I)."""

    INT = "int"  # 2x Int ALUs
    FP = "fp"  # 2x Int-vector/FP FUs
    MEM = "mem"  # 2x load + 1x store ports
    NONE = "none"  # handled outside the execution clusters

    __hash__ = object.__hash__  # identity, as OpClass


_MEM = {
    OpClass.LOAD,
    OpClass.STORE,
    OpClass.VEC_LOAD,
    OpClass.VEC_STORE,
    OpClass.GATHER,
    OpClass.SCATTER,
}

_VECTOR = {
    OpClass.VEC_ALU,
    OpClass.VEC_MUL,
    OpClass.VEC_MAC,
    OpClass.VEC_DIV,
    OpClass.VEC_RED,
    OpClass.VEC_MISC,
    OpClass.VEC_LOAD,
    OpClass.VEC_STORE,
    OpClass.GATHER,
    OpClass.SCATTER,
}

_CLUSTER = {
    OpClass.INT_ALU: FuCluster.INT,
    OpClass.INT_MUL: FuCluster.INT,
    OpClass.INT_DIV: FuCluster.INT,
    OpClass.FP_ALU: FuCluster.FP,
    OpClass.FP_MUL: FuCluster.FP,
    OpClass.FP_DIV: FuCluster.FP,
    OpClass.FP_MAC: FuCluster.FP,
    OpClass.VEC_ALU: FuCluster.FP,
    OpClass.VEC_MUL: FuCluster.FP,
    OpClass.VEC_MAC: FuCluster.FP,
    OpClass.VEC_DIV: FuCluster.FP,
    OpClass.VEC_RED: FuCluster.FP,
    OpClass.VEC_MISC: FuCluster.FP,
    OpClass.LOAD: FuCluster.MEM,
    OpClass.STORE: FuCluster.MEM,
    OpClass.VEC_LOAD: FuCluster.MEM,
    OpClass.VEC_STORE: FuCluster.MEM,
    OpClass.GATHER: FuCluster.MEM,
    OpClass.SCATTER: FuCluster.MEM,
    OpClass.BRANCH: FuCluster.INT,
    OpClass.STREAM_CFG: FuCluster.NONE,
    OpClass.STREAM_CTL: FuCluster.NONE,
    OpClass.NOP: FuCluster.NONE,
    OpClass.HALT: FuCluster.NONE,
}
