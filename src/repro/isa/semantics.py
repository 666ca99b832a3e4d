"""Shared element-wise operator semantics.

All three vector ISAs (UVE, SVE-like, NEON-like) and the scalar base ISA
compute through this table, so numerical behaviour is identical across
ISAs by construction — differences between ISAs are purely architectural
(instruction counts, predication, streaming).
"""
from __future__ import annotations

import operator
from typing import Callable, Dict

import numpy as np

from repro.errors import IsaError
from repro.isa.microop import OpClass

#: Binary element-wise operators: (a, b) -> result, numpy-broadcastable.
#: The ``operator`` functions are the Python operators (``a + b`` ...).
BINARY_OPS: Dict[str, Callable] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "min": np.minimum,
    "max": np.maximum,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "sll": operator.lshift,
    "srl": operator.rshift,
}

#: Unary element-wise operators.
UNARY_OPS: Dict[str, Callable] = {
    "neg": operator.neg,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "not": operator.invert,
    "mov": lambda a: a,
}

#: Reduction operators: vector -> scalar.
REDUCE_OPS: Dict[str, Callable] = {
    "add": np.sum,
    "min": np.min,
    "max": np.max,
    "mul": np.prod,
}

#: Comparison operators (predicate generation).
COMPARE_OPS: Dict[str, Callable] = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}

#: OpClass of a binary vector operator (for FU selection / latency).
_VEC_CLASS = {
    "mul": OpClass.VEC_MUL,
    "div": OpClass.VEC_DIV,
}

_FP_CLASS = {
    "mul": OpClass.FP_MUL,
    "div": OpClass.FP_DIV,
}

_INT_CLASS = {
    "mul": OpClass.INT_MUL,
    "div": OpClass.INT_DIV,
}


def binary(op: str) -> Callable:
    try:
        return BINARY_OPS[op]
    except KeyError:
        raise IsaError(f"unknown binary operator {op!r}") from None


def unary(op: str) -> Callable:
    try:
        return UNARY_OPS[op]
    except KeyError:
        raise IsaError(f"unknown unary operator {op!r}") from None


def reduce_fn(op: str) -> Callable:
    try:
        return REDUCE_OPS[op]
    except KeyError:
        raise IsaError(f"unknown reduction operator {op!r}") from None


def compare(op: str) -> Callable:
    try:
        return COMPARE_OPS[op]
    except KeyError:
        raise IsaError(f"unknown comparison operator {op!r}") from None


def vector_opclass(op: str) -> OpClass:
    return _VEC_CLASS.get(op, OpClass.VEC_ALU)


def scalar_fp_opclass(op: str) -> OpClass:
    return _FP_CLASS.get(op, OpClass.FP_ALU)


def scalar_int_opclass(op: str) -> OpClass:
    return _INT_CLASS.get(op, OpClass.INT_ALU)
