"""Instruction base class and operand helpers.

Every concrete instruction implements functional semantics in
``execute(state)`` or ``bind(state)`` (the *state* protocol is provided by
:class:`repro.sim.functional.MachineState`) and exposes the architectural
registers it reads/writes so the timing model can track dependencies.
``execute`` returns a label name when the instruction is a taken branch,
else ``None``.

``bind(state)`` returns a callable of the state that executes the
instruction: everything static about it (register indices, converted
immediates, the semantic function, the state's register lists) is
decided once, and only what can change between executions is read on
each call.  The functional simulator binds each pc once per run.  A class
implements one of the two methods; each default calls the other.
"""
from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.isa.microop import OpClass
from repro.isa.registers import Reg, RegClass

#: A scalar operand: an architectural register or an immediate.
Operand = Union[Reg, int, float]

#: A bound instruction: executes against the state it was bound to.
Bound = Callable[[object], Optional[str]]


def operand_regs(*operands: Operand) -> Tuple[Reg, ...]:
    """The register operands among ``operands`` (immediates dropped)."""
    return tuple(op for op in operands if isinstance(op, Reg))


class _Converted:
    """A register bank read through a conversion: an F register in an
    integer context, or an X register in a floating-point one."""

    __slots__ = ("regs", "convert")

    def __init__(self, regs: List, convert: Callable) -> None:
        self.regs = regs
        self.convert = convert

    def __getitem__(self, index: int):
        return self.convert(self.regs[index])


# Operand binding.  Each helper returns ``(values, i)``: ``values[i]`` is
# the operand's value at run time.  A register binds to its bank (``x0``
# reads 0 because it is never written), an immediate to a one-element
# tuple holding the value already converted.


def int_source(state, operand: Operand) -> Tuple[Sequence, int]:
    """Where ``state.value_int(operand)`` is read from."""
    if isinstance(operand, Reg):
        if operand.cls is RegClass.F:
            return _Converted(state.fregs, int), operand.index
        return state.xregs, operand.index
    return (int(operand),), 0


def float_source(state, operand: Operand) -> Tuple[Sequence, int]:
    """Where ``state.value_float(operand)`` is read from."""
    if isinstance(operand, Reg):
        if operand.cls is RegClass.F:
            return state.fregs, operand.index
        return _Converted(state.xregs, float), operand.index
    return (float(operand),), 0


def raw_source(state, operand: Operand) -> Tuple[Sequence, int]:
    """An F register, an X register or an immediate, unconverted."""
    if isinstance(operand, Reg):
        if operand.cls is RegClass.F:
            return state.fregs, operand.index
        return state.xregs, operand.index
    return (operand,), 0


def x_dest(state, reg: Reg) -> Tuple[List, int]:
    """Where ``state.write_x(reg, ...)`` stores: the X bank, or for ``x0``
    a private list, so ``x0`` is never written."""
    return (state.xregs if reg.index else [0]), reg.index


def scalar_dest(state, reg: Reg) -> Tuple[List, int, Callable]:
    """``(regs, i, convert)`` for a result written to an F register as a
    float or to an X register as an int."""
    if reg.cls is RegClass.F:
        return state.fregs, reg.index, float
    return x_dest(state, reg) + (int,)


class Instruction:
    """One architectural instruction (= one µOp, paper §III design)."""

    #: Functional-unit class; concrete classes set or compute this.
    opclass: OpClass = OpClass.NOP

    def execute(self, state) -> Optional[str]:
        """Apply semantics to ``state``; return taken-branch label or None."""
        return self.bind(state)(state)

    def bind(self, state) -> Bound:
        """A callable of ``state`` that does what :meth:`execute` does.

        It may keep references to ``state``'s register lists and memory,
        which are never rebound, so it is valid for that state only."""
        return self.execute

    @property
    def dests(self) -> Tuple[Reg, ...]:
        """Architectural registers written."""
        return ()

    @property
    def srcs(self) -> Tuple[Reg, ...]:
        """Architectural registers read."""
        return ()

    @property
    def early_dests(self) -> Tuple[Reg, ...]:
        """Destinations produced in the first execute cycle (e.g. the
        post-incremented base register of a load), available to
        dependents before the op's full completion."""
        return ()

    @property
    def label_target(self) -> Optional[str]:
        """Branch-target label, if this is a control instruction."""
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"

    def __str__(self) -> str:  # pragma: no cover - overridden by subclasses
        return type(self).__name__.lower()
