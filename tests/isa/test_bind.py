"""Scalar instruction forms the fuzz lowerings never emit.

The differential fuzzer checks the ISS on whatever the lowerings emit, and
they emit no ``IntOp`` ``div``, ``sll`` or ``srl``, no F-register integer
operand, no ``x0`` destination and no ``Move``.  Every other operand form
of the scalar classes is checked here against hand-computed values, once
through ``FunctionalSimulator.run()`` (which binds each instruction to
the state once per run) and once through ``inst.execute(state)``.
"""
import dataclasses
import inspect

import pytest

from repro.common.types import ElementType
from repro.isa import ProgramBuilder, f, x
from repro.isa import neon_ops, rvv_ops, scalar_ops as sc, sve_ops, uve_ops
from repro.isa.instructions import Instruction
from repro.memory.backing import Memory
from repro.sim.functional import FunctionalSimulator, MachineState

#: x1 = 13, x2 = 3, f1 = 1.5, f2 = 3.75, x5 = BASE, x6 = OFFSET
BASE, OFFSET = 256, 16
SETUP = (
    sc.Li(x(1), 13),
    sc.Li(x(2), 3),
    sc.FLi(f(1), 1.5),
    sc.FLi(f(2), 3.75),
    sc.Li(x(5), BASE),
    sc.Li(x(6), OFFSET),
)


def final_states(*insts):
    """The state after SETUP and ``insts``, run as a program and executed
    one instruction at a time."""
    b = ProgramBuilder("forms")
    b.emit(*SETUP, *insts, sc.Halt())
    sim = FunctionalSimulator(b.build(), memory=Memory(1 << 12))
    sim.run()
    state = MachineState(memory=Memory(1 << 12))
    for inst in SETUP + insts:
        assert inst.execute(state) is None
    return sim.state, state


# 13 <op> 3 by hand; an F-register rs2 (f2 = 3.75) reads as int 3.
INT_RESULTS = {
    "add": 16, "sub": 10, "mul": 39, "div": 4, "min": 3, "max": 13,
    "and": 1, "or": 15, "xor": 14, "sll": 104, "srl": 1,
}


@pytest.mark.parametrize("rd", [x(7), x(0)], ids=["rd", "x0"])
@pytest.mark.parametrize("rs2", [x(2), f(2), 3], ids=["x", "f", "imm"])
@pytest.mark.parametrize("op", sorted(INT_RESULTS))
def test_int_op(op, rs2, rd):
    for state in final_states(sc.IntOp(op, rd, x(1), rs2)):
        want = INT_RESULTS[op] if rd.index else 0
        assert state.read_x(rd) == want
        assert state.xregs[0] == 0
        assert state.read_x(x(1)) == 13


@pytest.mark.parametrize(
    "op, rs2, want",
    [("add", x(2), 4.5), ("mul", 2, 3.0), ("add", f(2), 5.25)],
    ids=["x", "imm", "f"],
)
def test_fp_op(op, rs2, want):
    for state in final_states(sc.FOp(op, f(3), f(1), rs2)):
        assert state.read_f(f(3)) == want


@pytest.mark.parametrize("offset", [x(6), OFFSET], ids=["reg", "imm"])
def test_fp_store_and_load(offset):
    insts = (
        sc.FLi(f(3), 2.5),
        sc.Store(f(3), x(5), offset, ElementType.F64),
        sc.Load(f(4), x(5), offset, ElementType.F64),
        sc.Load(x(7), x(5), offset, ElementType.F64),  # int(2.5)
        sc.Store(f(1), x(5), x(2), ElementType.F32),  # unaligned: BASE + 3
        sc.Load(f(5), x(5), x(2), ElementType.F32),
    )
    for state in final_states(*insts):
        assert state.read_f(f(4)) == 2.5
        assert state.read_x(x(7)) == 2
        assert state.read_f(f(5)) == 1.5
        assert state.mem.read_scalar(BASE + OFFSET, ElementType.F64) == 2.5


def test_integer_memory_into_fp_register():
    insts = (
        sc.Li(x(8), -5),
        sc.Store(x(8), x(5), x(6), ElementType.I32),
        sc.Load(f(3), x(5), x(6), ElementType.I32),
        sc.Load(x(0), x(5), x(6), ElementType.I32),
    )
    for state in final_states(*insts):
        assert state.read_f(f(3)) == -5.0
        assert state.xregs[0] == 0


def test_load_records_its_address():
    b = ProgramBuilder("ld")
    b.emit(*SETUP, sc.Load(f(3), x(5), x(6), ElementType.F64), sc.Halt())
    ops = list(FunctionalSimulator(b.build(), memory=Memory(1 << 12)).trace())
    assert ops[len(SETUP)].mem_reads == (BASE + OFFSET,)


BRANCHES = [
    # (cond, rs1, rs2, taken): x1 = 13, x2 = 3, f1 = 1.5, f2 = 3.75
    ("lt", f(1), f(2), True),
    ("gt", f(1), f(2), False),
    ("lt", f(1), 1.0, False),
    ("ge", f(1), 1.5, True),
    ("lt", f(1), x(2), True),  # X register read as float 3.0
    ("ge", x(1), x(2), True),
    ("lt", x(1), x(2), False),
    ("eq", x(1), 13, True),
    ("ne", x(1), 13, False),
    ("eq", x(2), f(2), True),  # F register read as int 3
]


@pytest.mark.parametrize("cond, rs1, rs2, taken", BRANCHES)
def test_branch_compare(cond, rs1, rs2, taken):
    b = ProgramBuilder("br")
    b.emit(*SETUP, sc.BranchCmp(cond, rs1, rs2, "skip"), sc.Li(x(9), 1))
    b.label("skip")
    b.emit(sc.Halt())
    sim = FunctionalSimulator(b.build(), memory=Memory(1 << 12))
    sim.run()
    assert sim.state.read_x(x(9)) == (0 if taken else 1)
    assert sim.summary.taken_branches == int(taken)

    state = MachineState(memory=Memory(1 << 12))
    for inst in SETUP:
        inst.execute(state)
    label = sc.BranchCmp(cond, rs1, rs2, "skip").execute(state)
    assert label == ("skip" if taken else None)


def test_move_both_ways():
    insts = (
        sc.FLi(f(3), 3.9),
        sc.Move(x(7), f(3)),
        sc.Move(f(4), x(1)),
        sc.Move(x(0), f(3)),
    )
    for state in final_states(*insts):
        assert state.read_x(x(7)) == 3
        assert state.read_f(f(4)) == 13.0
        assert state.xregs[0] == 0


def _instruction_classes():
    modules = (sc, sve_ops, neon_ops, uve_ops, rvv_ops)
    return sorted(
        {
            cls
            for module in modules
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, Instruction) and dataclasses.is_dataclass(cls)
        },
        key=lambda cls: cls.__qualname__,
    )


@pytest.mark.parametrize(
    "cls", _instruction_classes(), ids=lambda cls: cls.__name__
)
def test_class_implements_execute_or_bind(cls):
    """Instruction.execute calls bind and Instruction.bind returns
    execute, so a class must override exactly one of them: neither
    recurses, both would be two implementations of one semantic."""
    overrides = [
        name
        for name in ("execute", "bind")
        if getattr(cls, name) is not getattr(Instruction, name)
    ]
    assert len(overrides) == 1, overrides
