"""Instruction forms the fuzz lowerings never emit, and the bound vector
classes.

The differential fuzzer checks the ISS on whatever the lowerings emit, and
they emit no ``IntOp`` ``div``, ``sll`` or ``srl``, no F-register integer
operand, no ``x0`` destination and no ``Move``.  Every other operand form
of the scalar classes is checked here against hand-computed values, once
through ``FunctionalSimulator.run()`` (which binds each instruction to
the state once per run) and once through ``inst.execute(state)``.  The
vector classes the paper kernels run most (SVE ``fmla``, predicate
branches and ``ld1r``; UVE MACs, moves, scalar reads and stream
branches) are checked the same way, on full and padded stream chunks
and full and partial predicates.
"""
import dataclasses
import inspect

import numpy as np
import pytest

from repro.common.types import ElementType
from repro.errors import IsaError
from repro.isa import P0, ProgramBuilder, f, p, u, x
from repro.isa import neon_ops, rvv_ops, scalar_ops as sc, sve_ops, uve_ops
from repro.isa.instructions import Instruction
from repro.memory.backing import Memory
from repro.sim.functional import FunctionalSimulator, MachineState
from repro.streams.pattern import Direction

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


# -- Bound vector classes ----------------------------------------------------

F32 = ElementType.F32
#: a 20-element F32 stream: one full 16-lane chunk, then 4 valid lanes
VALUES = np.arange(1, 21, dtype=np.float32)


def vector_states(build, values=VALUES):
    """The state after ``build(base)``'s instructions, where ``base`` is
    the element index of ``values`` in memory, run as a program and
    executed one instruction at a time."""
    states = []
    for as_program in (True, False):
        mem = Memory(1 << 12)
        base = mem.alloc_array(values) // 4
        insts = SETUP + tuple(build(base))
        if as_program:
            b = ProgramBuilder("vector-forms")
            b.emit(*insts, sc.Halt())
            sim = FunctionalSimulator(b.build(), memory=mem)
            sim.run()
            states.append(sim.state)
        else:
            state = MachineState(memory=mem)
            for inst in insts:
                assert inst.execute(state) is None
            states.append(state)
    return states


def load_stream(base, n=len(VALUES)):
    return uve_ops.SsConfig1D(u(1), Direction.LOAD, base, n, 1)


def assert_vec(state, reg, data, valid):
    value = state.read_v(reg, F32)
    assert value.data.tolist() == list(data)
    assert value.valid.tolist() == list(valid)


FULL, TAIL = VALUES[:16], np.concatenate([VALUES[16:], np.zeros(12)])
TAIL_VALID = [True] * 4 + [False] * 12


@pytest.mark.parametrize("same", [False, True], ids=["two", "same"])
def test_so_mac_on_full_and_padded_chunks(same):
    us2 = u(1) if same else u(2)

    def build(base):
        return (
            load_stream(base),
            uve_ops.SoDup(u(2), 2.0),
            uve_ops.SoDup(u(3), 0.5),
            uve_ops.SoMac(u(3), u(1), us2),
            uve_ops.SoMove(u(4), u(3)),
            uve_ops.SoMac(u(4), u(1), us2),
        )

    for state in vector_states(build):
        m1 = FULL if same else 2.0
        first = 0.5 + FULL * m1
        assert_vec(state, u(3), first, [True] * 16)
        # The padded chunk's invalid lanes keep the accumulator.
        m2 = TAIL if same else 2.0
        second = np.where(TAIL_VALID, first + TAIL * m2, first)
        assert_vec(state, u(4), second, [True] * 16)
        assert state.stream_ended(1)


@pytest.mark.parametrize(
    "scalar, factor", [(f(1), 1.5), (x(1), 13.0), (3, 3.0)],
    ids=["f", "x", "imm"],
)
def test_so_mac_scalar(scalar, factor):
    def build(base):
        return (
            load_stream(base),
            uve_ops.SoDup(u(3), 1.0),
            uve_ops.SoMacScalar(u(3), u(1), scalar),
            uve_ops.SoMacScalar(u(3), u(1), scalar),
        )

    for state in vector_states(build):
        first = 1.0 + FULL * np.float32(factor)
        want = np.where(TAIL_VALID, first + TAIL * np.float32(factor), first)
        assert_vec(state, u(3), want.astype(np.float32), [True] * 16)


def test_so_mac_destination_must_not_be_a_stream():
    state = MachineState(memory=Memory(1 << 12))
    base = state.mem.alloc_array(VALUES) // 4
    load_stream(base).execute(state)
    uve_ops.SsConfig1D(u(2), Direction.LOAD, base, 4, 1).execute(state)
    with pytest.raises(IsaError, match="stream-bound"):
        uve_ops.SoMac(u(2), u(1), u(1)).execute(state)
    with pytest.raises(IsaError, match="stream-bound"):
        uve_ops.SoMacScalar(u(2), u(1), 2.0).execute(state)


def test_so_move_consumes_one_chunk_each():
    def build(base):
        return (
            load_stream(base),
            uve_ops.SoMove(u(5), u(1)),
            uve_ops.SoMove(u(6), u(1)),
        )

    for state in vector_states(build):
        assert_vec(state, u(5), FULL, [True] * 16)
        assert_vec(state, u(6), TAIL, TAIL_VALID)


def test_so_scalar_read_converts_per_bank():
    def build(base):
        return (
            load_stream(base, 3),
            uve_ops.SoScalarRead(f(3), u(1)),
            uve_ops.SoScalarRead(x(7), u(1)),
            uve_ops.SoScalarRead(x(0), u(1)),
        )

    for state in vector_states(build, np.array([1.5, 2.75, 9.0], np.float32)):
        assert state.read_f(f(3)) == 1.5
        assert state.read_x(x(7)) == 2
        assert state.xregs[0] == 0
        assert state.stream_ended(1)


def stream_branch_program(branch):
    """A 2 x 3 stream read one element at a time; ``x9`` counts the
    elements before ``branch`` first falls through."""
    mem = Memory(1 << 12)
    base = mem.alloc_array(np.arange(6, dtype=np.float32)) // 4
    b = ProgramBuilder("stream-branch")
    b.emit(
        uve_ops.SsSta(u(1), Direction.LOAD, base, 3, 1),
        uve_ops.SsApp(u(1), 0, 2, 3, last=True),
    )
    b.label("loop")
    b.emit(uve_ops.SoScalarRead(x(8), u(1)), sc.IntOp("add", x(9), x(9), 1))
    b.emit(branch, sc.Halt())
    return b.build(), mem


@pytest.mark.parametrize(
    "branch, count",
    [
        (uve_ops.SoBranchEnd(u(1), "loop"), 6),
        (uve_ops.SoBranchDim(u(1), 0, "loop", complete=False), 3),
        (uve_ops.SoBranchDim(u(1), 1, "loop", complete=False), 6),
    ],
    ids=["nend", "dim0nc", "dim1nc"],
)
def test_stream_branches(branch, count):
    program, mem = stream_branch_program(branch)
    sim = FunctionalSimulator(program, memory=mem)
    sim.run()
    assert sim.state.read_x(x(9)) == count
    assert sim.summary.taken_branches == count - 1


@pytest.mark.parametrize("negate", [True, False])
def test_stream_branch_execute(negate):
    program, mem = stream_branch_program(uve_ops.SoBranchEnd(u(1), "loop"))
    state = MachineState(memory=mem)
    program.instructions[0].execute(state)
    program.instructions[1].execute(state)
    end = uve_ops.SoBranchEnd(u(1), "loop", negate=negate)
    dim0 = uve_ops.SoBranchDim(u(1), 0, "loop", complete=True)
    for i in range(6):
        state.stream_read_scalar(1)
        ended = i == 5
        assert end.execute(state) == ("loop" if ended != negate else None)
        assert dim0.execute(state) == ("loop" if i in (2, 5) else None)


def test_sve_fmla_and_ld1r_under_full_and_partial_predicates():
    def build(base):
        return (
            sc.Li(x(3), base * 4 + 8),  # VALUES[2] == 3.0
            sc.Li(x(4), 0),
            sc.Li(x(10), 5),
            sve_ops.WhileLt(p(1), x(4), x(10), F32),
            sve_ops.Dup(u(2), 2.0, F32),
            sve_ops.Ld1R(u(1), P0, x(3), F32),
            sve_ops.Ld1R(u(4), p(1), x(3), F32),
            sve_ops.Dup(u(5), 1.0, F32),
            sve_ops.Fmla(u(5), P0, u(1), u(2), F32),
            sve_ops.Dup(u(6), 1.0, F32),
            sve_ops.Fmla(u(6), p(1), u(1), u(2), F32),
            sve_ops.Fmla(u(5), p(1), u(4), u(2), F32),
        )

    part = [True] * 5 + [False] * 11
    for state in vector_states(build):
        assert_vec(state, u(1), [3.0] * 16, [True] * 16)
        assert_vec(state, u(4), [3.0] * 16, part)
        assert_vec(state, u(6), [7.0] * 5 + [1.0] * 11, [True] * 16)
        # u5: 1 + 3*2 everywhere, then + 3*2 on the five active lanes.
        assert_vec(state, u(5), [13.0] * 5 + [7.0] * 11, [True] * 16)


@pytest.mark.parametrize("count", [0, 1, 16])
@pytest.mark.parametrize("kind", ["first", "any", "none"])
def test_branch_pred(kind, count):
    taken = (count > 0) if kind != "none" else count == 0
    b = ProgramBuilder("pred-branch")
    b.emit(
        sc.Li(x(4), 0), sc.Li(x(10), count),
        sve_ops.WhileLt(p(2), x(4), x(10), F32),
        sve_ops.BranchPred(kind, p(2), "skip", F32),
        sc.Li(x(9), 1),
    )
    b.label("skip")
    b.emit(sc.Halt())
    sim = FunctionalSimulator(b.build(), memory=Memory(1 << 12))
    sim.run()
    assert sim.state.read_x(x(9)) == (0 if taken else 1)

    state = MachineState(memory=Memory(1 << 12))
    state.write_x(x(10), count)
    sve_ops.WhileLt(p(2), x(4), x(10), F32).execute(state)
    label = sve_ops.BranchPred(kind, p(2), "skip", F32).execute(state)
    assert label == ("skip" if taken else None)


def test_branch_pred_checks_its_kind_at_construction():
    with pytest.raises(IsaError, match="predicate-branch kind"):
        sve_ops.BranchPred("all", p(2), "skip")
