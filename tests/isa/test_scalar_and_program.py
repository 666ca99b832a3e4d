"""Unit tests for scalar-op semantics and Program/ProgramBuilder."""
import numpy as np
import pytest

from repro.common.types import ElementType
from repro.errors import IsaError
from repro.isa import Program, ProgramBuilder, f, x
from repro.isa import scalar_ops as sc
from repro.memory.backing import Memory
from repro.sim.functional import FunctionalSimulator, MachineState


def run_insts(*insts, memory=None):
    b = ProgramBuilder("t")
    b.emit(*insts, sc.Halt())
    sim = FunctionalSimulator(b.build(), memory=memory)
    sim.run()
    return sim.state


class TestScalarSemantics:
    def test_int_ops(self):
        state = run_insts(
            sc.Li(x(1), 7),
            sc.IntOp("add", x(2), x(1), 5),
            sc.IntOp("sub", x(3), x(2), x(1)),
            sc.IntOp("mul", x(4), x(3), 3),
            sc.IntOp("sll", x(5), x(1), 2),
            sc.IntOp("div", x(6), x(1), 2),
        )
        assert state.read_x(x(2)) == 12
        assert state.read_x(x(3)) == 5
        assert state.read_x(x(4)) == 15
        assert state.read_x(x(5)) == 28
        assert state.read_x(x(6)) == 3

    def test_div_by_zero_yields_zero(self):
        state = run_insts(sc.Li(x(1), 7), sc.IntOp("div", x(2), x(1), 0))
        assert state.read_x(x(2)) == 0

    @pytest.mark.parametrize(
        "a, b, quotient",
        [
            # Past 2**53 a quotient taken through a float loses bits.
            (2**53 + 1, 1, 9007199254740993),
            (-(2**60) - 3, 7, -164703072086692425),
            # Truncation toward zero, like RISC-V DIV.
            (7, 2, 3),
            (-7, 2, -3),
            (7, -2, -3),
            (-7, -2, 3),
        ],
    )
    def test_div_is_exact_and_truncates_toward_zero(self, a, b, quotient):
        state = run_insts(
            sc.Li(x(1), a), sc.Li(x(2), b), sc.IntOp("div", x(3), x(1), x(2))
        )
        assert state.read_x(x(3)) == quotient

    def test_x0_hardwired_zero(self):
        state = run_insts(sc.Li(x(0), 99), sc.IntOp("add", x(1), x(0), 1))
        assert state.read_x(x(0)) == 0
        assert state.read_x(x(1)) == 1

    def test_fp_ops_and_fmac(self):
        state = run_insts(
            sc.FLi(f(1), 1.5),
            sc.FOp("mul", f(2), f(1), 4.0),
            sc.FMac(f(2), f(1), f(1)),
            sc.FUnary("sqrt", f(3), f(2)),
        )
        assert state.read_f(f(2)) == pytest.approx(6.0 + 2.25)
        assert state.read_f(f(3)) == pytest.approx(np.sqrt(8.25))

    def test_move_converts_between_banks(self):
        state = run_insts(sc.FLi(f(1), 3.9), sc.Move(x(1), f(1)))
        assert state.read_x(x(1)) == 3
        state = run_insts(sc.Li(x(1), 4), sc.Move(f(1), x(1)))
        assert state.read_f(f(1)) == 4.0

    def test_load_store_widths(self):
        mem = Memory(1 << 16)
        addr = mem.alloc(64)
        state = run_insts(
            sc.Li(x(1), addr),
            sc.Li(x(2), -5),
            sc.Store(x(2), x(1), 0, etype=ElementType.I32),
            sc.Load(x(3), x(1), 0, etype=ElementType.I32),
            memory=mem,
        )
        assert state.read_x(x(3)) == -5

    def test_float_branch_compare(self):
        b = ProgramBuilder("fb")
        b.emit(
            sc.FLi(f(1), 2.0),
            sc.Li(x(1), 0),
            sc.BranchCmp("gt", f(1), 1.0, "skip"),
            sc.Li(x(1), 111),
        )
        b.label("skip")
        b.emit(sc.Halt())
        sim = FunctionalSimulator(b.build())
        sim.run()
        assert sim.state.read_x(x(1)) == 0


class TestProgram:
    def test_duplicate_label_rejected(self):
        b = ProgramBuilder("dup")
        b.label("a")
        with pytest.raises(IsaError, match="duplicate"):
            b.label("a")

    def test_non_instruction_rejected(self):
        b = ProgramBuilder("bad")
        with pytest.raises(IsaError, match="not an instruction"):
            b.emit("nop")

    def test_undefined_branch_target_rejected_at_build(self):
        b = ProgramBuilder("undef")
        b.emit(sc.Jump("nowhere"))
        with pytest.raises(IsaError, match="undefined label"):
            b.build()

    def test_label_at_end_is_valid(self):
        b = ProgramBuilder("end")
        b.emit(sc.BranchCmp("eq", x(1), 0, "done"), sc.Li(x(2), 1))
        b.label("done")
        b.emit(sc.Halt())
        program = b.build()
        assert program.target("done") == 2

    def test_listing_shows_labels_and_instructions(self):
        b = ProgramBuilder("list")
        b.label("start")
        b.emit(sc.Li(x(1), 3), sc.Halt())
        text = b.build().listing()
        assert "start:" in text
        assert "li x1, 3" in text

    def test_len(self):
        b = ProgramBuilder("len")
        b.emit(sc.Nop(), sc.Nop(), sc.Halt())
        assert len(b.build()) == 3


class TestSimulatorDeterminism:
    def test_one_pass_times_the_executed_trace(self):
        """Simulator.run times the trace of its single functional pass,
        so even an in-place kernel with data-dependent branches commits
        in the timing model exactly the instructions it executed."""
        from repro.cpu.config import uve_machine
        from repro.kernels import get_kernel
        from repro.sim.simulator import Simulator

        kernel = get_kernel("floyd-warshall")  # in-place, data-dependent
        wl = kernel.workload(scale=0.3)
        program = kernel.build("uve", wl)
        result = Simulator(program, wl.memory, uve_machine()).run()
        wl.verify()
        assert result.timing.committed == result.summary.committed

    def test_max_steps_guard(self):
        from repro.errors import ExecutionError
        b = ProgramBuilder("inf")
        b.label("loop")
        b.emit(sc.Jump("loop"))
        sim = FunctionalSimulator(b.build(), max_steps=100)
        with pytest.raises(ExecutionError, match="exceeded"):
            sim.run()
