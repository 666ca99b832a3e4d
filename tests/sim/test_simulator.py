"""Unit tests for the combined Simulator (one recorded pass, then timing)."""
import numpy as np

from repro.cpu.config import baseline_machine, uve_machine
from repro.isa import ProgramBuilder, f, u, x
from repro.isa import scalar_ops as sc
from repro.isa import uve_ops as uve
from repro.isa.microop import OpClass
from repro.memory.backing import Memory
from repro.sim.simulator import SimulationResult, Simulator
from repro.streams.pattern import Direction


def scale_program(mem, n=256):
    data = mem.alloc_array(np.arange(n, dtype=np.float32))
    b = ProgramBuilder("scale")
    b.emit(
        uve.SsConfig1D(u(0), Direction.LOAD, data // 4, n, 1),
        uve.SsConfig1D(u(1), Direction.STORE, data // 4, n, 1),
        sc.FLi(f(0), 2.0),
        uve.SoDup(u(2), f(0)),
    )
    b.label("loop")
    b.emit(
        uve.SoOp("mul", u(1), u(0), u(2)),
        uve.SoBranchEnd(u(0), "loop", negate=True),
        sc.Halt(),
    )
    return b.build(), data


class TestOnePassSimulation:
    """Simulator.run executes the program once and times the trace and
    stream metadata of that same execution."""

    def test_in_place_kernel_executes_once(self):
        """The in-place scale kernel runs exactly once: the final memory
        equals a single sequential run, not the data scaled twice."""
        mem = Memory(1 << 20)
        program, data = scale_program(mem)
        Simulator(program, mem, uve_machine()).run()
        got = mem.ndarray(data, (256,), np.float32)
        np.testing.assert_array_equal(got, 2.0 * np.arange(256))

    def test_result_properties(self):
        mem = Memory(1 << 20)
        program, _ = scale_program(mem)
        result = Simulator(program, mem, uve_machine()).run()
        assert isinstance(result, SimulationResult)
        assert result.committed > 0
        assert result.cycles > 0
        assert result.ipc == result.committed / result.cycles
        assert 0 <= result.bus_utilization <= 1
        assert 0 <= result.rename_blocks_per_cycle <= 1
        assert result.program == "scale"

    def test_warm_flag_changes_timing_not_results(self):
        cold_mem = Memory(1 << 20)
        cold_prog, cold_data = scale_program(cold_mem)
        cold = Simulator(cold_prog, cold_mem, uve_machine(), warm=False).run()

        warm_mem = Memory(1 << 20)
        warm_prog, warm_data = scale_program(warm_mem)
        warm = Simulator(warm_prog, warm_mem, uve_machine(), warm=True).run()

        assert cold.committed == warm.committed
        assert cold.cycles > warm.cycles  # cold misses go to DRAM
        np.testing.assert_array_equal(
            cold_mem.ndarray(cold_data, (256,), np.float32),
            warm_mem.ndarray(warm_data, (256,), np.float32),
        )

    def test_default_config_is_uve(self):
        mem = Memory(1 << 20)
        program, _ = scale_program(mem)
        result = Simulator(program, mem).run()
        assert result.pipeline.engine is not None


class TestResultExport:
    def test_to_dict_is_json_serialisable(self):
        import json
        mem = Memory(1 << 20)
        program, _ = scale_program(mem)
        result = Simulator(program, mem, uve_machine()).run()
        payload = result.to_dict()
        text = json.dumps(payload)  # must not raise
        assert payload["program"] == "scale"
        assert payload["engine"]["chunks_filled"] > 0
        assert "rename_block_causes" in payload

    def test_baseline_export_has_no_engine(self):
        b = ProgramBuilder("tiny")
        b.emit(sc.Li(x(1), 1), sc.Halt())
        result = Simulator(b.build(), Memory(1 << 16),
                           baseline_machine()).run()
        assert "engine" not in result.to_dict()
