"""Tests for the debug/introspection helpers."""
import numpy as np

from repro.cpu.config import uve_machine
from repro.isa.assembler import assemble
from repro.kernels import get_kernel
from repro.memory.backing import Memory
from repro.sim.debug import functional_trace, pipeline_timeline, stream_report
from repro.sim.functional import FunctionalSimulator
from repro.sim.simulator import Simulator


def make_saxpy(n=64):
    mem = Memory(1 << 20)
    xs = mem.alloc_array(np.arange(n, dtype=np.float32))
    ys = mem.alloc_array(np.ones(n, dtype=np.float32))
    source = f"""
        ss.ld.w     u0, {xs // 4}, {n}, 1
        ss.ld.w     u1, {ys // 4}, {n}, 1
        ss.st.w     u2, {ys // 4}, {n}, 1
        fli         f0, 2.0
        so.v.dup.fw u3, f0
    loop:
        so.a.mul.fp u4, u3, u0
        so.a.add.fp u2, u4, u1
        so.b.nend   u0, loop
        halt
    """
    return assemble(source, "saxpy"), mem


class TestFunctionalTrace:
    def test_shows_stream_events_and_branches(self):
        program, mem = make_saxpy()
        text = functional_trace(program, mem, limit=20)
        assert "consume u0#0" in text
        assert "produce u2#0" in text
        assert "taken" in text

    def test_marks_each_branch_outcome(self):
        """64 elements at 16 lanes: the loop branch is taken three times,
        then falls through; no other instruction carries an outcome."""
        program, mem = make_saxpy()
        lines = functional_trace(program, mem, vector_bits=512).splitlines()
        outcomes = [line.split()[-1] for line in lines if "so.b.nend" in line]
        assert outcomes == ["taken", "taken", "taken", "not-taken"]
        assert not any(
            line.endswith("taken") for line in lines if "so.b.nend" not in line
        )

    def test_truncates_at_limit(self):
        program, mem = make_saxpy()
        text = functional_trace(program, mem, limit=5)
        assert "truncated" in text

    def test_scalar_memory_ops_shown(self):
        from repro.isa import ProgramBuilder, x
        from repro.isa import scalar_ops as sc
        mem = Memory(1 << 16)
        addr = mem.alloc(64)
        b = ProgramBuilder("m")
        b.emit(sc.Li(x(1), addr), sc.Load(x(2), x(1), 0), sc.Halt())
        text = functional_trace(b.build(), mem)
        assert f"R[{addr:#x}]" in text


class TestPipelineTimeline:
    def test_orders_rename_issue_commit(self):
        program, mem = make_saxpy()
        text = pipeline_timeline(program, mem, count=12)
        assert "rename" in text and "commit" in text
        assert "total:" in text
        # Each populated row must have rename <= issue <= commit.
        for line in text.splitlines()[2:-1]:
            cols = line.split()
            if len(cols) >= 3 and cols[-1] != "-" and cols[-2] != "-":
                rename, issue, commit = (
                    float(cols[-3]), float(cols[-2]), float(cols[-1])
                )
                assert rename <= issue <= commit

    def test_total_matches_simulator_run(self):
        """The timeline times the same warmed hierarchy as Simulator.run,
        so its total is the run's cycle count."""
        kernel = get_kernel("saxpy")
        cfg = uve_machine()

        def saxpy_kernel():
            wl = kernel.workload(seed=0, scale=0.2)
            return kernel.build("uve", wl, cfg.vector_bits), wl.memory

        text = pipeline_timeline(*saxpy_kernel(), cfg)
        cycles = Simulator(*saxpy_kernel(), cfg).run().cycles
        assert text.splitlines()[-1].startswith(f"total: {cycles:.0f} cycles")


class TestStreamReport:
    def test_lists_all_streams(self):
        program, mem = make_saxpy()
        sim = FunctionalSimulator(program, memory=mem)
        summary = sim.run()
        text = stream_report(summary)
        assert text.count("load") == 2
        assert text.count("store") == 1
