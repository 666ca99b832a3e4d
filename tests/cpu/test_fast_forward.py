"""Event-horizon fast-forward equivalence tests.

The cycle-skipping fast path in :meth:`Pipeline.run` must be invisible:
every counter in :class:`PipelineStats` and every engine statistic
(including the per-cycle sampled ``mean_fifo_occupancy``) has to be
bit-identical with fast-forward on and off, on streaming, load/store-
bound and branchy-scalar workloads alike.
"""
import pytest

from repro.common.types import ElementType
from repro.cpu.config import baseline_machine, default_machine, uve_machine
from repro.engine.engine import StreamingEngine
from repro.isa import ProgramBuilder, f, x
from repro.isa import scalar_ops as sc
from repro.kernels import get_kernel
from repro.memory.backing import Memory
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.simulator import Simulator
from repro.sim.trace import StreamTraceInfo
from repro.streams.pattern import Direction, MemLevel


def _run(program, memory, config):
    """Run and capture everything the equivalence gate compares."""
    result = Simulator(program, memory, config).run()
    engine = result.pipeline.engine
    occupancy = (
        engine.stats.mean_fifo_occupancy if engine is not None else None
    )
    return result.timing.as_dict(), occupancy, result.pipeline.ff_skipped_cycles


def _kernel_run(kernel_name, isa, fast_forward, scale=0.2):
    kernel = get_kernel(kernel_name)
    wl = kernel.workload(seed=0, scale=scale)
    base = default_machine(isa)
    config = base.with_(fast_forward=fast_forward)
    program = kernel.build(isa, wl, config.vector_bits)
    return _run(program, wl.memory, config)


def _branchy_program(iters=300):
    """Scalar loop with a data-dependent branch every iteration."""
    b = ProgramBuilder("branchy")
    b.emit(sc.Li(x(1), 0), sc.Li(x(2), iters), sc.Li(x(3), 0))
    b.label("loop")
    b.emit(
        sc.IntOp("and", x(4), x(1), 3),
        sc.BranchCmp("ne", x(4), 0, "skip"),
        sc.IntOp("add", x(3), x(3), 7),
    )
    b.label("skip")
    b.emit(
        sc.FOp("add", f(1), f(1), 1.0),
        sc.IntOp("add", x(1), x(1), 1),
        sc.BranchCmp("lt", x(1), x(2), "loop"),
    )
    b.emit(sc.Halt())
    return b.build()


class TestStatsEquivalence:
    @pytest.mark.parametrize(
        "kernel_name,isa",
        [
            ("stream", "uve"),  # streaming-engine bound
            ("memcpy", "uve"),
            ("saxpy", "uve"),
            ("memcpy", "sve"),  # load/store bound, no engine
            ("gemm", "sve"),  # 2-D
            ("irsmk", "uve"),  # indirect streams
            ("floyd-warshall", "sve"),  # the starred scalar kernel
        ],
    )
    def test_kernel_stats_identical(self, kernel_name, isa):
        off = _kernel_run(kernel_name, isa, fast_forward=False)
        on = _kernel_run(kernel_name, isa, fast_forward=True)
        assert on[0] == off[0]  # PipelineStats.as_dict()
        assert on[1] == off[1]  # mean_fifo_occupancy
        assert off[2] == 0  # off path must never skip
        assert on[2] > 0  # the fast path actually engaged

    def test_branchy_scalar_stats_identical(self):
        program = _branchy_program()
        off = _run(
            program, Memory(1 << 20),
            baseline_machine().with_(fast_forward=False),
        )
        on = _run(
            program, Memory(1 << 20),
            baseline_machine().with_(fast_forward=True),
        )
        assert on[0] == off[0]
        assert off[2] == 0


class TestEngineSkipIdle:
    def test_skip_idle_matches_ticked_occupancy_sampling(self):
        """N quiescent ticks and one skip_idle(N) must accumulate the
        exact same FIFO-occupancy samples."""
        config = uve_machine()
        hierarchy = MemoryHierarchy(config)
        engine = StreamingEngine(config.engine, hierarchy)
        info = StreamTraceInfo(
            uid=0,
            reg=0,
            direction=Direction.LOAD,
            etype=ElementType.F32,
            mem_level=MemLevel.L2,
            ndims=1,
            storage_bytes=4,
        )
        line = hierarchy.line_bytes
        for chunk in range(config.engine.fifo_depth + 4):
            info.chunks.append([chunk * line])
            info.origin_reads.append([])
            info.chunk_flags.append(0)
        engine.configure(info, 0.0)

        # Tick until the FIFO fills and the engine goes quiescent.
        now = 1.0
        while engine.tick(now):
            now += 1.0
        stream = engine.streams[0]
        assert stream.gen_next - stream.commit_head == config.engine.fifo_depth

        stats = engine.stats
        base = (stats.occupancy_samples, stats.occupancy_total)
        cycles = 50
        for i in range(1, cycles + 1):
            assert not engine.tick(now + i)
        ticked = (
            stats.occupancy_samples - base[0],
            stats.occupancy_total - base[1],
        )
        assert ticked[0] == cycles  # one load stream sampled per cycle

        # Rewind and take the fast path instead.
        stats.occupancy_samples, stats.occupancy_total = base
        engine.skip_idle(cycles)
        skipped = (
            stats.occupancy_samples - base[0],
            stats.occupancy_total - base[1],
        )
        assert skipped == ticked
