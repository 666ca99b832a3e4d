"""A timing run that cannot progress stops at once and says why.

``Pipeline.run`` raises ``SimulationError`` once no instruction has
committed for ``stall_limit(config)`` cycles, a bound derived from the
config that no working run comes near.  The test wedges a run with an
engine that never fills a chunk: the ROB head waits forever on a stream
chunk, with ``fast_forward`` on and off.
"""
import numpy as np
import pytest

from repro.cpu.config import baseline_machine, uve_machine
from repro.cpu.pipeline import Pipeline, stall_limit
from repro.engine.engine import StreamingEngine
from repro.errors import SimulationError
from repro.isa import ProgramBuilder, f, u
from repro.isa import scalar_ops as sc
from repro.isa import uve_ops as uve
from repro.memory.backing import Memory
from repro.sim.simulator import Simulator
from repro.streams.pattern import Direction

from tests.cpu.test_unrecorded_chunk import deadline


def sum_program(mem, n=64):
    src = mem.alloc_array(np.arange(n, dtype=np.float32))
    b = ProgramBuilder("stream-sum")
    b.emit(
        uve.SsConfig1D(u(1), Direction.LOAD, src // 4, n, 1),
        uve.SoDup(u(2), 0.0),
    )
    b.label("loop")
    b.emit(
        uve.SoOp("add", u(2), u(2), u(1)),
        uve.SoBranchEnd(u(1), "loop"),
        uve.SoRedScalar("add", f(1), u(2)),
        sc.Halt(),
    )
    return b.build()


@pytest.mark.parametrize("fast_forward", [True, False], ids=["ff", "no-ff"])
def test_engine_that_never_fills_raises_within_a_second(
    monkeypatch, fast_forward
):
    monkeypatch.setattr(
        StreamingEngine, "_generate", lambda self, stream, module, now: False
    )
    mem = Memory(1 << 20)
    cfg = uve_machine(fast_forward=fast_forward)
    with deadline(1.0), pytest.raises(SimulationError) as err:
        Simulator(sum_program(mem), mem, cfg).run()
    lines = str(err.value).splitlines()
    # The configuration and the so.v.dup commit at cycle 4.
    assert lines[0] == (
        f"timing run wedged: no instruction committed for "
        f"{stall_limit(cfg)} cycles (cycle {4 + stall_limit(cfg) + 1})"
    )
    assert lines[1] == (
        "ROB head: seq 2, pc 2 (so.a.add.fp u2, u2, u1), "
        "waiting on stream uid 0 chunk 0"
    )
    assert lines[2:] == [
        "engine stream uid 0 (u1): num_chunks 4, gen_next 0, commit_head 0"
    ]


def test_wedged_fast_forward_stops_computing_horizons(monkeypatch):
    """Once a quiescent cycle finds no known event, nothing can change
    until a stage progresses, so the wedged run steps its 81,216 cycles
    without recomputing the event horizon on each of them."""
    monkeypatch.setattr(
        StreamingEngine, "_generate", lambda self, stream, module, now: False
    )
    calls = []
    horizon = Pipeline._event_horizon

    def counting(self, now):
        calls.append(now)
        return horizon(self, now)

    monkeypatch.setattr(Pipeline, "_event_horizon", counting)
    mem = Memory(1 << 20)
    with pytest.raises(SimulationError):
        Simulator(sum_program(mem), mem, uve_machine()).run()
    # The last commit is at cycle 4; the watchdog fires 81,216 cycles on.
    after_last_commit = [now for now in calls if now > 4]
    assert 0 < len(after_last_commit) <= 5, calls[:10]


def test_working_runs_stay_far_below_the_limit():
    """The largest gap between commits of a paper kernel at full scale
    is about 200 cycles (docs/TIMING.md); the limit is over 100x that."""
    for cfg in (uve_machine(), baseline_machine()):
        assert stall_limit(cfg) > 100 * 206


def test_limit_follows_the_config():
    slow = baseline_machine()
    slower = baseline_machine(dram=type(slow.dram)(access_latency=280))
    assert stall_limit(slower) - stall_limit(slow) == (
        (slow.core.rob_entries + slow.core.sq_entries) * 140
    )
    assert Pipeline(slow).stall_limit == stall_limit(slow)
