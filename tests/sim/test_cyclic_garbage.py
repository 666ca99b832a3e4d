"""A simulation leaves no reference cycle through its state.

The functional simulator binds each executed instruction to the run's
``MachineState`` and ``Memory``.  If a closure held by one of those
objects referred back to it (say, a cached memory accessor capturing its
``Memory``), every state and its memory image would outlive the run
until the cyclic collector happened to run, and peak memory would grow
with the number of runs.  With automatic collection off, a run's state
must be freed by reference counting alone.
"""
import gc

from repro.cpu.config import default_machine
from repro.fuzz.generator import generate_spec
from repro.fuzz.oracle import run_case
from repro.kernels import get_kernel
from repro.memory.backing import Memory
from repro.sim.functional import MachineState
from repro.sim.simulator import Simulator


def _simulate_saxpy(isa):
    kernel = get_kernel("saxpy")
    wl = kernel.workload(seed=0, scale=0.1)
    config = default_machine(isa)
    result = Simulator(kernel.build(isa, wl), wl.memory, config).run()
    assert result.committed > 0


def _fuzz_case(index):
    report = run_case(generate_spec(1, index), check_timing=True)
    assert report.ok, report.failures


def test_runs_leave_no_cyclic_state():
    gc.collect()
    debug = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[:]
        for isa in ("uve", "sve", "neon"):
            _simulate_saxpy(isa)
        for index in range(3):
            _fuzz_case(index)
        gc.collect()
        leaked = [
            type(obj).__name__
            for obj in gc.garbage
            if isinstance(obj, (Memory, MachineState))
        ]
    finally:
        del gc.garbage[:]
        gc.set_debug(debug)
        gc.enable()
    assert leaked == []
