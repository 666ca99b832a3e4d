"""Record once, time many: one recording timed under several configs.

The functional pass depends only on the program, the memory image and
the vector width, so the campaign executor and the fuzz oracle time one
recording under every config that shares it.  Each timing must equal a
fresh ``Simulator.run`` under the same config, field for field, in any
order: nothing a timing run does may leak into the recording or into
the next timing.
"""
from dataclasses import replace

import pytest

from repro.cpu.config import default_machine, uve_machine
from repro.errors import ConfigError
from repro.kernels import all_kernels, get_kernel
from repro.sim.simulator import Simulator, record_kernel

from tests.cpu.test_decode_table import slow_forwarding_macs
from tests.integration.test_timing_all_kernels import field_diffs, timing_fields

KERNELS = [k.name for k in all_kernels()]
SCALE = 0.1


def configs_for(isa):
    """fast_forward on (the default) and off, MAC forwarding, and on the
    UVE core a smaller engine."""
    base = default_machine(isa)
    configs = {
        "default": base,
        "no-ff": base.with_(fast_forward=False),
        "mac": slow_forwarding_macs(base),
    }
    if isa == "uve":
        configs["engine"] = base.with_(
            engine=replace(base.engine, fifo_depth=4, processing_modules=1)
        )
    return configs


def fresh_run(name, isa, config):
    kernel = get_kernel(name)
    wl = kernel.workload(seed=0, scale=SCALE)
    program = kernel.build(isa, wl, config.vector_bits)
    return Simulator(program, wl.memory, config).run()


@pytest.mark.parametrize("isa", ["uve", "sve", "neon"])
@pytest.mark.parametrize("name", KERNELS)
def test_one_recording_times_like_fresh_runs(name, isa):
    configs = configs_for(isa)
    vector_bits = configs["default"].vector_bits
    recording, wl = record_kernel(name, isa, vector_bits, scale=SCALE)
    wl.verify()
    # Time the shared recording in reverse order, so a state leak from
    # one timing into the next cannot line up with the fresh runs.
    shared = {
        label: recording.time(configs[label]) for label in reversed(configs)
    }
    for label, config in configs.items():
        fresh = fresh_run(name, isa, config)
        got = shared[label]
        diffs = field_diffs(
            timing_fields(fresh.committed, fresh.pipeline),
            timing_fields(got.committed, got.pipeline),
        )
        assert not diffs, f"{name}/{isa} under {label}: {diffs}"
        assert got.pipeline.ff_skipped_cycles == (
            fresh.pipeline.ff_skipped_cycles
        )


def test_timing_under_another_vector_width_raises():
    recording, _ = record_kernel("saxpy", "uve", 512, scale=SCALE)
    with pytest.raises(ConfigError, match="512-bit vectors"):
        recording.time(uve_machine(vector_bits=256))
    with pytest.raises(ConfigError, match="256-bit config"):
        recording.pipeline(uve_machine(vector_bits=256))
