"""The timing model decodes each static instruction once per Pipeline.

Latencies and MAC accumulator forwarding are per config, and the
campaign executor, the fuzz oracle and the fast-path tests time one
recording (the same Instruction and DynOp objects) under several
configs.  A decode cached on the instruction, the dynamic op or a module
global would time one config with another's latencies.
"""
from dataclasses import replace

import pytest

from repro.cpu.config import default_machine
from repro.isa.microop import OpClass
from repro.sim.simulator import record_kernel

SCALE = 0.1


def slow_forwarding_macs(config):
    """``config`` with slower MACs that forward their accumulator."""
    latencies = dict(config.latencies)
    latencies[OpClass.VEC_MAC] += 3
    latencies[OpClass.FP_MAC] += 3
    return config.with_(
        core=replace(config.core, mac_forwarding=True), latencies=latencies
    )


def replay_in_order(kernel, isa, order):
    """Build the kernel afresh, record its trace once and replay it under
    each named config in ``order``; returns name -> PipelineStats dict."""
    config = default_machine(isa)
    recording, _ = record_kernel(kernel, isa, config.vector_bits, scale=SCALE)
    configs = {"default": config, "mac": slow_forwarding_macs(config)}
    return {
        name: recording.time(configs[name]).timing.as_dict()
        for name in order
    }


@pytest.mark.parametrize("kernel,isa", [("gemm", "sve"), ("gemm", "uve")])
def test_each_config_times_alike_in_either_order(kernel, isa):
    forward = replay_in_order(kernel, isa, ("default", "mac"))
    backward = replay_in_order(kernel, isa, ("mac", "default"))
    assert forward == backward
    assert forward["default"] != forward["mac"]
