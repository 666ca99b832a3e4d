"""The timing model decodes each static instruction once per Pipeline.

Latencies and MAC accumulator forwarding are per config, and the bench
harness, the fast-path tests and latency sweeps replay one recorded
trace (the same Instruction and DynOp objects) under several configs.
A decode cached on the instruction, the dynamic op or a module global
would time one config with another's latencies.
"""
from dataclasses import replace

import pytest

from repro.harness import bench
from repro.isa.microop import OpClass

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
    mat = bench.materialize(kernel, isa, scale=SCALE)
    configs = {"default": mat.config, "mac": slow_forwarding_macs(mat.config)}
    stats = {}
    for name in order:
        pipeline = bench.fresh_pipeline(mat, configs[name])
        stats[name] = pipeline.run(iter(mat.trace)).as_dict()
    return stats


@pytest.mark.parametrize("kernel,isa", [("gemm", "sve"), ("gemm", "uve")])
def test_each_config_times_alike_in_either_order(kernel, isa):
    forward = replay_in_order(kernel, isa, ("default", "mac"))
    backward = replay_in_order(kernel, isa, ("mac", "default"))
    assert forward == backward
    assert forward["default"] != forward["mac"]
