"""Exact timing golden for the Streaming Engine's non-default machines.

``timing_golden.json`` pins the default machines only.  This golden
(``engine_config_golden.json``, scale 0.1, seed 0) pins the same fields
(``timing_fields``) for every UVE run of Fig. 10 (FIFO depths 2-12),
Fig. 11 (L1/L2/DRAM stream levels) and ext-shared-fifo (the pooled
FIFO), plus the round-robin scheduler and 1 and 4 processing modules on
saxpy, jacobi-2d, irsmk and knn — each with ``fast_forward`` on and off.
An engine refactor must leave it unchanged; a deliberate model change
regenerates it and shows the per-field diff for review::

    PYTHONPATH=src python tests/integration/test_engine_config_golden.py
"""
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.cpu.config import EngineConfig, uve_machine
from repro.harness import EXPERIMENTS
from repro.harness.runner import Runner
from repro.kernels import get_kernel
from repro.sim.simulator import Simulator

# The repository root, so the regenerate script can import its sibling.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
from tests.integration.test_timing_all_kernels import (  # noqa: E402
    field_diffs,
    timing_fields,
)

SCALE = 0.1
GOLDEN_PATH = Path(__file__).with_name("engine_config_golden.json")
#: figures whose RunSpecs vary the engine
EXPERIMENT_IDS = ("fig10", "fig11", "ext-shared-fifo")
#: kernels the ablation configs run on: 1-D, 2-D, indirect and many-stream
ABLATION_KERNELS = ("saxpy", "jacobi-2d", "irsmk", "knn")
ABLATION_ENGINES = (
    {"scheduler_policy": "round-robin"},
    {"processing_modules": 1},
    {"processing_modules": 4},
)


def engine_label(engine: EngineConfig) -> str:
    """The engine fields that differ from Table I's, as ``name=value``."""
    default = EngineConfig()
    diffs = [
        f"{f.name}={getattr(engine, f.name)}"
        for f in fields(EngineConfig)
        if getattr(engine, f.name) != getattr(default, f.name)
    ]
    return ",".join(diffs) or "default"


def golden_runs() -> dict:
    """``run name -> MachineConfig`` of every pinned run."""
    runner = Runner(scale=SCALE)
    runs = {}
    for exp in EXPERIMENT_IDS:
        for spec in EXPERIMENTS[exp].specs(runner):
            cfg = spec.resolved_config()
            assert cfg.with_(engine=EngineConfig()) == uve_machine(), spec
            runs[f"{spec.kernel}/{spec.isa}/{engine_label(cfg.engine)}"] = cfg
    base = uve_machine()
    for name in ABLATION_KERNELS:
        for change in ABLATION_ENGINES:
            cfg = base.with_(engine=replace(base.engine, **change))
            runs[f"{name}/uve/{engine_label(cfg.engine)}"] = cfg
    return runs


def simulate(run: str, cfg) -> dict:
    name = run.split("/")[0]
    kernel = get_kernel(name)
    wl = kernel.workload(seed=0, scale=SCALE)
    program = kernel.build("uve", wl, cfg.vector_bits)
    result = Simulator(program, wl.memory, cfg).run()
    wl.verify()
    return timing_fields(result.committed, result.pipeline)


RUNS = golden_runs()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_run(golden):
    assert set(golden) == set(RUNS)


@pytest.mark.parametrize("fast_forward", (True, False), ids=("ff", "no-ff"))
@pytest.mark.parametrize("run", sorted(RUNS))
def test_engine_config_matches_golden(golden, run, fast_forward):
    got = simulate(run, RUNS[run].with_(fast_forward=fast_forward))
    diffs = field_diffs(golden[run], got)
    assert not diffs, (
        f"{run} (fast_forward={fast_forward}) diverged from "
        f"{GOLDEN_PATH.name}:\n"
        + "\n".join(f"  {f}: golden {w!r}, got {g!r}" for f, w, g in diffs)
    )


def regenerate() -> int:
    """Re-simulate every run, print the per-field diff against the
    committed golden and rewrite it."""
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    new = {run: simulate(run, cfg) for run, cfg in RUNS.items()}
    changed = 0
    for run in sorted(set(old) | set(new)):
        for field, was, now in field_diffs(old.get(run, {}), new.get(run, {})):
            print(f"{run} {field}: {was!r} -> {now!r}")
            changed += 1
    lines = [
        f"{json.dumps(run)}: {json.dumps(new[run], sort_keys=True)}"
        for run in sorted(new)
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{GOLDEN_PATH.name}: {len(new)} runs, {changed} field(s) changed")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
