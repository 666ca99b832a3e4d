"""Timing-model integration: every kernel runs through the full
functional+timing Simulator at reduced scale, with sanity invariants
and an exact timing golden.

The golden (``timing_golden.json``, scale 0.2, seed 0) pins every
``PipelineStats`` counter, the committed instructions, the Streaming
Engine counters, the L1D/L2 accesses and misses and the DRAM bytes of
every paper kernel on UVE, SVE and NEON, with ``fast_forward`` on and
off.  A refactor of the simulator must leave it unchanged; a deliberate
model change regenerates it and shows the per-field diff for review::

    PYTHONPATH=src python tests/integration/test_timing_all_kernels.py
"""
import json
import sys
from pathlib import Path

import pytest

from repro.cpu.config import default_machine
from repro.kernels import all_kernels, get_kernel
from repro.sim.simulator import Simulator, record_kernel

KERNELS = [k.name for k in all_kernels()]
ISAS = ("uve", "sve", "neon")
SCALE = 0.2
GOLDEN_PATH = Path(__file__).with_name("timing_golden.json")


def simulate_all():
    results = {}
    for name in KERNELS:
        kernel = get_kernel(name)
        for isa in ISAS:
            cfg = default_machine(isa)
            wl = kernel.workload(seed=0, scale=SCALE)
            program = kernel.build(isa, wl, cfg.vector_bits)
            result = Simulator(program, wl.memory, cfg).run()
            wl.verify()
            results[(name, isa)] = result
    return results


def timing_fields(committed: int, pipeline) -> dict:
    """The golden's fields of one timed run, flattened to dotted names."""
    hierarchy = pipeline.hierarchy
    fields = {"committed": committed}
    for key, value in pipeline.stats.as_dict().items():
        if isinstance(value, dict):
            for cause, count in value.items():
                fields[f"pipeline.{key}.{cause}"] = count
        else:
            fields[f"pipeline.{key}"] = value
    for level in ("l1d", "l2"):
        stats = getattr(hierarchy, level).stats
        fields[f"{level}.accesses"] = stats.accesses
        fields[f"{level}.misses"] = stats.misses
    fields["dram.bytes"] = hierarchy.dram.total_bytes
    engine = pipeline.engine
    if engine is not None:
        for key in ("configs", "line_requests", "chunks_filled",
                    "store_lines", "mean_fifo_occupancy"):
            fields[f"engine.{key}"] = getattr(engine.stats, key)
    return fields


def field_diffs(want: dict, got: dict) -> list:
    """``(field, golden value, simulated value)`` for every field that
    differs; a field missing on one side reads as None."""
    return [
        (field, want.get(field), got.get(field))
        for field in sorted(set(want) | set(got))
        if want.get(field) != got.get(field)
    ]


@pytest.fixture(scope="module")
def timing_results():
    return simulate_all()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_kernel_and_isa(golden):
    assert set(golden) == {f"{k}/{isa}" for k in KERNELS for isa in ISAS}


def assert_matches_golden(golden, run: str, fields: dict, how: str = "") -> None:
    diffs = field_diffs(golden[run], fields)
    assert not diffs, f"{run}{how} diverged from {GOLDEN_PATH.name}:\n" + (
        "\n".join(f"  {f}: golden {w!r}, got {g!r}" for f, w, g in diffs)
    )


@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("name", KERNELS)
def test_timing_matches_golden(timing_results, golden, name, isa):
    result = timing_results[(name, isa)]
    assert_matches_golden(
        golden, f"{name}/{isa}", timing_fields(result.committed, result.pipeline)
    )


@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("name", KERNELS)
def test_fast_paths_match_golden(golden, name, isa):
    """fast_forward is a pure fast path: the trace, recorded once,
    replays to the golden with it off, every cycle simulated."""
    cfg = default_machine(isa)
    recording, _ = record_kernel(name, isa, cfg.vector_bits, scale=SCALE)
    result = recording.time(cfg.with_(fast_forward=False))
    assert_matches_golden(
        golden,
        f"{name}/{isa}",
        timing_fields(result.committed, result.pipeline),
        " (fast_forward=False)",
    )


@pytest.mark.parametrize("name", KERNELS)
def test_timing_sane(timing_results, name):
    for isa in ISAS:
        r = timing_results[(name, isa)]
        assert 0 < r.cycles < 50_000_000
        assert 0 < r.ipc <= 8.0
        assert r.committed == r.summary.committed


@pytest.mark.parametrize("name", KERNELS)
def test_uve_not_slower_than_baseline(timing_results, name):
    # At reduced scale a couple of chain-bound kernels run close to par;
    # UVE must never lose by more than a small margin and usually wins.
    uve = timing_results[(name, "uve")]
    sve = timing_results[(name, "sve")]
    assert sve.cycles / uve.cycles > 0.85


@pytest.mark.parametrize("name", KERNELS)
def test_engine_streams_fully_drained(timing_results, name):
    engine = timing_results[(name, "uve")].pipeline.engine
    assert engine is not None
    assert not engine.stores_pending
    for stream in engine.streams.values():
        if stream.is_load and stream.num_chunks:
            # every fetched chunk was consumed and committed
            assert stream.commit_head <= stream.num_chunks


def test_rename_blocks_bounded(timing_results):
    for r in timing_results.values():
        assert 0.0 <= r.rename_blocks_per_cycle <= 1.0


def test_bus_utilization_bounded(timing_results):
    for r in timing_results.values():
        assert 0.0 <= r.bus_utilization <= 1.0


def regenerate() -> int:
    """Re-simulate every run, print the per-field diff against the
    committed golden and rewrite it."""
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    new = {
        f"{name}/{isa}": timing_fields(result.committed, result.pipeline)
        for (name, isa), result in simulate_all().items()
    }
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
