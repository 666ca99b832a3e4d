"""Exact timing golden for fuzz programs on all four ISAs.

The fuzz oracle times only the UVE lowering of a case.  This golden
(``fuzz_timing_golden.json``) pins ``timing_fields`` of all four
lowerings (UVE, scalar, SVE, NEON) of fuzz cases 0-199 of campaign
seed 7.  Each lowering is recorded once and timed on
``default_machine(isa)`` at the case's vector width, with
``fast_forward`` on and off; the two timings must match each other and
the golden.  A refactor of the simulator must leave it unchanged; a
deliberate model change regenerates it and shows the per-field diff for
review::

    PYTHONPATH=src python tests/integration/test_fuzz_timing_golden.py
"""
import json
import sys
from pathlib import Path

import pytest

from repro.cpu.config import default_machine
from repro.fuzz.generator import generate_spec
from repro.fuzz.lowering import ISAS, lower
from repro.fuzz.oracle import clone_memory
from repro.fuzz.reference import materialize
from repro.sim.simulator import record

# The repository root, so the regenerate script can import its sibling.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
from tests.integration.test_timing_all_kernels import (  # noqa: E402
    field_diffs,
    timing_fields,
)

SEED = 7
CASES = range(200)
GOLDEN_PATH = Path(__file__).with_name("fuzz_timing_golden.json")


def simulate_all() -> dict:
    """``run -> (fields with fast_forward, fields without, cycles the
    run without fast_forward skipped)`` for every lowering of every
    case; ``run`` is ``"<case>/<isa>"``."""
    results = {}
    for index in CASES:
        spec = generate_spec(SEED, index)
        art = materialize(spec)
        for isa in ISAS:
            program = lower(spec, art, isa)
            recording = record(program, clone_memory(art.memory), spec.vector_bits)
            cfg = default_machine(isa).with_(vector_bits=spec.vector_bits)
            on = recording.time(cfg.with_(fast_forward=True))
            off = recording.time(cfg.with_(fast_forward=False))
            results[f"{index}/{isa}"] = (
                timing_fields(on.committed, on.pipeline),
                timing_fields(off.committed, off.pipeline),
                off.pipeline.ff_skipped_cycles,
            )
    return results


@pytest.fixture(scope="module")
def timing_results():
    return simulate_all()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case_and_isa(golden):
    assert set(golden) == {f"{i}/{isa}" for i in CASES for isa in ISAS}


def _report(golden: dict, got: dict, how: str) -> str:
    lines = []
    for run, fields in sorted(got.items()):
        for f, want, have in field_diffs(golden[run], fields):
            lines.append(f"  {run}{how} {f}: golden {want!r}, got {have!r}")
    return "\n".join(lines[:40] + ([f"  ... {len(lines) - 40} more"]
                                   if len(lines) > 40 else []))


@pytest.mark.parametrize("fast_forward", (True, False), ids=("ff", "no-ff"))
@pytest.mark.parametrize("isa", ISAS)
def test_fuzz_timing_matches_golden(timing_results, golden, isa, fast_forward):
    got = {
        run: on if fast_forward else off
        for run, (on, off, _) in timing_results.items()
        if run.endswith(f"/{isa}")
    }
    diffs = _report(golden, got, f" (fast_forward={fast_forward})")
    assert not diffs, f"diverged from {GOLDEN_PATH.name}:\n{diffs}"


def test_fast_forward_is_a_pure_fast_path(timing_results):
    """Every field matches with ``fast_forward`` on and off, and off
    skips no cycle."""
    for run, (on, off, off_skipped) in timing_results.items():
        assert off_skipped == 0, run
        assert on == off, f"{run}: {field_diffs(on, off)}"


def regenerate() -> int:
    """Re-simulate every run, print the per-field diff against the
    committed golden and rewrite it (from the ``fast_forward`` run)."""
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    results = simulate_all()
    new = {run: on for run, (on, _, _) in results.items()}
    changed = 0
    for run in sorted(set(old) | set(new), key=_run_order):
        for field, was, now in field_diffs(old.get(run, {}), new.get(run, {})):
            print(f"{run} {field}: {was!r} -> {now!r}")
            changed += 1
    for run, (on, off, off_skipped) in results.items():
        if field_diffs(on, off) or off_skipped:
            print(f"{run}: fast_forward on and off differ")
    lines = [
        f"{json.dumps(run)}: {json.dumps(new[run], sort_keys=True)}"
        for run in sorted(new, key=_run_order)
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{GOLDEN_PATH.name}: {len(new)} runs, {changed} field(s) changed")
    return 0


def _run_order(run: str) -> tuple:
    index, isa = run.split("/")
    return int(index), isa


if __name__ == "__main__":
    sys.exit(regenerate())
