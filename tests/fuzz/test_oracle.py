"""Differential-oracle behaviour: clean passes, injections caught."""
import numpy as np
import pytest

import repro.fuzz.oracle as oracle
from repro.fuzz.generator import generate_spec
from repro.fuzz.lowering import INJECTIONS, ISAS, lower
from repro.fuzz.oracle import clone_memory, run_case
from repro.fuzz.reference import materialize
from repro.memory.backing import Memory
from repro.sim.functional import FunctionalSimulator


def test_clean_cases_pass():
    for index in range(40):
        spec = generate_spec(5, index)
        report = run_case(spec, check_timing=index % 10 == 0)
        assert report.ok, (spec, [f.to_dict() for f in report.failures])


def test_timing_invariants_checked_when_requested():
    spec = generate_spec(5, 0)
    report = run_case(spec, check_timing=True)
    assert report.timing_checked
    assert run_case(spec).timing_checked is False


def test_timing_case_runs_each_program_functionally_once(monkeypatch):
    """The timing check times the recording of the differential UVE run,
    so a timing case makes one functional pass per lowering, not one
    more per fast_forward setting."""
    passes = []
    trace = FunctionalSimulator.trace

    def counting(self, **kwargs):
        passes.append(self.program.name.rsplit("-", 1)[-1])
        return trace(self, **kwargs)

    monkeypatch.setattr(FunctionalSimulator, "trace", counting)
    report = run_case(generate_spec(5, 0), check_timing=True)
    assert report.ok and report.timing_checked
    assert sorted(passes) == sorted(ISAS)


def test_timing_check_reports_what_the_uve_run_raised(monkeypatch):
    """A UVE lowering that raises fails the timing check with the same
    exception, without being lowered again."""
    lowered = []

    def lower_or_fail(spec, art, isa, inject=None):
        lowered.append(isa)
        if isa == "uve":
            raise RuntimeError("no UVE program")
        return lower(spec, art, isa, inject)

    monkeypatch.setattr(oracle, "lower", lower_or_fail)
    report = run_case(generate_spec(5, 0), check_timing=True)
    failures = [(fl.isa, fl.kind, fl.detail) for fl in report.failures]
    assert failures[0] == ("uve", "exception", "RuntimeError: no UVE program")
    assert failures[-1] == (
        "timing", "exception", "RuntimeError: no UVE program"
    )
    assert lowered.count("uve") == 1


def test_every_lowering_produces_a_program():
    spec = generate_spec(5, 1)
    art = materialize(spec)
    for isa in ISAS:
        program = lower(spec, art, isa)
        assert len(program.instructions) > 0


def test_clone_memory_is_independent():
    mem = Memory(size=4096)
    mem.data[100] = 42
    copy = clone_memory(mem)
    copy.data[100] = 7
    assert mem.data[100] == 42
    assert np.array_equal(mem.data[:100], copy.data[:100])


@pytest.mark.parametrize("inject", sorted(INJECTIONS))
def test_injection_is_caught(inject):
    # Each documented distortion of the UVE lowering must be detected
    # within a modest budget of generated cases.
    for index in range(80):
        spec = generate_spec(0, index)
        report = run_case(spec, inject=inject)
        if not report.ok:
            # The bug must show up on the UVE side of the differential.
            assert any("uve" in f.isa for f in report.failures)
            return
    pytest.fail(f"injection {inject!r} survived 80 cases undetected")


def test_unknown_injection_rejected():
    spec = generate_spec(0, 0)
    art = materialize(spec)
    with pytest.raises(ValueError, match="unknown injection"):
        lower(spec, art, "uve", inject="no-such-injection")
