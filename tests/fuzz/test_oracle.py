"""Differential-oracle behaviour: clean passes, injections caught."""
from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fuzz.oracle as oracle
from repro.fuzz.generator import generate_spec
from repro.fuzz.lowering import INJECTIONS, ISAS, lower
from repro.fuzz.oracle import _outputs_match, clone_memory, run_case, tolerances
from repro.fuzz.reference import materialize
from repro.fuzz.spec import CaseSpec
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
    lower_nest = oracle.lower

    def lower_or_fail(nest, isa, inject=None):
        lowered.append(isa)
        if isa == "uve":
            raise RuntimeError("no UVE program")
        return lower_nest(nest, isa, inject)

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


@pytest.mark.parametrize("where", ["below", "above", "last"])
def test_one_changed_byte_outside_the_output_is_a_stray_write(
    monkeypatch, where
):
    """The byte just below the output region, the one just above it, or
    the image's last byte, changed by every lowering's run, is reported
    once per lowering; the outputs still match."""
    spec = generate_spec(5, 0)
    art = materialize(spec)
    c = art.views["c"]
    offset = {
        "below": c.addr - 1,
        "above": c.addr + c.length * c.width,
        "last": art.memory.size - 1,
    }[where]
    run = FunctionalSimulator.run

    def run_and_poke(self):
        summary = run(self)
        self.state.mem.data[offset] ^= 0x5A
        return summary

    monkeypatch.setattr(FunctionalSimulator, "run", run_and_poke)
    report = run_case(spec, art=art)
    assert [(fl.isa, fl.kind) for fl in report.failures] == [
        (isa, "stray-write") for isa in ISAS
    ]
    assert report.failures[0].detail == (
        "bytes outside the output region changed"
    )


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


def test_each_case_builds_one_nest(monkeypatch):
    """All four lowerings of a case, injected or not, share one IR nest."""
    calls = []
    to_ir = CaseSpec.to_ir

    def counting(self, art):
        calls.append(self)
        return to_ir(self, art)

    monkeypatch.setattr(CaseSpec, "to_ir", counting)
    spec = generate_spec(5, 0)
    assert run_case(spec, check_timing=True).ok
    assert len(calls) == 1
    injected = run_case(spec, inject="uve-mod-extra-count")
    assert injected.spec is spec
    assert len(calls) == 2


def _todays_match(spec, got, want):
    """The tolerance test itself, without the byte comparison in front."""
    rtol, atol = tolerances(spec)
    if not spec.is_float:
        return bool(np.array_equal(got, want))
    return bool(np.allclose(got, want, rtol=rtol, atol=atol, equal_nan=True))


_DTYPES = {"F32": np.float32, "F64": np.float64, "I32": np.int32,
           "I64": np.int64}


def _perturb(value, how):
    """One element of ``got`` derived from ``want``'s ``value``."""
    kind = value.dtype.kind
    if how == "same":
        return value
    if kind != "f":
        info = np.iinfo(value.dtype)
        return value.dtype.type(info.min if value == info.max else value + 1)
    if how in ("ulp-up", "ulp-down"):
        toward = value.dtype.type(np.inf if how == "ulp-up" else -np.inf)
        with np.errstate(over="ignore"):  # max + 1 ulp is inf
            return np.nextafter(value, toward)
    if how == "flip-zero":
        return -value if value == 0 else value
    if how == "nan-payload":
        bits = np.array([np.nan], dtype=value.dtype).view(
            np.uint32 if value.dtype == np.float32 else np.uint64)
        return (bits ^ 1).view(value.dtype)[0]
    return value.dtype.type(np.nan)  # "nan"


@st.composite
def _output_pairs(draw):
    etype = draw(st.sampled_from(sorted(_DTYPES)))
    dtype = np.dtype(_DTYPES[etype])
    if dtype.kind == "f":
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0,
                    np.finfo(dtype).smallest_subnormal, np.finfo(dtype).max]
        elements = st.one_of(
            st.sampled_from(specials),
            hnp.from_dtype(dtype, allow_nan=True, allow_infinity=True),
        )
    else:
        elements = hnp.from_dtype(dtype)
    want = draw(hnp.arrays(dtype, st.integers(1, 12), elements=elements))
    hows = ["same", "ulp-up", "ulp-down", "flip-zero", "nan-payload", "nan"]
    got = np.array([
        _perturb(value, draw(st.sampled_from(hows))) for value in want
    ], dtype=dtype)
    spec = SimpleNamespace(
        etype=etype, is_float=dtype.kind == "f",
        reduce=draw(st.sampled_from([None, "add"])),
    )
    return spec, got, want


@given(_output_pairs())
@settings(max_examples=400, deadline=None)
def test_outputs_match_agrees_with_the_tolerance_test(case):
    """Comparing bytes first changes no verdict: NaNs (any payload), ±inf,
    -0.0 against 0.0, subnormals and 1-ulp differences get the tolerance
    test's answer, both ways round."""
    spec, got, want = case
    assert _outputs_match(spec, got, want) == _todays_match(spec, got, want)
    assert _outputs_match(spec, want, got) == _todays_match(spec, want, got)
    assert _outputs_match(spec, want, want.copy())


def test_identical_bytes_of_another_dtype_or_shape_do_not_match():
    spec = SimpleNamespace(etype="F32", is_float=True, reduce=None)
    want = np.array([1.5, 2.5, -3.0, 4.25], dtype=np.float32)
    as_int = want.view(np.int32)
    column = want.reshape(-1, 1)
    for got in (as_int, column):
        assert got.tobytes() == want.tobytes()
        assert not _outputs_match(spec, got, want)
        assert not _todays_match(spec, got, want)
