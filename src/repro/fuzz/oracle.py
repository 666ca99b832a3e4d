"""The differential equivalence oracle.

One case, four lowerings, one independently-computed reference: the
oracle runs every lowering through the functional simulator on a clone
of the same initial memory image and demands that

* each ISA's final output region matches the NumPy reference (floats
  within a width-dependent tolerance, integers exactly),
* the four ISAs match **each other** (catching correlated drift from a
  wrong reference),
* no lowering wrote a byte outside the output region (stray writes —
  e.g. a scatter escaping its region — corrupt silently otherwise),
* a lowering that raises (StreamError, MemoryAccessError, ...) is a
  failure in its own right.

Optionally (``check_timing``), the UVE program's differential run is
recorded (:func:`repro.sim.simulator.record`) and that one recording is
timed twice — with the event-horizon fast-forward on and off — and the
oracle asserts the timing invariants: identical :class:`PipelineStats`
counters both ways, no skipped cycles when fast-forward is off, at
least one cycle, and committed instructions within the machine's commit
bandwidth.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cpu.config import uve_machine
from repro.fuzz.reference import Artifacts, materialize
from repro.fuzz.spec import CaseSpec
from repro.lower import ISAS, lower
from repro.memory.backing import Memory
from repro.sim.functional import FunctionalSimulator
from repro.sim.simulator import Recording, record


@dataclass
class Failure:
    """One oracle violation."""

    isa: str  # "uve" | "scalar" | "sve" | "neon" | "timing" | pair "a|b"
    kind: str  # "mismatch" | "exception" | "stray-write" | "timing-..."
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"isa": self.isa, "kind": self.kind, "detail": self.detail}


@dataclass
class CaseReport:
    """The oracle's verdict on one case."""

    spec: CaseSpec
    failures: List[Failure] = field(default_factory=list)
    timing_checked: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict:
        return {
            "spec": self.spec.to_dict(),
            "ok": self.ok,
            "timing_checked": self.timing_checked,
            "failures": [fl.to_dict() for fl in self.failures],
        }


def clone_memory(mem: Memory) -> Memory:
    """A byte-identical copy, so every lowering starts from the same
    initial image."""
    copy = Memory(size=mem.size)
    np.copyto(copy.data, mem.data)
    copy._brk = mem._brk
    return copy


def tolerances(spec: CaseSpec) -> tuple:
    """(rtol, atol) for output comparison.  Integers are exact.  Float
    slack covers legitimate cross-ISA divergence: the scalar backend
    computes chains in f64, and reductions associate differently per
    vector length — so reductions get an absolute floor scaled for
    worst-case cancellation."""
    if not spec.is_float:
        return 0.0, 0.0
    if spec.etype == "F32":
        rtol, atol = 1e-4, 1e-5
        red_atol = 0.02
    else:
        rtol, atol = 1e-9, 1e-11
        red_atol = 1e-9
    if spec.reduce is not None:
        atol = max(atol, red_atol)
    return rtol, atol


def _outputs_match(spec: CaseSpec, got: np.ndarray, want: np.ndarray) -> bool:
    # Identical bytes of one dtype and shape pass the test below either
    # way (floats: allclose with equal_nan; an integer case's outputs
    # are integers: array_equal), and most pairs are identical.
    if (
        got.dtype == want.dtype
        and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    ):
        return True
    rtol, atol = tolerances(spec)
    if not spec.is_float:
        return bool(np.array_equal(got, want))
    return bool(np.allclose(got, want, rtol=rtol, atol=atol, equal_nan=True))


def _diff_detail(got: np.ndarray, want: np.ndarray) -> str:
    n = min(len(got), len(want))
    bad = np.flatnonzero(
        ~np.isclose(got[:n], want[:n], rtol=1e-4, atol=1e-5, equal_nan=True)
    )
    if len(bad) == 0:
        return "outputs differ"
    i = int(bad[0])
    return (
        f"{len(bad)} differing elements; first at [{i}]: "
        f"got {got[i]!r}, want {want[i]!r}"
    )


def run_case(
    spec: CaseSpec,
    inject: Optional[str] = None,
    check_timing: bool = False,
    art: Optional[Artifacts] = None,
) -> CaseReport:
    """Run one case through every lowering and compare.

    Raises if the *spec itself* cannot be materialised or placed as an
    IR nest (an invalid candidate, e.g. from an over-eager shrink step);
    failures of the lowerings are reported, not raised.
    """
    if art is None:
        art = materialize(spec)
    nest = spec.to_ir(art)  # one nest, lowered to every ISA
    report = CaseReport(spec)
    outputs: Dict[str, np.ndarray] = {}
    # A timing case times the UVE run's own recording; when lowering or
    # the run raised, the timing check reports that exception instead.
    uve_recording: Optional[Recording] = None
    uve_error: Optional[Exception] = None
    # The image's bytes below and above the output region, which no
    # lowering may change: compared as bytes, exactly and without a
    # per-byte mask.
    c, image = art.views["c"], art.memory.data
    lo, hi = c.addr, c.addr + c.length * c.width
    below, above = image[:lo].tobytes(), image[hi:].tobytes()
    for isa in ISAS:
        try:
            program = lower(nest, isa, inject if isa == "uve" else None)
            mem = clone_memory(art.memory)
            if check_timing and isa == "uve":
                uve_recording = record(program, mem, spec.vector_bits)
            else:
                FunctionalSimulator(
                    program, memory=mem, vector_bits=spec.vector_bits
                ).run()
        except Exception as exc:  # noqa: BLE001 — any blow-up is a finding
            if isa == "uve":
                uve_error = exc
            report.failures.append(
                Failure(isa, "exception", f"{type(exc).__name__}: {exc}")
            )
            continue
        out = art.output_region(mem)
        outputs[isa] = out
        if not _outputs_match(spec, out, art.ref_c):
            report.failures.append(
                Failure(isa, "mismatch", _diff_detail(out, art.ref_c))
            )
        data = mem.data
        if data[:lo].tobytes() != below or data[hi:].tobytes() != above:
            report.failures.append(
                Failure(isa, "stray-write", "bytes outside the output region changed")
            )
    # Pairwise: catches correlated drift even if the reference agreed.
    isas = [i for i in ISAS if i in outputs]
    for i, first in enumerate(isas):
        for second in isas[i + 1 :]:
            if not _outputs_match(spec, outputs[first], outputs[second]):
                report.failures.append(
                    Failure(
                        f"{first}|{second}",
                        "mismatch",
                        _diff_detail(outputs[first], outputs[second]),
                    )
                )
    if check_timing:
        report.timing_checked = True
        _check_timing(spec, uve_recording, uve_error, report.failures)
    return report


def _check_timing(
    spec: CaseSpec,
    recording: Optional[Recording],
    error: Optional[Exception],
    failures: List[Failure],
) -> None:
    """Timing-model invariants on the UVE run's ``recording`` (see module
    docs).  ``error`` is what lowering or recording raised instead; the
    case then also reports it as a ``timing`` exception."""
    if error is None:
        try:
            results = {
                ff: recording.time(uve_machine().with_(
                    vector_bits=spec.vector_bits, fast_forward=ff
                ))
                for ff in (True, False)
            }
        except Exception as exc:  # noqa: BLE001
            error = exc
    if error is not None:
        failures.append(
            Failure("timing", "exception", f"{type(error).__name__}: {error}")
        )
        return
    on, off = results[True], results[False]
    if on.timing.as_dict() != off.timing.as_dict():
        failures.append(
            Failure(
                "timing",
                "timing-ff-divergence",
                "PipelineStats differ between fast_forward on and off",
            )
        )
    if off.pipeline.ff_skipped_cycles != 0:
        failures.append(
            Failure(
                "timing",
                "timing-ff-skips",
                f"fast_forward=False skipped "
                f"{off.pipeline.ff_skipped_cycles} cycles",
            )
        )
    commit_width = uve_machine().core.commit_width
    for name, res in (("ff-on", on), ("ff-off", off)):
        if res.cycles < 1:
            failures.append(
                Failure("timing", "timing-invariant", f"{name}: cycles < 1")
            )
        if res.committed > res.cycles * commit_width + commit_width:
            failures.append(
                Failure(
                    "timing",
                    "timing-invariant",
                    f"{name}: committed {res.committed} exceeds commit "
                    f"bandwidth over {res.cycles} cycles",
                )
            )
