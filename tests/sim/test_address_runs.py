"""Cache lines from address runs equal the per-element derivation.

A contiguous access, and a chunk of a stream run with a nonzero stride,
is recorded as a ``range`` (an address run); rename and the Streaming
Engine take an ascending run whose step is at most one line as its
first-to-last line range.  These tests record every access form the
ISAs have, derive each access's lines both ways and require equal lists
in equal order.  The per-element loops below are the derivations the
timing model used before address runs, kept here as the reference.

The forms: SVE full, partial-prefix and lane-loop ``ld1``/``st1``,
gather and scatter; NEON; RVV unit-stride and strided (the RVV subset
has no indexed access; SVE's gather and scatter are the indexed forms);
UVE chunks of contiguous, strided and indirect streams, and chunks
assembled by scalar stream accesses; scalar loads and stores.
"""
from itertools import groupby, repeat
from operator import floordiv

import numpy as np
import pytest

from repro.common.types import ElementType
from repro.cpu.config import MachineConfig
from repro.cpu.pipeline import Pipeline
from repro.engine.table import EngineStream
from repro.fuzz.generator import generate_spec
from repro.fuzz.lowering import ISAS, lower
from repro.fuzz.oracle import clone_memory
from repro.fuzz.reference import materialize
from repro.isa import P0, ProgramBuilder, p, u, x
from repro.isa import neon_ops as neon
from repro.isa import rvv_ops as rvv
from repro.isa import scalar_ops as sc
from repro.isa import sve_ops as sve
from repro.isa.assembler import assemble
from repro.kernels import get_kernel
from repro.memory.backing import Memory
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.simulator import record
from repro.sim.trace import read_lines, write_lines
from repro.streams.pattern import MemLevel

F32 = ElementType.F32
LINE_SIZES = (16, 64, 128)


# -- The per-element reference derivations -----------------------------------


def ref_load_lines(addrs, line_bytes):
    """Distinct lines in first-touch order (the old rename load loop)."""
    seen = []
    for addr in addrs:
        line = addr // line_bytes
        if line not in seen:
            seen.append(line)
    return seen


def ref_store_lines(addrs, line_bytes):
    """Lines in element order, consecutive repeats dropped (the old
    rename store loop)."""
    lines = []
    for addr in addrs:
        line = addr // line_bytes
        if not lines or lines[-1] != line:
            lines.append(line)
    return lines


def ref_chunk_lines(chunk, origin, line_bytes):
    """The old ``EngineStream.chunk_lines``: origin reads, then the
    chunk, each distinct line once."""
    addrs = list(origin) + list(chunk)
    return list({addr // line_bytes: None for addr in addrs})


def ref_store_chunk_lines(chunk, line_bytes):
    """The old ``EngineStream.store_lines``."""
    return [
        line for line, _ in groupby(
            map(floordiv, list(chunk), repeat(line_bytes))
        )
    ]


# -- Recordings holding every form --------------------------------------------


def hand_programs():
    """Programs for the forms neither the kernels nor the fuzz cases
    reliably emit: an SVE lane loop (a compare's predicate, prefix
    unknown), gather and scatter, RVV strided loads, and UVE strided,
    scalar-read and scalar-written streams."""
    mem = Memory(1 << 16)
    src = mem.alloc_array(np.arange(64, dtype=np.float32))
    dst = mem.alloc_array(np.zeros(64, dtype=np.float32))
    sel = mem.alloc_array(np.array([1.0, 0.0, 1.0, 1.0] * 4, dtype=np.float32))
    idx = mem.alloc_array(np.array([3, 40, 1, 9] * 4, dtype=np.int32))
    b = ProgramBuilder("lane-loops")
    b.emit(
        sc.Li(x(7), sel),
        sve.Ld1(u(20), P0, x(7), etype=F32),
        sve.Dup(u(21), 0.5, F32),
        sve.CmpPred("gt", p(1), P0, u(20), u(21), etype=F32),
        sc.Li(x(5), src),
        sc.Li(x(6), dst),
        sc.Li(x(8), idx),
        sve.Ld1(u(1), p(1), x(5), etype=F32),
        sve.St1(u(1), p(1), x(6), etype=F32),
        sve.Ld1(u(2), P0, x(8), etype=ElementType.I32),
        sve.Ld1Gather(u(3), P0, x(5), u(2), etype=F32),
        sve.St1Scatter(u(3), P0, x(6), u(2), etype=F32),
        sc.Li(x(10), 8),
        rvv.VSetVli(x(11), x(10), F32),
        rvv.VlLoadStrided(u(4), x(5), x(10), etype=F32),
        sc.Li(x(12), 200),
        rvv.VlLoadStrided(u(4), x(5), x(12), etype=F32),
        sc.Halt(),
    )
    programs = [(b.build(), mem)]
    mem = Memory(1 << 16)
    a = mem.alloc_array(np.arange(256, dtype=np.float32))
    c = mem.alloc_array(np.zeros(256, dtype=np.float32))
    programs.append((assemble(f"""
        ss.ld.w   u0, {a}, 5, 1
        so.v.tosc f1, u0
        so.v.tosc f1, u0
        so.v.tosc f1, u0
        so.v.tosc f1, u0
        so.v.tosc f1, u0
        ss.ld.w   u1, {a}, 20, 3
        so.v.mv   u2, u1
        so.v.mv   u2, u1
        ss.ld.w   u3, {a}, 6, 40
        so.v.mv   u2, u3
        ss.st.w   u5, {c}, 3, 1
        so.v.fromsc u5, f1
        so.v.fromsc u5, f1
        so.v.fromsc u5, f1
        halt
    """), mem))
    return programs


def recordings():
    """``(label, recording)`` of the hand programs, RVV kernels, the
    paper kernels on UVE, SVE and NEON, and fuzz programs on all four
    lowerings."""
    out = []
    for program, mem in hand_programs():
        out.append((program.name, record(program, mem, 512)))
    for name in ("memcpy", "saxpy"):
        kernel = get_kernel(name)
        wl = kernel.workload(seed=0, scale=0.05)
        out.append((f"{name}/rvv", record(kernel.build("rvv", wl, 512),
                                          wl.memory, 512)))
    for name in ("saxpy", "gemm", "jacobi-2d", "irsmk", "knn", "mamr-ind",
                 "haccmk", "trisolv"):
        kernel = get_kernel(name)
        for isa in ("uve", "sve", "neon"):
            wl = kernel.workload(seed=0, scale=0.05)
            program = kernel.build(isa, wl, 512)
            out.append((f"{name}/{isa}", record(program, wl.memory, 512)))
    for index in range(40):
        spec = generate_spec(7, index)
        art = materialize(spec)
        for isa in ISAS:
            program = lower(spec, art, isa)
            out.append((f"fuzz{index}/{isa}", record(
                program, clone_memory(art.memory), spec.vector_bits)))
    return out


@pytest.fixture(scope="module")
def recorded():
    return recordings()


def op_form(dyn, vector_bits):
    """The access form of one recorded memory access (None: no memory
    access)."""
    inst = dyn.inst
    addrs = dyn.mem_reads if dyn.mem_reads is not None else dyn.mem_writes
    if addrs is None:
        return None
    if isinstance(inst, (sve.Ld1, sve.St1)):
        if isinstance(addrs, tuple):
            return "sve-lane-loop"
        lanes = vector_bits // (8 * inst.etype.width)
        return "sve-full" if len(addrs) == lanes else "sve-partial-prefix"
    forms = {
        sve.Ld1Gather: "sve-gather",
        sve.St1Scatter: "sve-scatter",
        neon.NVLoad: "neon",
        neon.NVStore: "neon",
        rvv.VlLoad: "rvv-unit-stride",
        rvv.VlStore: "rvv-unit-stride",
        rvv.VlLoadStrided: "rvv-strided",
        sc.Load: "scalar",
        sc.Store: "scalar",
    }
    return forms.get(type(inst), "other")


def chunk_form(info, index):
    chunk = info.chunks[index]
    if info.origin_reads[index]:
        return "uve-indirect"
    if isinstance(chunk, range):
        return "uve-contiguous" if chunk.step == info.etype.width else (
            "uve-strided")
    return "uve-scalar"


OP_FORMS = {
    "sve-full", "sve-partial-prefix", "sve-lane-loop", "sve-gather",
    "sve-scatter", "neon", "rvv-unit-stride", "rvv-strided", "scalar",
}
CHUNK_FORMS = {"uve-contiguous", "uve-strided", "uve-indirect", "uve-scalar"}


def test_recordings_hold_every_form(recorded):
    op_forms, chunk_forms = set(), set()
    for _, rec in recorded:
        for dyn in rec.trace:
            op_forms.add(op_form(dyn, rec.vector_bits))
        for info in rec.summary.streams.values():
            for index in range(len(info.chunks)):
                chunk_forms.add(chunk_form(info, index))
    assert OP_FORMS <= op_forms
    assert CHUNK_FORMS <= chunk_forms


def test_contiguous_accesses_are_recorded_as_runs(recorded):
    """Block accesses keep their ``range``; explicit addresses are
    tuples, so a recorded access is never a mutable list."""
    for label, rec in recorded:
        for dyn in rec.trace:
            form = op_form(dyn, rec.vector_bits)
            for addrs in (dyn.mem_reads, dyn.mem_writes):
                if addrs is None:
                    continue
                assert len(addrs) > 0, (label, dyn)
                if form in ("sve-full", "sve-partial-prefix", "neon",
                            "rvv-unit-stride"):
                    assert isinstance(addrs, range), (label, dyn)
                else:
                    assert isinstance(addrs, (range, tuple)), (label, dyn)


@pytest.mark.parametrize("line_bytes", LINE_SIZES)
def test_op_lines_match_the_per_element_loops(recorded, line_bytes):
    for label, rec in recorded:
        for dyn in rec.trace:
            if dyn.mem_reads is not None:
                reads = list(dyn.mem_reads)
                assert list(read_lines(dyn.mem_reads, line_bytes)) == (
                    ref_load_lines(reads, line_bytes)), (label, dyn)
            if dyn.mem_writes is not None:
                writes = list(dyn.mem_writes)
                assert list(write_lines(dyn.mem_writes, line_bytes)) == (
                    ref_store_lines(writes, line_bytes)), (label, dyn)


@pytest.mark.parametrize("line_bytes", LINE_SIZES)
def test_chunk_lines_match_the_per_element_loops(recorded, line_bytes):
    for label, rec in recorded:
        for info in rec.summary.streams.values():
            stream = EngineStream(info, 8, line_bytes, 0.0, MemLevel.L2)
            for index, chunk in enumerate(info.chunks):
                origin = info.origin_reads[index]
                assert list(stream.chunk_lines(index)) == ref_chunk_lines(
                    chunk, origin, line_bytes), (label, info.uid, index)
                assert list(stream.store_lines(index)) == (
                    ref_store_chunk_lines(chunk, line_bytes)), (
                    label, info.uid, index)


@pytest.mark.parametrize("addrs", [
    range(0, 64, 4), range(60, 68, 4), range(3, 200, 64), range(0, 640, 65),
    range(256, 0, -4), range(8, 8, 4), (5, 70, 5, 130, 69), (130,),
    (0, 4, 8, 64, 68, 0),
])
@pytest.mark.parametrize("line_bytes", LINE_SIZES)
def test_run_lines_on_edge_runs(addrs, line_bytes):
    """Steps at and past one line, descending and empty runs, and
    explicit addresses that revisit a line."""
    assert list(read_lines(addrs, line_bytes)) == ref_load_lines(
        list(addrs), line_bytes)
    assert list(write_lines(addrs, line_bytes)) == ref_store_lines(
        list(addrs), line_bytes)


def renamed_ops(recorded):
    """Every op rename dispatched, in rename order, over the first 12
    recordings timed on their default machine: the op the ``rename``
    observer event has just appended to the ROB."""
    seen = []
    for _, rec in recorded[:12]:
        config = MachineConfig(streaming=bool(rec.summary.streams))
        pipeline = Pipeline(
            config, MemoryHierarchy(config), dict(rec.summary.streams)
        )
        rob_q = pipeline._rob_q

        def observe(event, dyn, cycle, rob_q=rob_q):
            if event == "rename":
                seen.append(rob_q[-1])

        pipeline.observer = observe
        pipeline.run(rec.trace)
    return seen


def rename_line_mismatches(ops):
    """Loads and stores whose ``mem_lines`` from rename differ from the
    per-element derivation of their recorded addresses."""
    line_bytes = MachineConfig().l1d.line_bytes
    wrong = []
    for op in ops:
        dyn = op.dyn
        if op.dec.is_store:
            want = ref_store_lines(list(dyn.mem_writes or ()), line_bytes)
        elif op.dec.is_load:
            want = ref_load_lines(list(dyn.mem_reads or ()), line_bytes)
        else:
            continue
        if list(op.mem_lines) != want:
            wrong.append(dyn)
    return wrong


def test_rename_lines_match_the_per_element_loops(recorded):
    """The lines rename gives each load and store, on a timed run."""
    ops = renamed_ops(recorded)
    assert any(op.dec.is_load for op in ops)
    assert any(op.dec.is_store for op in ops)
    assert rename_line_mismatches(ops) == []


def test_rename_lines_check_sees_one_dropped_line(recorded, monkeypatch):
    """The check above fails when rename gives one load one line too
    few."""
    dropped = []

    def drop_one_line(addrs, line_bytes):
        lines = list(read_lines(addrs, line_bytes))
        if not dropped and len(lines) > 1:
            dropped.append(lines.pop())
        return lines

    monkeypatch.setattr("repro.cpu.pipeline.read_lines", drop_one_line)
    assert len(rename_line_mismatches(renamed_ops(recorded))) == 1
    assert dropped
