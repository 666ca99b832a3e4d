"""RunIterator's contract with StreamIterator.

The functional simulator executes every stream through
:class:`RunIterator`, one dimension-0 instance (a *run*) at a time.
:class:`StreamIterator` defines the element order and
:class:`VectorChunker` the chunking, so for every pattern:

* the run addresses, concatenated, equal the element addresses;
* every run is non-empty and ends a dimension-0 instance: its
  ``dims_ended`` is its last element's flag, and every earlier element's
  flag is -1;
* the indirect-origin reader is called at the same addresses, in the
  same order, each after the same number of elements;
* slicing each run into ``lanes``-element chunks gives the chunks of
  :class:`VectorChunker`.

The patterns are every stream the UVE lowering of 16 fuzz programs
configures, captured by wrapping the simulator's ``RunIterator``, plus
the static-modifier and indirect patterns of ``test_iterator.py``.
"""
from unittest import mock

import numpy as np
import pytest

from repro.common.types import ElementType
from repro.fuzz.generator import generate_spec
from repro.fuzz.lowering import lower
from repro.fuzz.oracle import clone_memory
from repro.fuzz.reference import materialize
from repro.sim import functional
from repro.streams import (
    Descriptor,
    IndirectModifier,
    Level,
    Param,
    StaticModifier,
    StreamIterator,
    StreamPattern,
    VectorChunker,
    indirect,
    linear,
    lower_triangular,
    rectangular,
    repeated,
)
from repro.streams.descriptor import IndirectBehavior, StaticBehavior
from repro.streams.iterator import RunIterator, StreamElement

I32 = ElementType.I32
FUZZ_CASES = [(seed, index) for seed in (7, 42) for index in range(8)]


def element_trace(pattern, read):
    """StreamIterator's ``(address, flag)`` elements and its reader calls
    as ``(address, elements yielded before the call)``."""
    elements, calls = [], []

    def reader(addr, etype):
        calls.append((addr, len(elements)))
        return read(addr, etype)

    for element in StreamIterator(pattern, reader if read else None):
        elements.append((element.address, element.dims_ended))
    return elements, calls


def run_trace(pattern, read):
    """RunIterator's runs and its reader calls, in the same form."""
    runs, calls = [], []
    yielded = 0

    def reader(addr, etype):
        calls.append((addr, yielded))
        return read(addr, etype)

    for run in RunIterator(pattern, reader if read else None):
        runs.append(run)
        yielded += len(run.addresses)
    return runs, calls


def assert_runs_regroup_elements(pattern, read=None):
    elements, element_calls = element_trace(pattern, read)
    runs, run_calls = run_trace(pattern, read)
    regrouped = []
    for run in runs:
        count = len(run.addresses)
        assert count > 0, "empty run"
        assert run.dims_ended >= 0, "run does not end a dimension-0 instance"
        flags = [-1] * (count - 1) + [run.dims_ended]
        regrouped += zip(run.addresses.tolist(), flags)
    assert regrouped == elements
    assert run_calls == element_calls
    for lanes in (1, 4, 16):
        want = [
            (chunk.addresses, chunk.dims_ended)
            for chunk in VectorChunker(
                [StreamElement(*element) for element in elements], lanes
            )
        ]
        got = []
        for run in runs:
            addrs = run.addresses.tolist()
            for start in range(0, len(addrs), lanes):
                end = start + lanes
                got.append(
                    (addrs[start:end], run.dims_ended if end >= len(addrs) else -1)
                )
        assert got == want, f"chunks differ at {lanes} lanes"


def table_reader(table):
    data = np.asarray(table, dtype=np.int32)

    def read(addr, etype):
        return int(data[addr // etype.width])

    return read


def modifier_level(size, stride, *mods):
    return Level(Descriptor(0, size, stride), list(mods))


STATIC_PATTERNS = {
    "linear": linear(base=10, size=5),
    "reverse": linear(base=9, size=4, stride=-2),
    "empty": linear(base=0, size=0),
    "rectangular": rectangular(base=100, rows=3, cols=4),
    "repeated": repeated(linear(base=5, size=3), times=2),
    "lower-triangular": lower_triangular(base=0, rows=4, row_stride=5),
    "paper-encoding": StreamPattern(levels=[
        Level(Descriptor(0, 0, 1)),
        modifier_level(4, 5, StaticModifier(Param.SIZE, StaticBehavior.ADD, 1, 4)),
    ]),
    "restart": repeated(lower_triangular(base=0, rows=3, row_stride=4), 2),
    "growth-two": lower_triangular(
        base=0, rows=3, row_stride=10, growth=2, first_row_size=2
    ),
    "count-limit": StreamPattern(levels=[
        Level(Descriptor(0, 0, 1)),
        modifier_level(4, 10, StaticModifier(Param.SIZE, StaticBehavior.ADD, 1, 2)),
    ]),
    "diagonal": StreamPattern(levels=[
        Level(Descriptor(-6, 1, 1)),
        modifier_level(4, 0, StaticModifier(Param.OFFSET, StaticBehavior.ADD, 6, 4)),
    ]),
    # Rows of 1, 0, -1 and -2 elements: empty instances yield nothing.
    "shrinking": StreamPattern(levels=[
        Level(Descriptor(0, 2, 1)),
        modifier_level(4, 10, StaticModifier(Param.SIZE, StaticBehavior.SUB, 1, 4)),
    ]),
}


@pytest.mark.parametrize("name", sorted(STATIC_PATTERNS))
def test_static_pattern(name):
    assert_runs_regroup_elements(STATIC_PATTERNS[name])


INDIRECT_PATTERNS = {
    "gather": (
        indirect(base=100, index_pattern=linear(base=0, size=4, etype=I32)),
        [3, 0, 2, 7],
    ),
    "row-gather": (
        indirect(
            base=0,
            index_pattern=StreamPattern(
                levels=[Level(Descriptor(0, 2, 1))], etype=I32
            ),
            inner_size=3,
        ),
        [20, 0],
    ),
    "lone-indirect": (
        indirect(base=0, index_pattern=linear(base=0, size=2, etype=I32)),
        [1, 5],
    ),
    "paired-offsets": (
        StreamPattern(levels=[
            Level(Descriptor(0, 1, 1)),
            modifier_level(3, 0, IndirectModifier(
                Param.OFFSET, IndirectBehavior.SET_ADD,
                linear(base=0, size=3, etype=I32),
            )),
        ]),
        [4, 9, 1],
    ),
}


@pytest.mark.parametrize("name", sorted(INDIRECT_PATTERNS))
def test_indirect_pattern(name):
    pattern, table = INDIRECT_PATTERNS[name]
    assert_runs_regroup_elements(pattern, table_reader(table))


def simulated_patterns(seed, index):
    """Every stream pattern the UVE lowering of one fuzz program
    configures, each with a reader over memory as it was at that point."""
    spec = generate_spec(seed, index)
    art = materialize(spec)
    memory = clone_memory(art.memory)
    captured = []

    def capture(pattern, read_element=None):
        read = None
        if pattern.has_indirection:
            read = clone_memory(memory).read_scalar
        captured.append((pattern, read))
        return RunIterator(pattern, read_element)

    with mock.patch.object(functional, "RunIterator", capture):
        functional.FunctionalSimulator(
            lower(spec, art, "uve"), memory=memory,
            vector_bits=spec.vector_bits,
        ).run()
    return captured


@pytest.mark.parametrize("seed,index", FUZZ_CASES)
def test_fuzz_program_patterns(seed, index):
    patterns = simulated_patterns(seed, index)
    assert patterns, "the program configured no stream"
    for pattern, read in patterns:
        assert_runs_regroup_elements(pattern, read)
