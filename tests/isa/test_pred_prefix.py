"""The active prefix a predicate register records, and its readers.

A predicate writer that knows its row is a prefix (``p0``, ``ptrue``,
``whilelt``) records how many leading lanes are true; every other writer
records -1 ("unknown").  Readers trust a prefix that covers their lanes
and skip the mask test, so these tests check the recorded prefix against
the row it describes, and run every reader under a full, a partial, an
empty, a non-prefix and an unknown-but-full predicate against values
computed here from the mask alone.
"""
import re

import numpy as np
import pytest

from repro.common.types import ElementType
from repro.errors import MemoryAccessError
from repro.isa import P0, ProgramBuilder, p, u, x
from repro.isa import scalar_ops as sc
from repro.isa import sve_ops as sve
from repro.isa import uve_ops as uve
from repro.isa.vector import from_list, full
from repro.memory.backing import Memory
from repro.sim.functional import FunctionalSimulator, MachineState

F32 = ElementType.F32
ETYPES = (ElementType.I8, ElementType.I16, ElementType.F32, ElementType.F64)
ROW = 256  # lanes of a predicate register row


def leading_true(row):
    return len(row) if row.all() else int(np.argmin(row))


@pytest.mark.parametrize("seed", range(10))
def test_whilelt_records_the_prefix_it_writes(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        state = MachineState(vector_bits=int(rng.choice([128, 256, 512])))
        etype = ETYPES[int(rng.integers(len(ETYPES)))]
        if rng.random() < 0.5:
            uve.SoSetVl(x(9), int(rng.integers(0, 70)), etype).execute(state)
        a, b = (int(v) for v in rng.integers(-40, 80, size=2))
        state.write_x(x(1), a)
        state.write_x(x(2), b)
        sve.WhileLt(p(3), x(1), x(2), etype).execute(state)
        lanes = state.lanes(etype)
        want = sum(a + i < b for i in range(lanes))
        row = state.preds[3]
        assert state.pred_prefix[3] == want == leading_true(row)
        assert row.tolist() == [True] * want + [False] * (ROW - want)


def test_p0_and_ptrue_record_full_prefixes():
    state = MachineState(vector_bits=256)
    assert state.pred_prefix[0] == ROW
    uve.SoSetVl(x(9), 5, F32).execute(state)
    sve.PTrue(p(2), F32).execute(state)
    assert state.pred_prefix[2] == 5
    assert state.preds[2].tolist() == [True] * 5 + [False] * (ROW - 5)


def test_unwritten_registers_are_empty_prefixes():
    state = MachineState()
    assert state.pred_prefix[1:] == [0] * 15
    assert not state.preds[1:].any()


#: every predicate writer that does not know its row is a prefix
MASK_WRITERS = (
    sve.CmpPred("lt", p(4), P0, u(1), u(2), etype=F32),
    uve.SoPredComp("lt", p(4), u(1), u(2)),
    uve.SoPredNot(p(4), p(4)),
)


@pytest.mark.parametrize("inst", MASK_WRITERS, ids=lambda i: type(i).__name__)
def test_other_writers_record_unknown(inst):
    state = MachineState()
    state.write_v(u(1), from_list(range(16), F32, 16), F32)
    state.write_v(u(2), full(16, F32, 8.0), F32)
    sve.PTrue(p(4), F32).execute(state)
    inst.execute(state)
    assert state.pred_prefix[4] == -1


# -- Readers under each kind of predicate ------------------------------------

LANES = 16
MASKS = {
    "full": np.ones(LANES, dtype=bool),
    "partial": np.arange(LANES) < 5,
    "empty": np.zeros(LANES, dtype=bool),
    "non-prefix": np.arange(LANES) % 3 != 1,
    "unknown-full": np.ones(LANES, dtype=bool),
}
PREFIXES = {
    "full": LANES, "partial": 5, "empty": 0,
    "non-prefix": -1, "unknown-full": -1,
}
SRC = np.arange(1, LANES + 1, dtype=np.float32) * 1.5
SEL = np.array([1.0, 0.0, 1.0] * 5 + [1.0], dtype=np.float32)


def set_predicate(b, kind, sel_base):
    """Instructions that leave predicate p1 as ``MASKS[kind]``."""
    if kind == "full":
        b.emit(sve.PTrue(p(1), F32))
    elif kind in ("partial", "empty"):
        b.emit(sc.Li(x(1), 3), sc.Li(x(2), 3 + PREFIXES[kind]),
               sve.WhileLt(p(1), x(1), x(2), F32))
    else:
        # A compare writes p1, so its prefix is unknown.
        threshold = 0.5 if kind == "non-prefix" else -1.0
        b.emit(
            sc.Li(x(7), sel_base),
            sve.Ld1(u(20), P0, x(7), etype=F32),
            sve.Dup(u(21), threshold, F32),
            sve.CmpPred("gt", p(1), P0, u(20), u(21), etype=F32),
        )


def run_readers(kind):
    mem = Memory(1 << 14)
    src = mem.alloc_array(SRC)
    dst = mem.alloc_array(np.full(LANES, -1.0, dtype=np.float32))
    sel = mem.alloc_array(SEL)
    b = ProgramBuilder(f"readers-{kind}")
    set_predicate(b, kind, sel)
    b.emit(
        sc.Li(x(5), src),
        sc.Li(x(6), dst),
        sve.Dup(u(2), 7.0, F32),
        sve.Dup(u(8), 100.0, F32),
        sve.Dup(u(9), 1.0, F32),
        sve.Ld1(u(1), p(1), x(5), etype=F32),
        sve.St1(u(2), p(1), x(6), etype=F32),
        sve.VOp("add", u(8), p(1), u(1), u(2), etype=F32),
        sve.Fmla(u(9), p(1), u(1), u(2), etype=F32),
    )
    for i, kind_ in enumerate(("first", "any", "none")):
        b.emit(sve.BranchPred(kind_, p(1), f"t{i}", F32),
               sc.Li(x(10 + i), 1))
        b.label(f"t{i}")
    b.emit(sc.Halt())
    sim = FunctionalSimulator(b.build(), memory=mem, vector_bits=512)
    ops = {op.inst: op for op in sim.trace()}
    return sim.state, ops, src, dst


@pytest.mark.parametrize("kind", sorted(MASKS))
def test_readers_match_the_mask(kind):
    mask = MASKS[kind]
    state, ops, src, dst = run_readers(kind)
    assert state.pred_prefix[1] == PREFIXES[kind]
    assert state.read_pred(p(1), LANES).tolist() == mask.tolist()
    by_class = {type(inst): op for inst, op in ops.items()}

    # ld1: active lanes read, the rest zero and invalid.
    loaded = state.read_v(u(1), F32)
    assert loaded.data.tolist() == np.where(mask, SRC, 0.0).tolist()
    assert loaded.valid.tolist() == mask.tolist()
    want_reads = [src + 4 * i for i in range(LANES) if mask[i]]
    assert list(by_class[sve.Ld1].mem_reads or ()) == want_reads

    # st1: active lanes written, the rest keep -1.
    stored = state.mem.ndarray(dst, (LANES,), np.float32)
    assert stored.tolist() == np.where(mask, 7.0, -1.0).tolist()
    want_writes = [dst + 4 * i for i in range(LANES) if mask[i]]
    assert list(by_class[sve.St1].mem_writes or ()) == want_writes

    # vop and fmla merge: inactive lanes keep the old value and validity.
    vop = state.read_v(u(8), F32)
    assert vop.data.tolist() == np.where(mask, SRC + 7.0, 100.0).tolist()
    assert vop.valid.all()
    fmla = state.read_v(u(9), F32)
    want = np.where(mask, np.float32(1.0) + SRC * np.float32(7.0), 1.0)
    assert fmla.data.tolist() == want.astype(np.float32).tolist()
    assert fmla.valid.all()

    # Branches: first on lane 0, any on some lane, none on no lane.  A
    # taken branch skips its li.
    taken = {"first": bool(mask[0]), "any": bool(mask.any()),
             "none": not mask.any()}
    for i, kind_ in enumerate(("first", "any", "none")):
        assert state.read_x(x(10 + i)) == (0 if taken[kind_] else 1), kind_


def test_unknown_full_predicate_reads_as_full():
    """An all-true row of unknown prefix and a known full prefix give the
    same registers."""
    known, _, _, _ = run_readers("full")
    unknown, _, _, _ = run_readers("unknown-full")
    for reg in (u(1), u(8), u(9)):
        a, b = known.read_v(reg, F32), unknown.read_v(reg, F32)
        assert a.data.tolist() == b.data.tolist()
        assert a.valid.tolist() == b.valid.tolist()


# -- ld1/st1 under a partial prefix: one block of the active lanes -----------


def prefix_state(prefix, etype, size=1 << 12):
    """A 512-bit state whose p1 ``whilelt`` wrote with ``prefix`` lanes."""
    state = MachineState(memory=Memory(size), vector_bits=512)
    state.write_x(x(1), 0)
    state.write_x(x(2), prefix)
    sve.WhileLt(p(1), x(1), x(2), etype).execute(state)
    assert state.pred_prefix[1] == prefix
    return state


@pytest.mark.parametrize("etype", ETYPES, ids=lambda e: e.name)
@pytest.mark.parametrize("misalign", [0, 1, 3])
@pytest.mark.parametrize("prefix", [0, 1, 3])
def test_partial_prefix_access_reads_and_writes_the_active_lanes(
        etype, misalign, prefix):
    """Data, validity and recorded addresses are those of the lanes the
    prefix covers, aligned or not."""
    state = prefix_state(prefix, etype)
    lanes, width = state.lanes(etype), etype.width
    start = 64 + misalign
    values = (np.arange(lanes) + 3).astype(etype.dtype)
    state.mem.data[start:start + lanes * width] = values.view(np.uint8)
    state.write_x(x(5), start)
    active = [start + i * width for i in range(prefix)]

    sve.Ld1(u(1), p(1), x(5), etype=etype).execute(state)
    loaded = state.read_v(u(1), etype)
    want = np.where(np.arange(lanes) < prefix, values, 0)
    assert loaded.data.tobytes() == want.astype(etype.dtype).tobytes()
    assert loaded.valid.tolist() == [i < prefix for i in range(lanes)]
    assert list(state.ev_mem_reads) == active

    state.write_v(u(2), full(lanes, etype, 9), etype)
    sve.St1(u(2), p(1), x(5), etype=etype).execute(state)
    stored = state.mem.data[start:start + lanes * width].copy().view(
        etype.dtype)
    assert stored.tolist() == np.where(
        np.arange(lanes) < prefix, 9, values).tolist()
    assert list(state.ev_mem_writes) == active


@pytest.mark.parametrize("in_bounds", [0, 2])
def test_partial_prefix_out_of_bounds_fails_like_the_lane_loop(in_bounds):
    """A tail past the end of memory raises at its first bad lane, and a
    store writes the lanes before it, as a lane-by-lane access does."""
    size = 1 << 10
    state = prefix_state(5, F32, size)
    start = size - 4 * in_bounds
    state.write_x(x(5), start)
    message = re.escape(f"access [{size}, {size + 4}) outside memory")
    with pytest.raises(MemoryAccessError, match=message):
        sve.Ld1(u(1), p(1), x(5), etype=F32).execute(state)
    state.write_v(u(2), from_list(range(1, 17), F32, 16), F32)
    with pytest.raises(MemoryAccessError, match=message):
        sve.St1(u(2), p(1), x(5), etype=F32).execute(state)
    written = state.mem.ndarray(start, (in_bounds,), np.float32)
    assert written.tolist() == [1.0, 2.0][:in_bounds]


def test_partial_prefix_below_address_zero_fails_at_lane_zero():
    state = prefix_state(3, F32)
    state.write_x(x(5), -8)
    with pytest.raises(MemoryAccessError,
                       match=re.escape("access [-8, -4) outside memory")):
        sve.Ld1(u(1), p(1), x(5), etype=F32).execute(state)
