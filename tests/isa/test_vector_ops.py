"""Unit tests for the SVE-like and NEON-like instruction semantics."""
import numpy as np
import pytest

from repro.common.types import ElementType
from repro.isa import f, p, u, x
from repro.isa import neon_ops as neon
from repro.isa import sve_ops as sve
from repro.isa.registers import P0
from repro.isa.vector import VecValue, from_list, full, zeros
from repro.memory.backing import Memory
from repro.sim.functional import MachineState

F32 = ElementType.F32
I32 = ElementType.I32


def fresh_state(values=None):
    mem = Memory(1 << 20)
    addr = mem.alloc_array(np.asarray(values, dtype=np.float32)) if values is not None else 0
    return MachineState(memory=mem), addr


class TestWhileLt:
    def test_full_predicate(self):
        state, _ = fresh_state()
        state.write_x(x(1), 0)
        state.write_x(x(2), 100)
        sve.WhileLt(p(1), x(1), x(2), etype=F32).execute(state)
        assert state.read_pred(p(1), 16).all()

    def test_partial_predicate(self):
        state, _ = fresh_state()
        state.write_x(x(1), 95)
        state.write_x(x(2), 100)
        sve.WhileLt(p(1), x(1), x(2), etype=F32).execute(state)
        mask = state.read_pred(p(1), 16)
        assert mask[:5].all() and not mask[5:].any()

    def test_empty_predicate(self):
        state, _ = fresh_state()
        state.write_x(x(1), 100)
        state.write_x(x(2), 100)
        sve.WhileLt(p(1), x(1), x(2), etype=F32).execute(state)
        assert not state.read_pred(p(1), 16).any()


class TestPredicatedLoadsStores:
    def test_partial_load_zeroes_inactive(self):
        data = np.arange(16, dtype=np.float32)
        state, addr = fresh_state(data)
        state.write_x(x(1), 0)
        state.write_x(x(2), 3)
        sve.WhileLt(p(1), x(1), x(2), etype=F32).execute(state)
        state.write_x(x(8), addr)
        sve.Ld1(u(1), p(1), x(8), etype=F32).execute(state)
        v = state.read_v(u(1), F32)
        np.testing.assert_array_equal(v.data[:3], [0, 1, 2])
        assert not v.data[3:].any()
        assert v.valid[:3].all() and not v.valid[3:].any()

    def test_partial_store_leaves_tail(self):
        data = np.zeros(16, dtype=np.float32)
        state, addr = fresh_state(data)
        state.write_x(x(1), 0)
        state.write_x(x(2), 2)
        sve.WhileLt(p(1), x(1), x(2), etype=F32).execute(state)
        state.write_v(u(1), full(16, F32, 7.0), F32)
        state.write_x(x(8), addr)
        sve.St1(u(1), p(1), x(8), etype=F32).execute(state)
        out = state.mem.ndarray(addr, (16,), np.float32)
        np.testing.assert_array_equal(out[:2], [7.0, 7.0])
        assert not out[2:].any()

    def test_gather_collects_indexed_lanes(self):
        data = np.arange(100, dtype=np.float32)
        state, addr = fresh_state(data)
        state.write_x(x(8), addr)
        idx = from_list([5, 50, 95, 0] + [0] * 12, F32, 16)
        state.write_v(u(2), idx, F32)
        sve.Ld1Gather(u(1), P0, x(8), u(2), etype=F32).execute(state)
        got = state.read_v(u(1), F32).data
        np.testing.assert_array_equal(got[:4], [5.0, 50.0, 95.0, 0.0])

    def test_gather_and_scatter_index_above_float32_precision(self):
        """An int32 index above 2**24 addresses its exact element: read
        as float32, 2**24 + 1 rounds to 2**24 and the gather reads the
        zero beside the stored value."""
        state = MachineState(memory=Memory(80 << 20))
        base = 64
        index = 2**24 + 1
        state.mem.write_scalar(base + index * 4, 7.0, F32)
        state.write_x(x(8), base)
        state.write_v(u(2), full(16, I32, index), I32)
        sve.Ld1Gather(u(1), P0, x(8), u(2), etype=F32).execute(state)
        np.testing.assert_array_equal(state.read_v(u(1), F32).data, 7.0)

        state.write_v(u(2), full(16, I32, index + 2), I32)
        state.write_v(u(1), full(16, F32, 3.5), F32)
        sve.St1Scatter(u(1), P0, x(8), u(2), etype=F32).execute(state)
        assert state.mem.read_scalar(base + (index + 2) * 4, F32) == 3.5
        assert state.mem.read_scalar(base + (index + 1) * 4, F32) == 0.0
        assert state.mem.read_scalar(base + index * 4, F32) == 7.0

    def test_scatter_writes_indexed_lanes(self):
        state, addr = fresh_state(np.zeros(64, dtype=np.float32))
        state.write_x(x(8), addr)
        state.write_v(u(1), full(16, F32, 3.5), F32)
        idx = from_list(list(range(0, 32, 2)), F32, 16)
        state.write_v(u(2), idx, F32)
        sve.St1Scatter(u(1), P0, x(8), u(2), etype=F32).execute(state)
        out = state.mem.ndarray(addr, (32,), np.float32)
        np.testing.assert_array_equal(out[::2], [3.5] * 16)
        assert not out[1::2].any()


class TestMergingSemantics:
    def test_vop_merges_inactive_lanes(self):
        state, _ = fresh_state()
        state.write_pred(p(1), np.array([True] * 8 + [False] * 8))
        state.write_v(u(1), full(16, F32, 100.0), F32)  # old dest
        state.write_v(u(2), full(16, F32, 1.0), F32)
        state.write_v(u(3), full(16, F32, 2.0), F32)
        sve.VOp("add", u(1), p(1), u(2), u(3), etype=F32).execute(state)
        got = state.read_v(u(1), F32).data
        np.testing.assert_array_equal(got[:8], [3.0] * 8)
        np.testing.assert_array_equal(got[8:], [100.0] * 8)

    def test_fmla_accumulates(self):
        state, _ = fresh_state()
        state.write_v(u(1), full(16, F32, 1.0), F32)
        state.write_v(u(2), full(16, F32, 2.0), F32)
        state.write_v(u(3), full(16, F32, 3.0), F32)
        sve.Fmla(u(1), P0, u(2), u(3), etype=F32).execute(state)
        np.testing.assert_array_equal(state.read_v(u(1), F32).data, [7.0] * 16)

    def test_predicated_reduction_ignores_inactive(self):
        state, _ = fresh_state()
        state.write_pred(p(1), np.array([True] * 4 + [False] * 12))
        state.write_v(u(1), from_list(range(16), F32, 16), F32)
        sve.Red("add", f(1), p(1), u(1), etype=F32).execute(state)
        assert state.read_f(f(1)) == 0 + 1 + 2 + 3

    def test_compare_produces_predicate(self):
        state, _ = fresh_state()
        state.write_v(u(1), from_list(range(16), F32, 16), F32)
        state.write_v(u(2), full(16, F32, 8.0), F32)
        sve.CmpPred("lt", p(2), P0, u(1), u(2), etype=F32).execute(state)
        mask = state.read_pred(p(2), 16)
        assert mask[:8].all() and not mask[8:].any()

    def test_sel_selects_lanewise(self):
        state, _ = fresh_state()
        state.write_pred(p(1), np.array([True, False] * 8))
        state.write_v(u(1), full(16, F32, 1.0), F32)
        state.write_v(u(2), full(16, F32, 2.0), F32)
        sve.Sel(u(3), p(1), u(1), u(2), etype=F32).execute(state)
        got = state.read_v(u(3), F32).data
        np.testing.assert_array_equal(got[::2], [1.0] * 8)
        np.testing.assert_array_equal(got[1::2], [2.0] * 8)


class TestElementCounters:
    def test_inc_and_cnt(self):
        state, _ = fresh_state()
        state.write_x(x(1), 10)
        sve.IncElems(x(1), etype=F32).execute(state)
        assert state.read_x(x(1)) == 26
        sve.CntElems(x(2), etype=F32).execute(state)
        assert state.read_x(x(2)) == 16

    def test_index(self):
        state, _ = fresh_state()
        sve.Index(u(1), 100, 3, etype=ElementType.I32).execute(state)
        got = state.read_v(u(1), ElementType.I32).data
        np.testing.assert_array_equal(got, 100 + 3 * np.arange(16))


class TestNeonFixedWidth:
    def test_lanes_always_four_for_f32(self):
        assert neon.neon_lanes(F32) == 4
        assert neon.neon_lanes(ElementType.F64) == 2

    def test_load_op_store_roundtrip(self):
        data = np.arange(8, dtype=np.float32)
        state, addr = fresh_state(data)
        state.write_x(x(8), addr)
        neon.NVLoad(u(1), x(8), etype=F32, post_inc=True).execute(state)
        assert state.read_x(x(8)) == addr + 16  # post-increment
        neon.NVOp("mul", u(2), u(1), u(1), etype=F32).execute(state)
        state.write_x(x(9), addr)
        neon.NVStore(u(2), x(9), etype=F32).execute(state)
        out = state.mem.ndarray(addr, (4,), np.float32)
        np.testing.assert_array_equal(out, data[:4] ** 2)

    def test_reduction_over_four_lanes_only(self):
        state, _ = fresh_state()
        state.write_v(u(1), from_list([1, 2, 3, 4] + [99] * 12, F32, 16), F32)
        neon.NVRed("add", f(1), u(1), etype=F32).execute(state)
        assert state.read_f(f(1)) == 10.0

    def test_unary_sqrt(self):
        state, _ = fresh_state()
        state.write_v(u(1), full(16, F32, 9.0), F32)
        neon.NVUnary("sqrt", u(2), u(1), etype=F32).execute(state)
        np.testing.assert_allclose(state.read_v(u(2), F32).data[:4], 3.0)
