"""Unit tests for VecValue helpers and the SlotReservoir internals."""
import numpy as np
import pytest

from repro.common.types import ElementType
from repro.isa import f, u, x
from repro.isa import neon_ops as neon
from repro.isa.vector import VecValue, all_valid, from_list, full, zeros
from repro.memory.backing import Memory
from repro.memory.slots import SlotReservoir
from repro.sim.functional import MachineState

F32 = ElementType.F32


class TestVecValue:
    def test_zeros_all_invalid(self):
        v = zeros(8, F32)
        assert v.lanes == 8
        assert v.valid_count == 0
        assert not v.data.any()

    def test_full_all_valid(self):
        v = full(8, F32, 2.5)
        assert v.valid_count == 8
        np.testing.assert_array_equal(v.data, [2.5] * 8)

    def test_from_list_partial(self):
        v = from_list([1, 2, 3], F32, 8)
        assert v.valid_count == 3
        np.testing.assert_array_equal(v.active(), [1.0, 2.0, 3.0])
        assert not v.valid[3:].any()

    def test_dtype_follows_etype(self):
        v = full(4, ElementType.I64, 7)
        assert v.data.dtype == np.int64


class TestNeonSharesTheAllValidMask:
    """Every NEON result is fully valid and carries the one shared,
    read-only mask instead of a private copy."""

    WRITERS = (
        neon.NVLoad(u(1), x(5)),
        neon.NVOp("add", u(2), u(1), u(1)),
        neon.NVFma(u(2), u(1), u(1)),
        neon.NVDup(u(3), f(1)),
        neon.NVUnary("sqrt", u(4), u(1)),
    )

    @pytest.mark.parametrize("inst", WRITERS, ids=lambda i: type(i).__name__)
    def test_result_carries_the_shared_mask(self, inst):
        state = MachineState(memory=Memory(1 << 12), vector_bits=512)
        addr = state.mem.alloc_array(np.arange(1, 5, dtype=np.float32))
        state.write_x(x(5), addr)
        for setup in self.WRITERS[:2]:
            setup.execute(state)
        inst.execute(state)
        valid = state.vregs[inst.vd.index].valid
        assert valid is all_valid(4)
        assert not valid.flags.writeable
        with pytest.raises(ValueError):
            valid[0] = False


class TestSlotReservoirPruning:
    def test_ledger_is_pruned(self):
        res = SlotReservoir(1, 1.0)
        for i in range(20_000):
            res.reserve(float(i * 10))
        # Old slots were dropped; the ledger stays bounded.
        assert len(res._busy) < 20_000

    def test_occupancy_introspection(self):
        res = SlotReservoir(2, 1.0)
        res.reserve(5.0)
        res.reserve(5.0)
        assert res.occupancy(5.0) == 2
        assert res.occupancy(6.0) == 0

    def test_rejects_bad_parameters(self):
        import pytest
        with pytest.raises(ValueError):
            SlotReservoir(0, 1.0)
        with pytest.raises(ValueError):
            SlotReservoir(1, 0.0)
