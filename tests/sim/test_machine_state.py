"""Unit tests for MachineState: stream control, vector length,
predication, the scalar-stream interface, and error conditions."""
import numpy as np
import pytest

from repro.common.types import ElementType
from repro.errors import IsaError, StreamError
from repro.isa import ProgramBuilder, f, p, u, x
from repro.isa import scalar_ops as sc
from repro.isa import uve_ops as uve
from repro.isa.registers import P0
from repro.isa.vector import VecValue, all_valid, from_list
from repro.memory.backing import Memory
from repro.sim.functional import FunctionalSimulator, MachineState
from repro.streams.pattern import Direction, MemLevel

F32 = ElementType.F32


def state_with_array(values, etype=F32):
    mem = Memory(1 << 20)
    addr = mem.alloc_array(np.asarray(values, dtype=etype.dtype))
    state = MachineState(memory=mem)
    return state, addr


def configure_load(state, index, addr, size, etype=F32, stride=1):
    state.stream_begin(index, Direction.LOAD, etype, MemLevel.L2)
    state.stream_dim(index, addr // etype.width, size, stride)
    state.stream_finish(index)


class TestVectorLength:
    def test_default_lanes(self):
        state = MachineState()
        assert state.lanes(F32) == 16
        assert state.lanes(ElementType.F64) == 8

    def test_setvl_caps_request(self):
        state = MachineState()
        assert state.set_vl(100, F32) == 16
        assert state.set_vl(5, F32) == 5
        assert state.lanes(F32) == 5

    def test_setvl_zero_resets(self):
        state = MachineState()
        state.set_vl(4, F32)
        assert state.set_vl(0, F32) == 16
        assert state.lanes(F32) == 16

    def test_narrow_machine(self):
        state = MachineState(vector_bits=128)
        assert state.lanes(F32) == 4


@pytest.mark.parametrize("bits", [128, 256, 512])
class TestBlankVectorRegisters:
    """A fresh state's registers share one read-only blank value."""

    @staticmethod
    def assert_blank(value, bits):
        assert value.data.dtype == F32.dtype
        assert value.data.tolist() == [0.0] * (bits // 32)
        assert not value.valid.any()

    def test_every_register_reads_blank(self, bits):
        state = MachineState(vector_bits=bits)
        for index in range(32):
            self.assert_blank(state.read_v(u(index), F32), bits)

    def test_unwritten_register_arrays_are_read_only(self, bits):
        state = MachineState(vector_bits=bits)
        value = state.read_v(u(3), F32)
        with pytest.raises(ValueError):
            value.data[0] = 1.0
        with pytest.raises(ValueError):
            value.valid[0] = True
        self.assert_blank(state.read_v(u(4), F32), bits)

    def test_write_leaves_other_registers_blank(self, bits):
        state = MachineState(vector_bits=bits)
        lanes = bits // 32
        state.write_v(u(5), from_list([1.0] * lanes, F32, lanes), F32)
        assert state.read_v(u(5), F32).valid.all()
        for index in range(32):
            if index != 5:
                self.assert_blank(state.read_v(u(index), F32), bits)

    def test_shared_all_valid_mask_is_read_only(self, bits):
        # A full contiguous stream chunk carries the one all-valid mask
        # of its lane count; an in-place write to it must raise.
        lanes = bits // 32
        state, addr = state_with_array(np.arange(lanes, dtype=np.float32))
        state = MachineState(memory=state.mem, vector_bits=bits)
        configure_load(state, 1, addr, lanes)
        value = state.read_operand(u(1), F32)
        assert value.valid is all_valid(lanes)
        with pytest.raises(ValueError):
            value.valid[0] = False
        assert all_valid(lanes).all()


class TestPredicates:
    def test_p0_hardwired_true(self):
        state = MachineState()
        assert state.read_pred(P0, 16).all()

    def test_p0_write_rejected(self):
        state = MachineState()
        with pytest.raises(IsaError):
            state.write_pred(P0, np.zeros(16, dtype=bool))

    def test_write_read_roundtrip(self):
        state = MachineState()
        mask = np.array([True, False] * 8)
        state.write_pred(p(3), mask)
        np.testing.assert_array_equal(state.read_pred(p(3), 16), mask)

    def test_shorter_read_truncates(self):
        state = MachineState()
        state.write_pred(p(3), np.ones(16, dtype=bool))
        assert len(state.read_pred(p(3), 8)) == 8


class TestStreamControl:
    def test_suspend_blocks_consumption(self):
        state, addr = state_with_array(np.arange(64))
        configure_load(state, 0, addr, 64)
        state.stream_control(0, "suspend")
        with pytest.raises(StreamError, match="suspended"):
            state.stream_read_scalar(0)

    def test_suspended_register_reads_as_plain_register(self):
        state, addr = state_with_array(np.arange(64, dtype=np.float32))
        configure_load(state, 0, addr, 64)
        value = state.read_operand(u(0), F32)  # consumes one chunk
        state.stream_control(0, "suspend")
        again = state.read_operand(u(0), F32)  # plain register read
        np.testing.assert_array_equal(value.data, again.data)

    def test_resume_restores_consumption(self):
        state, addr = state_with_array(np.arange(64, dtype=np.float32))
        configure_load(state, 0, addr, 64)
        state.stream_control(0, "suspend")
        state.stream_control(0, "resume")
        value = state.read_operand(u(0), F32)
        assert value.data[0] == 0.0

    def test_stop_unbinds(self):
        state, addr = state_with_array(np.arange(64, dtype=np.float32))
        configure_load(state, 0, addr, 64)
        state.stream_control(0, "stop")
        assert not state.is_stream(0)

    def test_control_without_stream_raises(self):
        state = MachineState()
        with pytest.raises(StreamError):
            state.stream_control(5, "suspend")


class TestStreamErrors:
    def test_reading_output_stream_rejected(self):
        state, addr = state_with_array(np.zeros(16, dtype=np.float32))
        state.stream_begin(2, Direction.STORE, F32, MemLevel.L2)
        state.stream_dim(2, addr // 4, 16, 1)
        state.stream_finish(2)
        with pytest.raises(StreamError, match="read"):
            state.read_operand(u(2), F32)

    def test_writing_input_stream_rejected(self):
        state, addr = state_with_array(np.zeros(16, dtype=np.float32))
        configure_load(state, 0, addr, 16)
        with pytest.raises(StreamError, match="written"):
            state.write_operand(u(0), from_list([1.0], F32, 16), F32)

    def test_overconsumption_rejected(self):
        state, addr = state_with_array(np.arange(16, dtype=np.float32))
        configure_load(state, 0, addr, 16)
        state.read_operand(u(0), F32)  # consumes all 16
        with pytest.raises(StreamError, match="finished"):
            state.read_operand(u(0), F32)

    def test_finish_without_begin_rejected(self):
        state = MachineState()
        with pytest.raises(StreamError, match="pending"):
            state.stream_finish(4)

    def test_modifier_without_outer_dim_rejected(self):
        from repro.streams.descriptor import Param, StaticBehavior
        state, addr = state_with_array(np.zeros(4, dtype=np.float32))
        state.stream_begin(0, Direction.LOAD, F32, MemLevel.L2)
        state.stream_dim(0, 0, 4, 1)
        with pytest.raises(StreamError, match="bind"):
            state.stream_static_mod(0, Param.SIZE, StaticBehavior.ADD, 1, 4)


class TestScalarStreamInterface:
    def test_scalar_reads_advance_elementwise(self):
        state, addr = state_with_array(np.arange(5, dtype=np.float32))
        configure_load(state, 0, addr, 5)
        got = [state.stream_read_scalar(0) for _ in range(5)]
        assert got == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert state.stream_ended(0)

    def test_scalar_writes_produce_elementwise(self):
        mem = Memory(1 << 20)
        addr = mem.alloc_array(np.zeros(4, dtype=np.float32))
        state = MachineState(memory=mem)
        state.stream_begin(1, Direction.STORE, F32, MemLevel.L2)
        state.stream_dim(1, addr // 4, 4, 1)
        state.stream_finish(1)
        for v in (9.0, 8.0, 7.0, 6.0):
            state.stream_write_scalar(1, v)
        np.testing.assert_array_equal(
            mem.ndarray(addr, (4,), np.float32), [9.0, 8.0, 7.0, 6.0]
        )


class TestReconfiguration:
    def test_register_rebinds_to_new_stream(self):
        state, addr = state_with_array(np.arange(32, dtype=np.float32))
        configure_load(state, 0, addr, 16)
        state.read_operand(u(0), F32)
        # Re-configure u0 over the second half.
        configure_load(state, 0, addr + 64, 16)
        value = state.read_operand(u(0), F32)
        assert value.data[0] == 16.0

    def test_uids_monotonic(self):
        state, addr = state_with_array(np.arange(32, dtype=np.float32))
        configure_load(state, 0, addr, 16)
        configure_load(state, 1, addr, 16)
        uids = sorted(state.stream_infos)
        assert uids == [0, 1]


class TestSuspendResumeProgram:
    def test_suspend_resume_in_program(self):
        """ss.suspend frees the register for scratch use; ss.resume
        restores stream consumption where it left off."""
        n = 32
        data = np.arange(n, dtype=np.float32)
        mem = Memory(1 << 20)
        src = mem.alloc_array(data)
        dst = mem.alloc_array(np.zeros(n, dtype=np.float32))
        b = ProgramBuilder("suspend-resume")
        b.emit(
            uve.SsConfig1D(u(0), Direction.LOAD, src // 4, n, 1, etype=F32),
            uve.SsConfig1D(u(1), Direction.STORE, dst // 4, n, 1, etype=F32),
            uve.SoMove(u(1), u(0), etype=F32),  # first chunk
            uve.SsCtl("suspend", u(0)),
            uve.SoDup(u(0), 99.0, etype=F32),  # scratch use while suspended
            uve.SsCtl("resume", u(0)),
            uve.SoMove(u(1), u(0), etype=F32),  # second chunk continues
            sc.Halt(),
        )
        FunctionalSimulator(b.build(), memory=mem).run()
        np.testing.assert_array_equal(mem.ndarray(dst, (n,), np.float32), data)
