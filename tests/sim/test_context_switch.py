"""Tests for stream context save/restore (paper §IV-A Context Switching)."""
import numpy as np

from repro.common.types import ElementType
from repro.isa import u
from repro.memory.backing import Memory
from repro.sim.functional import MachineState
from repro.streams.pattern import Direction, MemLevel

F32 = ElementType.F32
GRID_CHUNKS = 9  # 3 rows of chunks of 4, 4 and 2


def make_grid_state():
    """A 2-D stream over 3 rows of 10 F32 elements (row stride 12) at
    128-bit vectors: each row splits into chunks of 4, 4 and 2."""
    mem = Memory(1 << 20)
    addr = mem.alloc_array(np.arange(36, dtype=np.float32))
    state = MachineState(memory=mem, vector_bits=128)
    state.stream_begin(0, Direction.LOAD, F32, MemLevel.L2)
    state.stream_dim(0, addr // 4, 10, 1)
    state.stream_dim(0, 0, 3, 12)
    state.stream_finish(0)
    return state


def observe(state):
    """End-of-row and end-of-stream flags the branches would test."""
    return state.stream_dim_complete(0, 0), state.stream_ended(0)


def read_chunks(state, count):
    """Consume ``count`` chunks: their valid lanes and the flags after
    each."""
    out = []
    for _ in range(count):
        value = state.read_operand(u(0), F32)
        out.append((value.data[value.valid].tolist(), observe(state)))
    return out


def make_state(n=64):
    mem = Memory(1 << 20)
    addr = mem.alloc_array(np.arange(n, dtype=np.float32))
    state = MachineState(memory=mem)
    state.stream_begin(0, Direction.LOAD, F32, MemLevel.L2)
    state.stream_dim(0, addr // 4, n, 1)
    state.stream_finish(0)
    return state, addr


class TestContextSwitch:
    def test_save_suspends_all_streams(self):
        state, _ = make_state()
        context = state.save_stream_context()
        assert len(context) == 1
        assert not state.is_stream(0)  # suspended

    def test_restore_resumes_from_commit_point(self):
        state, _ = make_state()
        first = state.read_operand(u(0), F32)  # elements 0..15
        context = state.save_stream_context()
        state.restore_stream_context(context)
        second = state.read_operand(u(0), F32)
        assert second.data[0] == 16.0  # continues where it left off

    def test_context_size_within_paper_bounds(self):
        state, _ = make_state()
        context = state.save_stream_context()
        # Paper: 32 B (1-D) up to 400 B (8-D + 7 modifiers) per stream.
        assert 32 <= context[0]["bytes"] <= 400

    def test_restore_into_fresh_state(self):
        # Simulate an OS-level switch: state is discarded and rebuilt.
        state, addr = make_state()
        state.read_operand(u(0), F32)
        state.read_operand(u(0), F32)  # 32 elements consumed
        context = state.save_stream_context()

        fresh = MachineState(memory=state.mem)
        fresh.restore_stream_context(context)
        value = fresh.read_operand(u(0), F32)
        assert value.data[0] == 32.0

    def test_restored_stream_ends_correctly(self):
        state, _ = make_state(n=32)
        state.read_operand(u(0), F32)
        context = state.save_stream_context()
        state.restore_stream_context(context)
        state.read_operand(u(0), F32)
        assert state.stream_ended(0)

    def test_restored_stream_gets_fresh_uid(self):
        state, _ = make_state()
        context = state.save_stream_context()
        before = set(state.stream_infos)
        state.restore_stream_context(context)
        assert len(state.stream_infos) == len(before) + 1

    def test_restore_mid_pattern_matches_uninterrupted_run(self):
        reference = read_chunks(make_grid_state(), GRID_CHUNKS)
        assert [len(values) for values, _ in reference] == [4, 4, 2] * 3
        for done in range(GRID_CHUNKS + 1):
            state = make_grid_state()
            read_chunks(state, done)
            context = state.save_stream_context()
            fresh = MachineState(memory=state.mem, vector_bits=128)
            fresh.restore_stream_context(context)
            before = reference[done - 1][1] if done else (False, False)
            assert observe(fresh) == before, f"restored after {done} chunks"
            assert read_chunks(fresh, GRID_CHUNKS - done) == reference[done:]
