"""Property-based tests (hypothesis) on core data structures."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import ElementType
from repro.cpu.config import CacheConfig
from repro.memory.backing import Memory
from repro.memory.cache import Cache
from repro.memory.slots import SlotReservoir
from repro.streams import (
    Descriptor,
    Level,
    StreamIterator,
    StreamPattern,
    VectorChunker,
)

# -- Stream iterator ----------------------------------------------------------

dims_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=64),  # offset
        st.integers(min_value=0, max_value=6),  # size
        st.integers(min_value=-4, max_value=8),  # stride
    ),
    min_size=1,
    max_size=4,
)


def reference_addresses(dims):
    """Nested-loop expansion of a modifier-free pattern (element units)."""

    def rec(level):
        if level < 0:
            return [0]
        offset, size, stride = dims[level]
        inner = rec(level - 1)
        out = []
        for i in range(size):
            disp = offset + i * stride
            out.extend(disp + a for a in inner)
        return out

    # dims[0] is innermost: recurse from the outermost level.
    def rec2(level_idx, disp):
        offset, size, stride = dims[level_idx]
        if level_idx == 0:
            return [disp + offset + i * stride for i in range(size)]
        out = []
        for i in range(size):
            out.extend(rec2(level_idx - 1, disp + offset + i * stride))
        return out

    return rec2(len(dims) - 1, 0)


@given(dims_strategy)
@settings(max_examples=200, deadline=None)
def test_iterator_matches_nested_loops(dims):
    pattern = StreamPattern(
        levels=[Level(Descriptor(o, e, s)) for (o, e, s) in dims],
        etype=ElementType.F32,
    )
    got = [a // 4 for a in StreamIterator(pattern).addresses()]
    assert got == reference_addresses(dims)


@given(dims_strategy)
@settings(max_examples=200, deadline=None)
def test_iterator_flags_form_valid_boundaries(dims):
    pattern = StreamPattern(
        levels=[Level(Descriptor(o, e, s)) for (o, e, s) in dims]
    )
    elements = StreamIterator(pattern).materialize()
    if not elements:
        return
    # The final element always closes every dimension.
    assert elements[-1].dims_ended == pattern.ndims - 1
    # Boundary counts nest: exactly prod(sizes[k+1:]) elements close dim k
    # (when all inner dims are non-empty).
    sizes = [d[1] for d in dims]
    if all(s > 0 for s in sizes):
        for k in range(len(dims)):
            expected = int(np.prod(sizes[k + 1 :])) if k + 1 < len(sizes) else 1
            closing = sum(1 for e in elements if e.dims_ended >= k)
            assert closing == expected


@given(dims_strategy, st.integers(min_value=1, max_value=8))
@settings(max_examples=200, deadline=None)
def test_chunker_partitions_elements(dims, lanes):
    pattern = StreamPattern(
        levels=[Level(Descriptor(o, e, s)) for (o, e, s) in dims]
    )
    elements = StreamIterator(pattern).materialize()
    chunks = list(VectorChunker(StreamIterator(pattern), lanes))
    flat = [a for c in chunks for a in c.addresses]
    assert flat == [e.address for e in elements]
    assert all(1 <= len(c.addresses) <= lanes for c in chunks)
    # A chunk never crosses a dimension-0 boundary: within a chunk only
    # the final element may carry a boundary flag.
    i = 0
    for chunk in chunks:
        for j in range(len(chunk.addresses) - 1):
            assert elements[i + j].dims_ended < 0
        i += len(chunk.addresses)


# -- Slot reservoir -----------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0, max_value=1e5, allow_nan=False),
             min_size=1, max_size=200),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.5, max_value=10),
)
@settings(max_examples=100, deadline=None)
def test_slot_reservoir_invariants(times, lanes, width):
    res = SlotReservoir(lanes, width)
    for t in times:
        s = res.reserve(t)
        assert s >= t  # causality: never starts before the request
    # No slot is over-subscribed (internal ledger invariant).
    assert all(v <= lanes for v in res._busy.values())


@given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False),
                min_size=2, max_size=50))
@settings(max_examples=100, deadline=None)
def test_slot_reservoir_future_work_never_blocks_present(times):
    res = SlotReservoir(1, 1.0)
    res.reserve(1e9)  # far-future reservation
    for t in times:
        assert res.reserve(t) < 1e8  # present requests unaffected


# -- Cache structure ----------------------------------------------------------


class _FlatNext:
    def access(self, line, now, is_write):
        return now + 50


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                max_size=300))
@settings(max_examples=100, deadline=None)
def test_cache_never_exceeds_associativity(lines):
    cache = Cache(CacheConfig("T", 4096, 2, 1, 4), _FlatNext())
    t = 0.0
    for line in lines:
        t = max(t, cache.access(line, t)) + 1
    for cset in cache._sets:
        assert len(cset) <= cache.config.assoc
    # Every recently-accessed line that maps to a set is either present or
    # was evicted by a later line of the same set — accesses always hit
    # immediately after.
    last = lines[-1]
    assert cache.contains(last)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=200))
@settings(max_examples=50, deadline=None)
def test_cache_hits_plus_misses_equals_accesses(lines):
    cache = Cache(CacheConfig("T", 8192, 4, 1, 4), _FlatNext())
    t = 0.0
    for line in lines:
        t = max(t, cache.access(line, t)) + 1
    s = cache.stats
    assert s.hits + s.misses == s.accesses == len(lines)


# -- Memory round-trips ---------------------------------------------------------

_ETYPES = [ElementType.I8, ElementType.I16, ElementType.I32, ElementType.I64,
           ElementType.F32, ElementType.F64]


@given(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=-(2 ** 15), max_value=2 ** 15 - 1),
    st.sampled_from(_ETYPES),
)
@settings(max_examples=200, deadline=None)
def test_memory_scalar_roundtrip(slot, value, etype):
    mem = Memory(1 << 16)
    addr = slot * 8  # aligned for every width
    if not etype.is_float:
        # Wrap into the representable range of the target width.
        value = int(np.array(value).astype(etype.dtype))
    mem.write_scalar(addr, value, etype)
    got = mem.read_scalar(addr, etype)
    if etype.is_float:
        assert got == float(np.dtype(etype.dtype).type(value))
    else:
        assert got == value


@given(st.integers(min_value=1, max_value=64), st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_memory_block_roundtrip(count, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(count).astype(np.float32)
    mem = Memory(1 << 16)
    addr = mem.alloc(count * 4)
    mem.write_block(addr, values)
    np.testing.assert_array_equal(
        mem.read_block(addr, count, ElementType.F32), values
    )


# -- Affine compiler ------------------------------------------------------------

from repro.streams.compiler import AffineAccess, LoopNest, compile_access


@given(
    st.lists(st.tuples(st.integers(1, 5),          # bound
                       st.integers(-8, 16)),       # coefficient
            min_size=1, max_size=4),
    st.integers(0, 100),  # base
    st.integers(-4, 4),   # constant offset
)
@settings(max_examples=200, deadline=None)
def test_affine_compiler_matches_loop_nest(loops, base, offset):
    names = [f"v{i}" for i in range(len(loops))]
    nest = LoopNest(names, {n: b for n, (b, _) in zip(names, loops)})
    access = AffineAccess(
        "A", base=base, offset=offset,
        terms={n: c for n, (_, c) in zip(names, loops) if c != 0},
    )
    pattern = compile_access(nest, access)
    got = [a // 4 for a in
           __import__("repro.streams", fromlist=["StreamIterator"])
           .StreamIterator(pattern).addresses()]

    def rec(vars_left, env):
        if not vars_left:
            return [base + offset + sum(
                access.terms.get(v, 0) * env[v] for v in env)]
        v, rest = vars_left[0], vars_left[1:]
        out = []
        for value in range(nest.bounds[v]):
            env2 = dict(env); env2[v] = value
            out.extend(rec(rest, env2))
        return out

    assert got == rec(list(nest.variables), {})


# -- Streaming Engine delivery invariants ----------------------------------------

from repro.cpu.config import EngineConfig
from repro.engine.engine import StreamingEngine
from repro.sim.trace import StreamTraceInfo
from repro.streams.pattern import Direction, MemLevel


class _FixedMemory:
    line_bytes = 64

    class _Tlb:
        @staticmethod
        def probe(addr):
            return True

        @staticmethod
        def stream_translate(addr):
            return True, 0

    class _L1:
        @staticmethod
        def can_accept(now):
            return True

    def __init__(self, latency):
        self.latency = latency
        self.tlb = self._Tlb()
        self.l1d = self._L1()

    def stream_read(self, line, now, level):
        return now + self.latency

    def stream_write(self, line, now, level):
        return now + 1


@given(
    st.lists(st.integers(min_value=1, max_value=4),  # lines per chunk
             min_size=1, max_size=20),
    st.integers(min_value=1, max_value=12),  # fifo depth
    st.integers(min_value=1, max_value=50),  # memory latency
)
@settings(max_examples=100, deadline=None)
def test_engine_delivers_every_chunk_once_in_order(chunk_sizes, depth, latency):
    info = StreamTraceInfo(
        uid=0, reg=0, direction=Direction.LOAD,
        etype=ElementType.F32, mem_level=MemLevel.L2,
        ndims=1, storage_bytes=32,
    )
    addr = 0
    for size in chunk_sizes:
        info.chunks.append([addr + i * 64 for i in range(size)])
        info.origin_reads.append([])
        info.chunk_flags.append(0)
        addr += size * 64
    info.chunk_flags[-1] = 0

    engine = StreamingEngine(
        EngineConfig(fifo_depth=depth, processing_modules=2),
        _FixedMemory(latency),
    )
    engine.configure(info, 0)
    ready = {}
    cycle = 0
    # Consume chunks as they become ready, committing immediately.
    next_chunk = 0
    stream = engine.streams[0]
    while next_chunk < len(chunk_sizes) and cycle < 100_000:
        engine.tick(cycle)
        while (next_chunk < len(chunk_sizes)
               and stream.ready_cycle(next_chunk) <= cycle):
            ready[next_chunk] = stream.ready_cycle(next_chunk)
            engine.commit_read(stream, next_chunk)
            next_chunk += 1
        cycle += 1
    # Every chunk was delivered, in order, with sane timing.
    assert next_chunk == len(chunk_sizes)
    times = [ready[i] for i in range(len(chunk_sizes))]
    assert all(t >= latency for t in times)
    assert engine.stats.chunks_filled == len(chunk_sizes)
