"""Unit tests for the memory hierarchy wiring and stream bypass paths."""
from repro.cpu.config import MachineConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.streams.pattern import MemLevel


def make_hierarchy():
    return MemoryHierarchy(MachineConfig())


class TestDemandPath:
    def test_cold_demand_miss_walks_to_dram(self):
        h = make_hierarchy()
        done = h.demand_access(0x10000, now=0, is_write=False)
        assert done > h.config.dram.access_latency  # L1+L2 miss + DRAM
        assert h.dram.reads == 1

    def test_warm_l2_shortens_latency(self):
        h = make_hierarchy()
        h.warm(0x10000, 64)
        done = h.demand_access(0x10000, now=100, is_write=False)
        assert done - 100 < 40  # L1 miss, L2 hit
        assert h.dram.reads == 0

    def test_second_access_hits_l1(self):
        h = make_hierarchy()
        first = h.demand_access(0x10000, 0, False)
        second = h.demand_access(0x10000, first, False)
        assert second - first <= h.config.l1d.hit_latency + 1


class TestStreamPath:
    def test_l2_stream_bypasses_l1(self):
        h = make_hierarchy()
        h.warm(0x20000, 64)
        line = h.line_of(0x20000)
        h.stream_read(line, 0, MemLevel.L2)
        assert h.l1d.stats.bypasses == 1
        assert not h.l1d.contains(line)  # no L1 allocation
        assert h.l2.stats.hits == 1

    def test_l2_stream_takes_one_l1_port_cycle_without_allocating(self):
        h = make_hierarchy()
        h.warm(0x20000, 64)
        line = h.line_of(0x20000)
        done = h.stream_read(line, 0, MemLevel.L2)
        assert h.l1d.ports.occupancy(0) == 1  # one L1 port slot...
        assert h.l1d.stats.accesses == 0  # ...but no L1 lookup
        assert not h.l1d.contains(line)
        assert h.l2.ports.occupancy(1) == 1  # the L2 access starts at 1
        assert done == 1 + h.config.l2.hit_latency

    def test_l1_stream_allocates_in_l1(self):
        h = make_hierarchy()
        h.warm(0x20000, 64)
        line = h.line_of(0x20000)
        h.stream_read(line, 0, MemLevel.L1)
        assert h.l1d.contains(line)

    def test_mem_stream_bypasses_both(self):
        h = make_hierarchy()
        h.warm(0x20000, 64)
        line = h.line_of(0x20000)
        h.stream_read(line, 0, MemLevel.MEM)
        assert h.dram.reads == 1  # straight to memory
        assert not h.l1d.contains(line)

    def test_stream_write_goes_to_l1(self):
        h = make_hierarchy()
        line = h.line_of(0x30000)
        h.stream_write(line, 0, MemLevel.L2)
        assert h.l1d.contains(line)


class TestWarm:
    def test_warm_fills_l2_up_to_capacity(self):
        h = make_hierarchy()
        h.warm(0, 512 * 1024)  # 2x the L2
        lines = sum(len(s) for s in h.l2._sets)
        assert lines == h.config.l2.size_bytes // 64  # full, not over

    def test_utilization_starts_at_zero(self):
        h = make_hierarchy()
        assert h.bus_utilization(1000) == 0.0


class TestLineSize:
    """Every level, and both prefetchers, work in one line size."""

    @staticmethod
    def config(line_bytes):
        from dataclasses import replace
        base = MachineConfig()
        return base.with_(
            l1d=replace(base.l1d, line_bytes=line_bytes),
            l2=replace(base.l2, line_bytes=line_bytes),
            dram=replace(base.dram, line_bytes=line_bytes),
        )

    def test_mismatched_line_sizes_are_rejected(self):
        from dataclasses import replace
        import pytest
        from repro.errors import ConfigError
        base = MachineConfig()
        for level in ("l1d", "l2", "dram"):
            with pytest.raises(ConfigError, match="line sizes must agree"):
                base.with_(**{
                    level: replace(getattr(base, level), line_bytes=128)
                })

    def test_prefetchers_take_the_configured_line(self):
        h = MemoryHierarchy(self.config(128))
        assert h.line_bytes == 128
        assert h.l1d.prefetcher.line_bytes == 128
        assert h.l2.prefetcher.line_bytes == 128
        assert h.l2.prefetcher.lines_per_zone == 4096 // 128

    def test_stride_prefetcher_trains_on_128_byte_lines(self):
        """A line-stride stream prefetches the same lines, counted in
        lines, whatever the line size."""

        def resident(line_bytes):
            h = MemoryHierarchy(self.config(line_bytes))
            now = 0.0
            for i in range(6):  # one line per access
                now = h.demand_access(0x10000 + i * line_bytes, now, False,
                                      pc=7)
            assert h.l1d.stats.prefetch_fills > 0
            last = (0x10000 + 5 * line_bytes) // line_bytes
            return [k for k in range(-8, 40) if h.l1d.contains(last + k)]

        assert resident(128) == resident(64)

    def test_ampm_trains_on_128_byte_lines(self):
        h = MemoryHierarchy(self.config(128))
        now = 0.0
        for line in range(3):  # lines 0, 1, 2 of one zone
            now = h.l2.access(line, now, False)
        assert h.l2.contains(3) and h.l2.contains(4)
